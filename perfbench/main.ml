(* The repository benchmark: one seeded workload per invocation.

     main.exe --workload <v4-bgp-1m|proto-mix|fabric-sim> --seed <n>
              --seconds <s> --trace <0|1> [--small] [--trace-file <path>]
              [--corrupt-oracle]

   --trace 0 measures the end-to-end metrics; --trace 1 is the separate
   traced run that measures the per-layer ladder and writes its spans
   to --trace-file. --small shrinks every table and stream (for the
   benchmark's own tests). --corrupt-oracle deliberately perturbs the
   oracle, so the run must fail: it proves the check can fail.

   Human-readable lines come first; the last line of standard output is
   the JSON result. The exit code is 1 when any output disagrees with
   its oracle, 2 on bad arguments. *)

module H = Harness

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  small : bool;
  trace_file : string;
  corrupt : bool;
}

let usage () =
  prerr_endline
    "usage: main.exe --workload <v4-bgp-1m|proto-mix|fabric-sim> --seed <n> \
     --seconds <s> --trace <0|1> [--small] [--trace-file <path>] [--corrupt-oracle]";
  exit 2

let parse_args () =
  let o =
    ref
      { workload = ""; seed = 1; seconds = 10.0; trace = false; small = false;
        trace_file = "trace.json"; corrupt = false }
  in
  let rec go = function
    | "--workload" :: w :: rest -> o := { !o with workload = w }; go rest
    | "--seed" :: s :: rest -> (
        match int_of_string_opt s with
        | Some n -> o := { !o with seed = n }; go rest
        | None -> usage ())
    | "--seconds" :: s :: rest -> (
        match float_of_string_opt s with
        | Some x when x > 0.0 -> o := { !o with seconds = x }; go rest
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as t) :: rest -> o := { !o with trace = t = "1" }; go rest
    | "--small" :: rest -> o := { !o with small = true }; go rest
    | "--trace-file" :: f :: rest -> o := { !o with trace_file = f }; go rest
    | "--corrupt-oracle" :: rest -> o := { !o with corrupt = true }; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  !o

(* --- end-to-end runs --------------------------------------------- *)

(* Every batch holds [H.batch_size] packets: [batch_ns] is the wall
   time of each, in order, and every [pass_batches] of them make one
   pass over the workload's stream, the same work each time. The
   timing metrics come from the quiet passes, the fastest that hold
   [quiet_batches] batches between them (see [H.fastest]), and
   [setup_s] from the fastest tenth of the builds; the figures over
   every pass are printed beside them. *)
let quiet_batches = 1024 (* at least ten beyond the p99 *)

let report_e2e r ~pass_batches ~setup ~heap (batch_ns, alloc) =
  let b = H.Vec.to_array batch_ns in
  let sum = Array.fold_left ( +. ) 0.0 in
  let rate a = float_of_int (Array.length a * H.batch_size) *. 1e9 /. sum a in
  let pb = min pass_batches (Array.length b) in
  let passes = Array.init (Array.length b / pb) (fun p -> Array.sub b (p * pb) pb) in
  let k = (quiet_batches + pb - 1) / pb in
  let q = Array.map (fun p -> passes.(p)) (H.fastest k (Array.map sum passes)) in
  let qb = Array.concat (Array.to_list q) in
  let builds = Array.map (fun i -> setup.(i)) (H.fastest (Array.length setup / 10) setup) in
  let m = H.metric r in
  m "pps" "packets/s" (rate qb);
  m "batch_us_p50" "us" (H.percentile qb 0.5 /. 1e3);
  m "alloc_words_per_pkt" "words" alloc;
  m "setup_s" "s" (H.median builds);
  m "heap_mb" "MB" heap;
  H.note r
    "samples: the fastest %d of %d passes of %d batches of %d packets: %d batches, %d beyond the p99"
    (Array.length q) (Array.length passes) pb H.batch_size (Array.length qb)
    (Array.length qb - int_of_float (Float.ceil (0.99 *. float_of_int (Array.length qb))));
  (* Printed, not gated: the quiet passes' tail moved by a quarter
     between sets of runs twenty minutes apart (see README.md). *)
  H.row r "batch_us_p99" "us" (H.percentile qb 0.99 /. 1e3);
  H.note r "every pass: %.6g packets/s, batch p50 %.1f us, p99 %.1f us, over %d batches"
    (rate b) (H.percentile b 0.5 /. 1e3) (H.percentile b 0.99 /. 1e3) (Array.length b);
  H.note r "set-up: median of the fastest %d of %d builds; in order: %s" (Array.length builds)
    (Array.length setup)
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") setup)));
  (* Drift shows here: a run still warming up climbs across tenths. *)
  let k = Array.length b / 10 in
  if k > 0 then
    H.note r "pps by tenth of the run, every pass: %s"
      (String.concat " " (List.init 10 (fun i -> Printf.sprintf "%.3g" (rate (Array.sub b (i * k) k)))))

let digests r ~workload ~verdicts = H.note r "digest: workload=%s verdicts=%s" workload verdicts

let e2e o r =
  let seed = Int64.of_int o.seed and seconds = o.seconds and corrupt = o.corrupt in
  let t0 = H.now_ns () in
  let phases ~gen ~setup ~run =
    H.note r "phases: generate %.1f s, set-up %.1f s, run %.1f s, the rest %.1f s" gen setup run
      (H.seconds_since t0 -. gen -. setup -. run)
  in
  match o.workload with
  | "v4-bgp-1m" ->
      let size = if o.small then V4_bgp.small else V4_bgp.full in
      let input = V4_bgp.generate ~seed size in
      let gen = H.seconds_since t0 in
      let n = Array.length input.V4_bgp.stream in
      let router, setup_s = H.timed_setup ~reps:3 (fun () -> V4_bgp.build input) in
      let setup = H.seconds_since t0 -. gen in
      let res, egress = V4_bgp.e2e r ~seconds ~warm_passes:2 ~alloc_pkts:n input router in
      let run = H.seconds_since t0 -. gen -. setup in
      report_e2e r ~pass_batches:(n / H.batch_size) ~setup:setup_s
        ~heap:(H.retained_mb (input, router)) res;
      let checked = V4_bgp.check_egress ~corrupt r input egress in
      H.note r "v4-bgp-1m: %d routes, %d-packet stream; %d positions checked against Lpm_trie"
        size.V4_bgp.routes n checked;
      digests r ~workload:(V4_bgp.workload_digest input)
        ~verdicts:(H.digest (fun b -> Array.iter (H.add_int b) egress));
      phases ~gen ~setup ~run
  | "proto-mix" ->
      let size = if o.small then Proto_mix.small else Proto_mix.full in
      let input = Proto_mix.generate ~seed size in
      let gen = H.seconds_since t0 in
      let build () = Proto_mix.build input in
      let router, before = H.timed_setup ~reps:26 build in
      let setup = H.seconds_since t0 -. gen in
      let res, verdicts = Proto_mix.e2e ~corrupt r ~seconds input router in
      let run = H.seconds_since t0 -. gen -. setup in
      let _, after = H.timed_setup ~reps:25 build in
      report_e2e r ~pass_batches:(Array.length input.Proto_mix.pkts / H.batch_size)
        ~setup:(Array.append before after) ~heap:(H.retained_mb (input, router)) res;
      H.note r "proto-mix: %d-packet interleaved stream, full byte check before and after timing"
        (Array.length input.Proto_mix.pkts);
      digests r ~workload:(Proto_mix.workload_digest input) ~verdicts;
      phases ~gen ~setup ~run
  | "fabric-sim" ->
      let size = if o.small then Fabric.small else Fabric.full in
      let input = Fabric.generate ~seed size in
      let gen = H.seconds_since t0 in
      let build () = Fabric.build input in
      let f, before = H.timed_setup ~reps:31 build in
      let setup = H.seconds_since t0 -. gen in
      let res, verdicts = Fabric.e2e ~corrupt r ~seconds input f in
      let run = H.seconds_since t0 -. gen -. setup in
      let _, after = H.timed_setup ~reps:30 build in
      report_e2e r ~pass_batches:(Array.length input.Fabric.pkts / H.batch_size)
        ~setup:(Array.append before after) ~heap:(H.retained_mb (input, f)) res;
      H.note r "fabric-sim: k=%d fat tree, %d packets per simulation"
        size.Fabric.k (Array.length input.Fabric.pkts);
      digests r ~workload:(Fabric.workload_digest input) ~verdicts;
      phases ~gen ~setup ~run
  | _ -> usage ()

(* --- the traced run ---------------------------------------------- *)

(* FIB state cost: a fresh build of each router's v4 table, timed. *)
let fib_layer r tables =
  let routes = List.fold_left (fun a t -> a + Array.length t) 0 tables in
  let t0 = H.now_ns () in
  let built =
    List.map
      (fun t ->
        let fib = Dip_tables.Fib.V4.create () in
        Array.iter (fun (a, len, p) -> Dip_tables.Fib.V4.insert fib a ~len p) t;
        fib)
      tables
  in
  let s = float_of_int (H.now_ns () - t0) /. 1e9 in
  let bytes = List.fold_left (fun a f -> a + Dip_tables.Fib.V4.memory_bytes f) 0 built in
  H.metric r "fib.insert_per_s" "routes/s" (float_of_int routes /. s);
  H.metric r "fib.bytes_per_route" "bytes" (float_of_int bytes /. float_of_int (max 1 routes))

let fib_tables_of_env env =
  Dip_tables.Fib.V4.fold (fun a len p acc -> (a, len, p) :: acc) env.Dip_core.Env.v4_routes []
  |> Array.of_list

(* Time slices: twelve ladder stages and the untraced end-to-end loop;
   proto-mix adds its per-class pass and the MAC. *)
let stages = function "proto-mix" -> 15 | _ -> 13

let traced o r =
  let seed = Int64.of_int o.seed and corrupt = o.corrupt in
  let slice_ns = int_of_float (o.seconds *. 1e9 /. float_of_int (stages o.workload)) in
  let spans = H.Spans.create 1_000_000 in
  let self, tables =
    match o.workload with
    | "v4-bgp-1m" ->
        let size = if o.small then V4_bgp.small else V4_bgp.full in
        let input = V4_bgp.generate ~seed size in
        let n = Array.length input.V4_bgp.stream in
        let router = V4_bgp.build input in
        let _, egress = V4_bgp.e2e r ~seconds:0.0 ~warm_passes:1 ~alloc_pkts:0 input router in
        let self = V4_bgp.ladder r ~spans ~slice_ns input router in
        ignore (V4_bgp.check_egress ~corrupt r input egress);
        r.H.attempted <- n;
        (self, [ fib_tables_of_env router.V4_bgp.env ])
    | "proto-mix" ->
        let size = if o.small then Proto_mix.small else Proto_mix.full in
        let input = Proto_mix.generate ~seed size in
        let router = Proto_mix.build input in
        ignore (Proto_mix.verify_pass ~corrupt r input router);
        let self = Proto_mix.ladder ~corrupt r ~spans ~slice_ns input router in
        ignore (Proto_mix.verify_pass ~corrupt r input router);
        r.H.attempted <- 2 * Array.length input.Proto_mix.pkts;
        Proto_mix.class_costs r ~slice_ns input router;
        Proto_mix.mac_cost r ~slice_ns input;
        (self, [ fib_tables_of_env router.Proto_mix.env ])
    | "fabric-sim" ->
        let size = if o.small then Fabric.small else Fabric.full in
        let input = Fabric.generate ~seed size in
        let f = Fabric.build input in
        let self = Fabric.ladder ~corrupt r ~spans ~slice_ns input f in
        ( self,
          List.filter_map (Option.map fib_tables_of_env) (Array.to_list f.Fabric.envs) )
    | _ -> usage ()
  in
  fib_layer r tables;
  List.iter
    (fun (layer, words) ->
      if words < 0.0 then H.fail r "ladder stage %s has a negative self cost (%.2f words)" layer words)
    self;
  let written = H.Spans.write spans o.trace_file in
  H.metric r "trace.spans" "count" (float_of_int (H.Spans.count spans));
  H.note r "trace: %d spans recorded, %d written to %s" (H.Spans.count spans) written o.trace_file

let () =
  let o = parse_args () in
  let r = H.result () in
  if o.trace then traced o r else e2e o r;
  H.print r;
  exit (if r.H.failed = 0 && r.H.attempted > 0 then 0 else 1)
