(* The cumulative cost ladder of the traced run.

   Every stage runs the same items (a packet at the router that
   handles it) through one more layer than the stage below, so a
   layer's self cost is its stage minus the stage it builds on:

     prep            restore the packet bytes the router mutates
     fib             + Fib.V4.lookup_id on the DIP-32 destination
     parse.cold      + Packet.parse
     parse.cached    + Progcache.parse
     engine          + Engine.process   (parse, Algorithm 1, FN ops)
     actions         + Engine.actions_of_verdict
     pool            + Pool.handle_batch (1 domain) in place of the two above
     sim             + Sim.run with Engine.handler routers (per hop)

   and, on the DIP-32 items only, the Figure-2 reference pair

     native.prep     restore an IPv4 packet with the same destination
     native          + Ipv4.forward
     dip32           prep + Engine.process on the same destinations

   A stage first runs one untimed pass, then whole passes until its
   time slice is spent; its time is the median of the fastest tenth
   of its passes (see [H.fastest]) and its words the first timed pass
   (allocation repeats exactly pass to pass).

   The tracing overhead is read from the workload's top stage (pool,
   actions or sim), whose passes with batch spans alternate with
   passes without; its collections give the GC rows. Last, the
   workload's own untraced end-to-end loop runs for one slice, and the
   top stage's cost per packet is set beside that loop's. *)

open Dip_core
module Bitbuf = Dip_bitbuf.Bitbuf
module Pool = Dip_mcore.Pool
module H = Harness

type items = {
  n : int;  (** items per pass *)
  env : int -> Env.t;  (** the router that handles item [i] *)
  ingress : int -> int;
  prep : int -> Bitbuf.t;
      (** make item [i]'s packet ready to process (restore what a
          previous pass mutated) and return it *)
  dst : int -> int;  (** DIP-32 destination of item [i], or -1 *)
  batches : (int * int) array;
      (** [(first, len)] runs of at most {!H.batch_size} items that
          share one router; they cover [0, n) in order *)
  registry : Registry.t;
  pool : int -> Pool.t;  (** a 1-domain pool over item [i]'s router *)
  envs : Env.t array;  (** every distinct router environment *)
}

(* One pass of the workload's simulation, recording a span per
   window and per [Sim.run] under [parent]. It times itself: [ns] and
   [words] cover injecting the packets and running the Sim, not
   building the Sim or checking its outcome. [readied] packets were
   readied inside that time, each at about the cost of the prep
   stage, which the ladder subtracts. *)
type sim_run = { hops : int; pkts : int; readied : int; ns : float; words : float }
type sim_pass = Harness.Spans.t option -> parent:int -> sim_run

(* [ns]: the stage's time per item, the median of the fastest tenth
   (see [H.fastest]) of its timed passes without batch spans.
   [traced_ns] and [paired_ns]: the same figure over the timed passes
   with batch spans and over the passes interleaved with them, from
   which the tracing overhead is read. [words]: per item, from the
   first timed pass without batch spans. *)
type cost = { ns : float; words : float; passes : int; traced_ns : float; paired_ns : float }

(* Pass 0 is the untimed pass. It and the first [detailed] odd-numbered
   timed passes record a span per batch and pass [~spans] on to the
   stage's work for the spans it records itself; the others get
   [None], which bounds the spans of a cheap stage. Alternating the
   two kinds lets each detailed pass be compared with a plain one run
   next to it, on the same warm caches and heap. *)
let detailed = 10
let is_detailed p = p = 0 || (p mod 2 = 1 && p < 2 * detailed)

let quiet a = H.median (Array.map (fun i -> a.(i)) (H.fastest (Array.length a / 10) a))

(* A stage's cost from the time and words of each timed pass, in
   order (timed pass [k] is pass [k + 1]). *)
let cost_of ~per times words =
  let pick f = Array.of_list (List.filteri (fun k _ -> f (k + 1)) (Array.to_list times)) in
  let plain = pick (fun p -> not (is_detailed p)) in
  let first_plain = if Array.length words > 1 then words.(1) else words.(0) in
  {
    ns = quiet plain /. per;
    words = first_plain /. per;
    passes = Array.length times;
    traced_ns = quiet (pick is_detailed) /. per;
    paired_ns = quiet (pick (fun p -> (not (is_detailed p)) && p <= 2 * detailed)) /. per;
  }

(* Run [batch] over every batch of [batches] for whole passes until
   [slice_ns] is spent (at least two timed passes, one of each kind). *)
let stage ?spans ~name ~slice_ns ~per_pass batches batch =
  let nid = match spans with Some s -> H.Spans.name s name | None -> 0 in
  let bid = match spans with Some s -> H.Spans.name s (name ^ ".batch") | None -> 0 in
  let passes = ref 0 in
  let pass () =
    let pid =
      match spans with
      | Some s -> H.Spans.enter s ~name:nid ~parent:(-1) ~batch:(-1)
      | None -> -1
    in
    Array.iteri
      (fun b (first, len) ->
        match spans with
        | Some s when is_detailed !passes ->
            let id = H.Spans.enter s ~name:bid ~parent:pid ~batch:b in
            batch ~spans ~parent:id first len;
            H.Spans.leave s id
        | Some _ | None -> batch ~spans:None ~parent:pid first len)
      batches;
    (match spans with Some s -> H.Spans.leave s pid | None -> ());
    incr passes
  in
  pass ();
  let times = H.Vec.create () and words = H.Vec.create () in
  let t_start = H.now_ns () in
  while H.Vec.length times < 2 || H.now_ns () - t_start < slice_ns do
    let w0 = H.words () in
    let t0 = H.now_ns () in
    pass ();
    let t1 = H.now_ns () in
    let w1 = H.words () in
    H.Vec.push words (w1 -. w0);
    H.Vec.push times (float_of_int (t1 - t0))
  done;
  cost_of ~per:(float_of_int (max 1 per_pass)) (H.Vec.to_array times) (H.Vec.to_array words)

let per_item items ?spans ~name ~slice_ns f =
  stage ?spans ~name ~slice_ns ~per_pass:items.n items.batches
    (fun ~spans:_ ~parent:_ first len ->
      for i = first to first + len - 1 do
        f i (items.prep i)
      done)

(* Batches of an index subset, for the stages over DIP-32 items. *)
let sub_batches idx =
  let n = Array.length idx in
  Array.init
    ((n + H.batch_size - 1) / H.batch_size)
    (fun b -> (b * H.batch_size, min H.batch_size (n - (b * H.batch_size))))

let per_index idx ?spans ~name ~slice_ns f =
  stage ?spans ~name ~slice_ns ~per_pass:(Array.length idx) (sub_batches idx)
    (fun ~spans:_ ~parent:_ first len ->
      for k = first to first + len - 1 do
        f idx.(k)
      done)

type native = {
  nprep : int -> Bitbuf.t;  (** an IPv4 packet for DIP-32 item [i] *)
  forward : int -> Bitbuf.t -> Dip_ip.Ipv4.verdict;
      (** Ipv4.forward at item [i]'s router *)
}

(* The simulator stage of a workload with one router: a Sim holding
   the router, each of its ports 0..[ports] wired to a sink host, and
   [nitems] items injected 256 at a time, 1 ms of simulated time
   apart, each batch run to completion (a [sim.run] span each). *)
let router_sim ~registry env ~ports ~ingress ~prep nitems : sim_pass =
 fun spans ~parent ->
  let sim = Dip_netsim.Sim.create () in
  let rt = Dip_netsim.Sim.add_node sim ~name:"router" (Engine.handler ~registry env) in
  for p = 0 to ports do
    let h =
      Dip_netsim.Sim.add_node sim ~name:(Printf.sprintf "h%d" p) (fun _ ~now:_ ~ingress:_ _ ->
          [ Dip_netsim.Sim.Consume ])
    in
    Dip_netsim.Sim.connect sim (rt, p) (h, 0)
  done;
  let run_id = match spans with Some s -> H.Spans.name s "sim.run" | None -> 0 in
  let b = ref 0 and first = ref 0 in
  let w0 = H.words () in
  let t0 = H.now_ns () in
  while !first < nitems do
    let at = float_of_int !b *. 1e-3 in
    for i = !first to !first + H.batch_size - 1 do
      Dip_netsim.Sim.inject sim ~at ~node:rt ~port:(ingress i) (prep i)
    done;
    (match spans with
    | Some s ->
        let id = H.Spans.enter s ~name:run_id ~parent ~batch:!b in
        Dip_netsim.Sim.run sim;
        H.Spans.leave s id
    | None -> Dip_netsim.Sim.run sim);
    first := !first + H.batch_size;
    incr b
  done;
  let ns = float_of_int (H.now_ns () - t0) and words = H.words () -. w0 in
  { hops = nitems; pkts = nitems; readied = nitems; ns; words }

type top = Pool_top | Actions_top | Sim_top

(* [e2e ~seconds] runs the workload's untraced end-to-end loop for
   [seconds] and returns the wall time of each 256-packet batch and
   the number of batches in one pass over its stream. *)
let run ?spans ~slice_ns ~top ~e2e items (sim : sim_pass) (native : native) r =
  let registry = items.registry in
  let m = H.metric r in
  Array.iter (fun e -> Progcache.reset_counters e.Env.prog_cache) items.envs;
  let st = per_item items ?spans ~slice_ns in
  let prep = st ~name:"prep" (fun _ pkt -> ignore (Sys.opaque_identity pkt)) in
  let nv4 = ref 0 in
  for i = 0 to items.n - 1 do
    if items.dst i >= 0 then incr nv4
  done;
  let fib =
    st ~name:"fib" (fun i _ ->
        let d = items.dst i in
        if d >= 0 then
          ignore
            (Sys.opaque_identity
               (Dip_tables.Fib.V4.lookup_id (items.env i).Env.v4_routes
                  (Int32.of_int d))))
  in
  let cold =
    st ~name:"parse.cold" (fun _ pkt ->
        ignore (Sys.opaque_identity (Packet.parse pkt)))
  in
  let cached =
    st ~name:"parse.cached" (fun i pkt ->
        ignore
          (Sys.opaque_identity (Progcache.parse (items.env i).Env.prog_cache pkt)))
  in
  let process i pkt =
    Engine.process ~registry (items.env i) ~now:0.0 ~ingress:(items.ingress i) pkt
  in
  let engine =
    st ~name:"engine" (fun i pkt -> ignore (Sys.opaque_identity (process i pkt)))
  in
  let actions_body i pkt =
    let v, _ = process i pkt in
    ignore
      (Sys.opaque_identity
         (Engine.actions_of_verdict (items.env i) ~ingress:(items.ingress i) pkt v))
  in
  (* Collections during a stage, for the GC rows of the top stage. *)
  let counting f =
    let g0 = Gc.quick_stat () in
    let c = f () in
    let g1 = Gc.quick_stat () in
    (c, (g1.Gc.minor_collections - g0.Gc.minor_collections, g1.Gc.major_collections - g0.Gc.major_collections))
  in
  let actions, actions_gc = counting (fun () -> st ~name:"actions" actions_body) in
  let pool_body ~spans:_ ~parent:_ first len =
    let batch =
      Array.init len (fun k ->
          let i = first + k in
          { Pool.now = 0.0; ingress = items.ingress i; pkt = items.prep i })
    in
    ignore (Sys.opaque_identity (Pool.handle_batch (items.pool first) batch))
  in
  let pool, pool_gc =
    counting (fun () -> stage ?spans ~name:"pool" ~slice_ns ~per_pass:items.n items.batches pool_body)
  in
  (* The simulator stage counts per router hop, from the time and
     words each pass reports of itself (the stage's own clock would
     also count building each Sim and checking it). *)
  let sim_stage ?spans () =
    let runs = ref [] in
    let c =
      stage ?spans ~name:"sim" ~slice_ns ~per_pass:1 [| (0, 1) |]
        (fun ~spans ~parent _ _ -> runs := sim spans ~parent :: !runs)
    in
    match List.rev !runs with
    | _untimed :: (first :: _ as timed) ->
        let timed = Array.of_list timed in
        let ns = Array.map (fun (s : sim_run) -> s.ns) timed in
        let words = Array.map (fun (s : sim_run) -> s.words) timed in
        ({ (cost_of ~per:1.0 ns words) with passes = c.passes }, first)
    | _ -> invalid_arg "sim stage: fewer than two passes"
  in
  let (sim_cost, sim_run), sim_gc = counting (fun () -> sim_stage ?spans ()) in
  let hops = float_of_int (max 1 sim_run.hops) in
  let sim_ns = (sim_cost.ns -. (prep.ns *. float_of_int sim_run.readied)) /. hops in
  let sim_words = sim_cost.words /. hops in
  (* Figure 2's pair on the DIP-32 items. *)
  let v4_idx =
    Array.of_list
      (List.filter (fun i -> items.dst i >= 0) (List.init items.n Fun.id))
  in
  (* The reference must forward where the engine does, or it would
     time a discard. *)
  Array.iter
    (fun i ->
      match (fst (process i (items.prep i)), native.forward i (native.nprep i)) with
      | Engine.Forwarded [ p ], Dip_ip.Ipv4.Forward q when p = q -> ()
      | _ -> H.fail r "item %d: Ipv4.forward disagrees with the engine's egress" i)
    v4_idx;
  let sx = per_index v4_idx ?spans ~slice_ns in
  let nprep =
    sx ~name:"native.prep" (fun i -> ignore (Sys.opaque_identity (native.nprep i)))
  in
  let nfwd =
    sx ~name:"native" (fun i -> ignore (Sys.opaque_identity (native.forward i (native.nprep i))))
  in
  let dip32 =
    sx ~name:"dip32" (fun i ->
        ignore (Sys.opaque_identity (process i (items.prep i))))
  in
  let dip32_prep =
    sx ~name:"dip32.prep" (fun i -> ignore (Sys.opaque_identity (items.prep i)))
  in
  let traced, top_items, (minor, major) =
    match top with
    | Pool_top -> (pool, items.n, pool_gc)
    | Actions_top -> (actions, items.n, actions_gc)
    | Sim_top -> (sim_cost, sim_run.pkts, sim_gc)
  in
  let overhead = (traced.traced_ns /. traced.paired_ns) -. 1.0 in
  (* The loop's passes, timed like the stages: the fastest tenth. *)
  let e2e_batches, pass_batches = e2e ~seconds:(float_of_int slice_ns /. 1e9) in
  let pb = max 1 (min pass_batches (Array.length e2e_batches)) in
  let e2e_passes =
    Array.init (Array.length e2e_batches / pb) (fun p ->
        Array.fold_left ( +. ) 0.0 (Array.sub e2e_batches (p * pb) pb))
  in
  let e2e_ns =
    H.median (Array.map (fun i -> e2e_passes.(i)) (H.fastest (Array.length e2e_passes / 10) e2e_passes))
    /. float_of_int (pb * H.batch_size)
  in
  let top_pkts = float_of_int ((traced.passes + 1) * max 1 top_items) in
  let per_mpkt d = float_of_int d *. 1e6 /. top_pkts in
  let d a b = a.ns -. b.ns and dw a b = a.words -. b.words in
  let per_v4 x = x *. float_of_int items.n /. float_of_int (max 1 !nv4) in
  let hits = ref 0 and misses = ref 0 and evictions = ref 0 in
  Array.iter
    (fun e ->
      let c = e.Env.prog_cache in
      hits := !hits + Progcache.hits c;
      misses := !misses + Progcache.misses c;
      evictions := !evictions + Progcache.evictions c)
    items.envs;
  m "fib.lookup_ns" "ns" (per_v4 (d fib prep));
  m "parse.cold_ns" "ns" (d cold prep);
  m "parse.cold_words" "words" (dw cold prep);
  m "parse.cached_ns" "ns" (d cached prep);
  m "parse.cached_words" "words" (dw cached prep);
  m "progcache.hit_frac" "fraction"
    (float_of_int !hits /. float_of_int (max 1 (!hits + !misses)));
  m "progcache.evictions" "count" (float_of_int !evictions);
  m "engine.process_ns" "ns" (d engine prep);
  m "engine.process_words" "words" (dw engine prep);
  m "engine.self_ns" "ns" (d engine prep -. d cached prep -. d fib prep);
  m "actions.ns" "ns" (d actions engine);
  m "actions.words" "words" (dw actions engine);
  m "pool.ns" "ns" (d pool prep);
  m "pool.overhead_ns" "ns" (d pool actions);
  m "sim.hops_per_s" "hops/s" (1e9 /. sim_ns);
  m "sim.ns_per_hop" "ns" sim_ns;
  m "sim.words_per_hop" "words" sim_words;
  m "sim.self_ns_per_hop" "ns" (sim_ns -. d actions prep);
  m "gc.minor_per_mpkt" "count"
    (per_mpkt minor);
  m "gc.major_per_mpkt" "count"
    (per_mpkt major);
  let native_ns = d nfwd nprep in
  m "native.forward_ns" "ns" native_ns;
  m "dip32_over_native" "ratio" (d dip32 dip32_prep /. native_ns);
  m "trace.overhead_frac" "fraction" overhead;
  (* The top stage per packet, prep subtracted, against the untraced
     loop, which readies its packets outside the timed batch. *)
  let top_ns =
    match top with
    | Pool_top -> d pool prep
    | Actions_top -> d actions prep
    | Sim_top -> sim_ns *. hops /. float_of_int (max 1 sim_run.pkts)
  in
  m "ladder.e2e_gap_frac" "fraction" ((top_ns /. e2e_ns) -. 1.0);
  H.note r
    "ladder (per item, prep subtracted): fib %.1f ns  parse.cached %.1f ns / %.1f w  engine %.1f ns / %.1f w  +actions %.1f ns / %.1f w  pool %.1f ns  sim %.1f ns/hop"
    (d fib prep) (d cached prep) (dw cached prep) (d engine prep)
    (dw engine prep) (d actions prep) (dw actions prep) (d pool prep) sim_ns;
  H.note r
    "ladder cross-check: engine %.1f words/packet (ROADMAP: 129 on DIP-32), engine + actions %.1f (ROADMAP: 142)"
    (dw engine prep) (dw actions prep);
  let top_name = match top with Pool_top -> "pool" | Actions_top -> "actions" | Sim_top -> "sim" in
  H.note r
    "%s stage: %.1f ns/item on its passes with batch spans vs %.1f ns/item on the passes between them: tracing overhead %+.2f%%"
    top_name traced.traced_ns traced.paired_ns (100.0 *. overhead);
  H.note r
    "ladder vs untraced end-to-end loop: %s stage %.1f ns/packet (prep subtracted) vs %.1f ns/packet over %d passes: gap %+.2f%%"
    top_name top_ns e2e_ns (Array.length e2e_passes) (100.0 *. ((top_ns /. e2e_ns) -. 1.0));
  (* Self costs the ladder must never report below zero (words are
     exact, so any negative increment is a harness bug). *)
  [
    ("fib", dw fib prep);
    ("parse.cold", dw cold prep);
    ("parse.cached", dw cached prep);
    ("engine", dw engine prep);
    ("actions", dw actions engine);
    ("pool", dw pool prep);
  ]
