(* Measurement plumbing shared by the workloads: the clock, allocation
   counters, order statistics, the in-memory span recorder of the
   traced run, and the metric/result record printed at the end. *)

let now_ns () = Int64.to_int (Dip_obs.Clock.now_ns ())
let words () = Gc.minor_words ()
let batch_size = 256

(* --- order statistics ------------------------------------------- *)

let sorted_copy a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile over [p] in [0,1]. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let s = sorted_copy a in
    let r = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) r))

let median a =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let s = sorted_copy a in
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* The indices of the [k] smallest of [times] (at least one, at most
   all), in order: the quiet repeats among repeats of identical work.
   On the machine this was written on, a repeat runs either at the
   program's own speed or about 1.5 times slower, when other tenants
   load the core's shared caches, switching from one repeat to the
   next; the share of slow repeats swings from run to run and moves
   every mean and median with it, while the fastest repeats held within
   a few percent across the runs of one spell of the machine. *)
let fastest k times =
  let n = Array.length times in
  let idx = Array.init n Fun.id in
  Array.stable_sort (fun i j -> Float.compare times.(i) times.(j)) idx;
  let k = Array.sub idx 0 (min n (max 1 k)) in
  Array.sort compare k;
  k

(* A growable float vector: batch times and per-segment rates. *)
module Vec = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0.0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let to_array v = Array.sub v.a 0 v.n
  let length v = v.n
end

(* --- spans ------------------------------------------------------- *)

(* The traced run's recorder: one span per ladder-stage batch, one per
   stage pass and one per [Sim.run], with the span that caused it and
   the batch it belongs to. Kept in preallocated arrays so recording
   is a few stores; spans past the capacity are counted, not kept. *)
module Spans = struct
  type t = {
    cap : int;
    mutable n : int;
    mutable dropped : int;
    name : int array;
    start : int array;
    stop : int array;
    parent : int array;
    batch : int array;
    names : (string, int) Hashtbl.t;
    mutable rev_names : string list;
  }

  let create cap =
    {
      cap;
      n = 0;
      dropped = 0;
      name = Array.make cap 0;
      start = Array.make cap 0;
      stop = Array.make cap 0;
      parent = Array.make cap (-1);
      batch = Array.make cap (-1);
      names = Hashtbl.create 32;
      rev_names = [];
    }

  (* Intern a span name once, outside the measured loops. *)
  let name t s =
    match Hashtbl.find_opt t.names s with
    | Some i -> i
    | None ->
        let i = Hashtbl.length t.names in
        Hashtbl.replace t.names s i;
        t.rev_names <- s :: t.rev_names;
        i

  (* Open a span; returns its id, or -1 when the recorder is full. *)
  let enter t ~name ~parent ~batch =
    if t.n = t.cap then begin
      t.dropped <- t.dropped + 1;
      -1
    end
    else begin
      let id = t.n in
      t.n <- id + 1;
      t.name.(id) <- name;
      t.parent.(id) <- parent;
      t.batch.(id) <- batch;
      t.start.(id) <- now_ns ();
      id
    end

  let leave t id = if id >= 0 then t.stop.(id) <- now_ns ()
  let count t = t.n

  (* Chrome trace-event JSON (load it in Perfetto or chrome://tracing):
     one complete event per span, with its id, parent and batch as
     arguments. The first [roots_per_stage] root spans (stage passes)
     of each stage are written, and the descendants only of the first
     pass of each stage, which keeps the file a few MB (a cheap stage
     runs a hundred thousand passes); returns the number of spans
     written. *)
  let roots_per_stage = 1000

  let write t path =
    let names = Array.of_list (List.rev t.rev_names) in
    let root = Array.make t.n 0 in
    let detail = Array.make (Array.length names) (-1) in
    let roots = Array.make (Array.length names) 0 in
    let keep = Array.make t.n false in
    for i = 0 to t.n - 1 do
      let p = t.parent.(i) in
      root.(i) <- (if p < 0 then i else root.(p));
      if p < 0 then begin
        if detail.(t.name.(i)) < 0 then detail.(t.name.(i)) <- i;
        roots.(t.name.(i)) <- roots.(t.name.(i)) + 1
      end;
      keep.(i) <-
        (if p < 0 then roots.(t.name.(i)) <= roots_per_stage
         else detail.(t.name.(root.(i))) = root.(i))
    done;
    let oc = open_out path in
    let t0 = if t.n > 0 then t.start.(0) else 0 in
    let written = ref 0 in
    output_string oc "{\"traceEvents\":[\n";
    for i = 0 to t.n - 1 do
      if keep.(i) then begin
        Printf.fprintf oc
          "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"batch\":%d}}"
          (if !written = 0 then "" else ",\n")
          names.(t.name.(i))
          (float_of_int (t.start.(i) - t0) /. 1e3)
          (float_of_int (t.stop.(i) - t.start.(i)) /. 1e3)
          i t.parent.(i) t.batch.(i);
        incr written
      end
    done;
    Printf.fprintf oc "\n],\"recordedSpans\":%d,\"droppedSpans\":%d}\n" t.n t.dropped;
    close_out oc;
    !written
end

(* --- results ----------------------------------------------------- *)

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * float * string) list;  (** reverse order *)
  mutable notes : string list;  (** reverse order *)
}

let result () = { attempted = 0; failed = 0; metrics = []; notes = [] }
let metric r name unit v = r.metrics <- (name, v, unit) :: r.metrics
let note r fmt = Printf.ksprintf (fun s -> r.notes <- s :: r.notes) fmt

(* A figure printed like a metric but left out of the JSON result:
   one that is not gated, or a per-layer row that only one workload
   can report (every workload prints every metric of the result). *)
let row r name unit v = note r "  %-28s %16.6g %s" name v unit

(* A mismatch against an oracle: counted, and the first few described
   on stderr so a failing run says what went wrong. *)
let fail r fmt =
  Printf.ksprintf
    (fun s ->
      r.failed <- r.failed + 1;
      if r.failed <= 5 then prerr_endline ("mismatch: " ^ s))
    fmt

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

(* Human-readable lines first, then the one-line JSON result last. *)
let print r =
  List.iter print_endline (List.rev r.notes);
  let ms = List.rev r.metrics in
  List.iter
    (fun (n, v, u) -> Printf.printf "  %-28s %16.6g %s\n" n v u)
    ms;
  Printf.printf "  %-28s %16.6g %s\n" "fail_frac"
    (float_of_int r.failed /. float_of_int (max 1 r.attempted))
    "fraction";
  let body =
    String.concat ","
      (List.map
         (fun (n, v, u) ->
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" n (json_float v) u)
         ms)
  in
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (r.failed = 0 && r.attempted > 0)
    r.attempted r.failed body

(* --- digests ------------------------------------------------------ *)

(* A digest of a workload's inputs or of a run's outputs: equal seeds
   must give equal digests, so a run is reproducible from its seed. *)
let digest add =
  let b = Buffer.create 4096 in
  add b;
  Digest.to_hex (Digest.string (Buffer.contents b))

let add_int b x = Buffer.add_string b (string_of_int x); Buffer.add_char b ','

(* --- set-up timing ----------------------------------------------- *)

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* Run [build] [reps] times, keeping the last value and the time of
   each build. Earlier results become garbage before the next build and
   are collected, untimed, before it starts, so no build pays the major
   GC work of the builds before it. *)
let timed_setup ~reps build =
  let times = Array.make reps 0.0 in
  let last = ref None in
  for i = 0 to reps - 1 do
    last := None;
    Gc.full_major ();
    let t0 = now_ns () in
    let v = build () in
    times.(i) <- float_of_int (now_ns () - t0) /. 1e9;
    last := Some v
  done;
  match !last with
  | Some v -> (v, times)
  | None -> invalid_arg "timed_setup: reps must be positive"

(* The memory a run retains, in MB: the heap words reachable from its
   tables, environments and inputs. Counted from the structures, so it
   does not move with GC pacing or with how far the run's own sample
   buffers grew (the live-heap and top-heap figures of [Gc] both did). *)
let retained_mb v = float_of_int (Obj.reachable_words (Obj.repr v) * (Sys.word_size / 8)) /. 1048576.0
