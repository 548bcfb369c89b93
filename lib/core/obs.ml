module M = Dip_obs.Metrics
module F = Dip_obs.Flight

let default_sample_every = 16

(* Flight-recorder event types (registered once, process-wide). Both
   spans ride the sampled path — begin_packet already decides which
   packets pay for clock reads, so arming a flight ring adds no
   unsampled per-packet work. *)
let ev_process = F.register ~kind:F.Span "engine.process"
let ev_op = F.register ~kind:F.Span "engine.op"

type t = {
  m : M.t;
  (* Dense per-opkey handle arrays, indexed by Opkey.to_int. Slot 0 is
     unused (keys start at 1) but keeping it avoids an offset on the
     hot path. *)
  op_run : M.counter array;
  op_skip : M.counter array;
  op_error : M.counter array;
  op_nanos : M.counter array;
  verdicts : M.counter array; (* 6 classes, see class_index *)
  packets : M.counter;
  latency : M.histogram;
  cache_hit : M.gauge;
  cache_miss : M.gauge;
  cache_evict : M.gauge;
  sample_every : int;
  mutable tick : int;
  mutable flight : F.ring option;
  (* The verdict class of the current run, captured by [verdict] so
     the flight span recorded in [process_ns] can carry it (the
     engine always reports the verdict before the span). *)
  mutable last_class : int;
}

let verdict_names =
  [| "forwarded"; "delivered"; "responded"; "quiet"; "dropped"; "unsupported" |]

let class_index = function
  | `Forwarded -> 0
  | `Delivered -> 1
  | `Responded -> 2
  | `Quiet -> 3
  | `Dropped -> 4
  | `Unsupported -> 5

let create ?(prefix = "engine") ?(sample_every = default_sample_every) ?flight
    m =
  if sample_every < 1 then invalid_arg "Obs.create: sample_every must be >= 1";
  let n = Opkey.max_key + 1 in
  let per_op suffix help =
    let reg k =
      M.counter
        ~help:(help ^ Opkey.description k)
        m
        (Printf.sprintf "%s.op.%s.%s" prefix (Opkey.name k) suffix)
    in
    (* Slot 0 is never read (keys start at 1); fill it with the first
       real handle rather than registering a spurious metric. *)
    let a = Array.make n (reg (List.hd Opkey.all)) in
    List.iter (fun k -> a.(Opkey.to_int k) <- reg k) Opkey.all;
    a
  in
  {
    m;
    op_run = per_op "run" "executions of ";
    op_skip = per_op "skip" "tag/deployment skips of ";
    op_error = per_op "error" "aborts raised by ";
    op_nanos = per_op "ns" "sampled execution nanos of ";
    verdicts =
      Array.map
        (fun v -> M.counter m (prefix ^ ".verdict." ^ v))
        verdict_names;
    packets = M.counter ~help:"engine runs observed" m (prefix ^ ".packets");
    latency =
      M.histogram ~help:"sampled whole-run latency (ns)" m
        (prefix ^ ".process_ns");
    cache_hit = M.gauge m (prefix ^ ".progcache.hit");
    cache_miss = M.gauge m (prefix ^ ".progcache.miss");
    cache_evict = M.gauge m (prefix ^ ".progcache.evict");
    sample_every;
    tick = 0;
    flight;
    last_class = 0;
  }

let metrics t = t.m
let set_flight t r = t.flight <- r
let flight t = t.flight

let publish_cache t pc =
  M.Gauge.set t.cache_hit (Progcache.hits pc);
  M.Gauge.set t.cache_miss (Progcache.misses pc);
  M.Gauge.set t.cache_evict (Progcache.evictions pc)

let bump (c : M.counter) = c.M.c <- c.M.c + 1 (* inline: no call per event *)

let begin_packet t =
  bump t.packets;
  let tk = t.tick + 1 in
  if tk >= t.sample_every then begin
    t.tick <- 0;
    true
  end
  else begin
    t.tick <- tk;
    false
  end

let op_run t k = bump t.op_run.(Opkey.to_int k)
let op_skip t k = bump t.op_skip.(Opkey.to_int k)
let op_error t k = bump t.op_error.(Opkey.to_int k)
let op_ns t k ns =
  M.Counter.incr ~by:ns t.op_nanos.(Opkey.to_int k);
  match t.flight with
  | None -> ()
  | Some r -> F.record r ev_op ns (Opkey.to_int k) 0

let verdict t v =
  let c = class_index v in
  bump t.verdicts.(c);
  t.last_class <- c

let process_ns t ns =
  M.Histogram.observe t.latency (float_of_int ns);
  match t.flight with
  | None -> ()
  | Some r -> F.record r ev_process ns t.last_class 0
