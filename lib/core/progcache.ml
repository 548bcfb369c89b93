module Bitbuf = Dip_bitbuf.Bitbuf
module Field = Dip_bitbuf.Field
module F = Dip_obs.Flight

(* Flight-recorder event types. Hits dominate a steady-state router
   (hit rate ~0.998 on the soak workload), so they are sampled
   1-in-16 to stay inside the recorder's overhead budget; misses and
   evictions are rare and recorded unconditionally. Operand a0
   carries the running total so a sampled stream still reconstructs
   exact counts. *)
let ev_hit = F.register "progcache.hit"
let ev_miss = F.register "progcache.miss"
let ev_evict = F.register "progcache.evict"
let fl_sample_every = 16

type entry = {
  header : Header.t; (* hop_limit forced to 0; patched per packet *)
  header_len : int;
  fns : Fn.t array;
  targets : Field.t array; (* absolute preset slice of each FN *)
  loc_base : int;
  mutable depth : int; (* full-program critical path; -1 = not computed *)
  mutable verdict :
    ((Packet.view -> (unit, string) result) * (unit, string) result) option;
}

(* The entry of an empty slot. Never handed out. *)
let vacant =
  { header = { Header.next_header = 0; fn_num = 0; hop_limit = 0;
               parallel = false; fn_loc_len = 0 };
    header_len = 0; fns = [||]; targets = [||]; loc_base = 0; depth = -1;
    verdict = None }

let nil = -1

(* Int fields thread the bucket chains (or, for a released slot, the
   free list) and the recency list through slot indices: a hit writes
   ints only, and eviction takes [lru] without a scan. [nil] ends
   every list. *)
type slot = {
  mutable key : string; (* program prefix, hop-limit byte zeroed *)
  mutable hash : int;
  mutable entry : entry;
  mutable chain : int; (* next slot in the bucket, or next free slot *)
  mutable newer : int; (* recency list, from [mru] ... *)
  mutable older : int; (* ... to [lru] *)
}

let new_slot () =
  { key = ""; hash = 0; entry = vacant; chain = nil; newer = nil; older = nil }

(* Slots at [used] and beyond share one placeholder until first taken. *)
type t = {
  slots : slot array;
  buckets : int array; (* power-of-two length; first slot or nil *)
  mutable used : int;
  mutable mru : int;
  mutable lru : int;
  mutable free : int;
  mutable size : int;
  mutable enabled : bool;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable flight : F.ring option;
  mutable fl_tick : int;
}

(* Program prefixes differ early — FN_Num at byte 1, the first
   triple at bytes 6..11 — so FNV-1a over the length, a bounded
   prefix and the last byte fingerprints well and cheaply. Reads the
   packet's bytes in place, the hop-limit byte (2) as 0. *)
let fnv h c = (h lxor c) * 0x01000193

let fingerprint b n =
  let h = ref (fnv 0x811c9dc5 (n land 0xff)) in
  for i = 0 to (if n < 24 then n else 24) - 1 do
    h := fnv !h (if i = 2 then 0 else Bytes.get_uint8 b i)
  done;
  if n > 24 then h := fnv !h (Bytes.get_uint8 b (n - 1));
  !h land max_int

let create ?(capacity = 512) () =
  let cap = max 1 capacity in
  let rec pow2 b = if b >= cap then b else pow2 (2 * b) in
  {
    slots = Array.make cap (new_slot ());
    buckets = Array.make (pow2 1) nil;
    used = 0;
    mru = nil;
    lru = nil;
    free = nil;
    size = 0;
    enabled = capacity > 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    flight = None;
    fl_tick = 0;
  }

let enabled t = t.enabled
let set_enabled t v = t.enabled <- v
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let set_flight t r = t.flight <- r

let note_hit t =
  t.hits <- t.hits + 1;
  match t.flight with
  | None -> ()
  | Some r ->
      let tk = t.fl_tick + 1 in
      if tk >= fl_sample_every then begin
        t.fl_tick <- 0;
        F.record r ev_hit t.hits 0 0
      end
      else t.fl_tick <- tk

let note_miss t =
  t.misses <- t.misses + 1;
  match t.flight with
  | None -> ()
  | Some r -> F.record r ev_miss t.misses 0 0

let note_evict t =
  t.evictions <- t.evictions + 1;
  match t.flight with
  | None -> ()
  | Some r -> F.record r ev_evict t.evictions 0 0
let size t = t.size

let reset_counters t =
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0

let bucket_of t h = h land (Array.length t.buckets - 1)

let link_bucket t s =
  let sl = t.slots.(s) in
  let b = bucket_of t sl.hash in
  sl.chain <- t.buckets.(b);
  t.buckets.(b) <- s

let unlink_bucket t s =
  let sl = t.slots.(s) in
  let b = bucket_of t sl.hash in
  if t.buckets.(b) = s then t.buckets.(b) <- sl.chain
  else begin
    let p = ref t.slots.(t.buckets.(b)) in
    while !p.chain <> s do
      p := t.slots.(!p.chain)
    done;
    !p.chain <- sl.chain
  end

let unlink t s =
  let sl = t.slots.(s) in
  if sl.newer = nil then t.mru <- sl.older
  else t.slots.(sl.newer).older <- sl.older;
  if sl.older = nil then t.lru <- sl.newer
  else t.slots.(sl.older).newer <- sl.newer

let push_mru t s =
  let sl = t.slots.(s) in
  sl.newer <- nil;
  sl.older <- t.mru;
  if t.mru = nil then t.lru <- s else t.slots.(t.mru).newer <- s;
  t.mru <- s

let release t s =
  unlink t s;
  unlink_bucket t s;
  let sl = t.slots.(s) in
  sl.key <- "";
  sl.entry <- vacant;
  sl.chain <- t.free;
  t.free <- s;
  t.size <- t.size - 1

(* A released slot, a never-used one or, all in use, the evicted LRU. *)
let take_slot t =
  if t.free = nil then begin
    if t.used < Array.length t.slots then begin
      t.slots.(t.used) <- new_slot ();
      t.free <- t.used;
      t.used <- t.used + 1
    end
    else begin
      note_evict t;
      release t t.lru
    end
  end;
  let s = t.free in
  t.free <- t.slots.(s).chain;
  s

let clear t =
  while t.mru <> nil do
    release t t.mru
  done

(* Length of the prefix (basic header + FN definitions) [b]
   announces, or [nil] when [b] cannot hold it. *)
let prefix_len b =
  if Bytes.length b < Header.basic_size then nil
  else
    let n = Header.basic_size + (Bytes.get_uint8 b 1 * Fn.size) in
    if n > Bytes.length b then nil else n

(* The key: the raw prefix with the hop-limit byte (which decrements
   per hop but is not part of the program) zeroed. Exact, since
   packets of one realization carry byte-identical prefixes. *)
let key_of b n =
  let k = Bytes.sub b 0 n in
  Bytes.set k 2 '\000';
  Bytes.unsafe_to_string k

(* Do [b] and [key] agree on bytes [i, n), the hop-limit byte aside?
   [n] is within both. *)
let rec agree b key i n =
  i = n
  || ((i = 2 || Bytes.unsafe_get b i = String.unsafe_get key i)
     && agree b key (i + 1) n)

let rec probe t b n h s =
  if s = nil then s
  else
    let sl = t.slots.(s) in
    if sl.hash = h && String.length sl.key = n && agree b sl.key 0 n then s
    else probe t b n h sl.chain

let view_of_entry e buf b =
  {
    Packet.header = { e.header with Header.hop_limit = Bytes.get_uint8 b 2 };
    fns = e.fns;
    loc_base = e.loc_base;
    buf;
  }

(* Only reached on a miss, so the key is new. *)
let insert t b n h (view : Packet.view) =
  let s = take_slot t in
  let sl = t.slots.(s) in
  let e =
    {
      header = { view.Packet.header with Header.hop_limit = 0 };
      header_len = Header.header_length view.Packet.header;
      fns = view.Packet.fns;
      targets = Array.map (Packet.locations_field view) view.Packet.fns;
      loc_base = view.Packet.loc_base;
      depth = -1;
      verdict = None;
    }
  in
  sl.key <- key_of b n;
  sl.hash <- h;
  sl.entry <- e;
  link_bucket t s;
  push_mru t s;
  t.size <- t.size + 1;
  e

let parse t buf =
  (* Raw storage: a [Bitbuf] accessor would cost a call per byte. *)
  let b = Bitbuf.to_bytes buf in
  let n = prefix_len b in
  if n = nil then
    (* Too short to hold its own FN definitions: always an error, and
       not a meaningful cache event. *)
    match Packet.parse buf with
    | Ok view -> Ok (view, None)
    | Error e -> Error e
  else
    let h = fingerprint b n in
    let s = probe t b n h t.buckets.(bucket_of t h) in
    if s <> nil then begin
      let e = t.slots.(s).entry in
      (* The locations region lies beyond the keyed bytes. *)
      if e.header_len > Bytes.length b then Error "header exceeds packet bounds"
      else begin
        if s <> t.mru then begin
          unlink t s;
          push_mru t s
        end;
        note_hit t;
        Ok (view_of_entry e buf b, Some e)
      end
    end
    else
      match Packet.parse buf with
      | Error _ as err -> err
      | Ok view ->
          note_miss t;
          Ok (view, Some (insert t b n h view))

let invalidate_key t key =
  let dropped = ref 0 in
  let s = ref t.mru in
  while !s <> nil do
    let next = t.slots.(!s).older in
    if Array.exists (fun fn -> Opkey.equal fn.Fn.key key) t.slots.(!s).entry.fns
    then begin
      release t !s;
      incr dropped
    end;
    s := next
  done;
  !dropped
