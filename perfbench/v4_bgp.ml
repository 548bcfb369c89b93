(* v4-bgp-1m: the router's forwarding hot path at FIB scale.

   Smallest (64 B) DIP-32 packets over a BGP-shaped million-route FIB,
   driven by Zipf x Pareto heavy-tail traffic over about a million
   flows. One caller, closed loop: batches of 256 through
   [Pool.handle_batch] on a 1-domain pool. The lookup structure is far
   larger than the CPU caches and every packet runs one program, so
   FIB, dispatch and pool hand-off dominate. *)

open Dip_core
module Bitbuf = Dip_bitbuf.Bitbuf
module Fib = Dip_tables.Fib
module Ipaddr = Dip_tables.Ipaddr
module Pool = Dip_mcore.Pool
module Sim = Dip_netsim.Sim
module Prng = Dip_stdext.Prng
module H = Harness

type size = { routes : int; flows : int; packets : int }

let full = { routes = 1_000_000; flows = 1_000_000; packets = 1_048_576 }
let small = { routes = 20_000; flows = 20_000; packets = 65_536 }

(* The ladder runs the whole stream (a prefix of it has a smaller
   working set and so a faster FIB); the simulator stage, the slowest,
   only its first [sim_items] packets. *)
let sim_items = 262_144
let egress_ports = 16
let substreams = 16
let wire_size = 64
let registry = Ops.default_registry ()

type input = {
  prefixes : (Ipaddr.V4.t * int) array;
  ports : int array;  (** egress port of each prefix, 1..egress_ports *)
  stream : int array;  (** destination of each packet *)
}

let generate ~seed size =
  let prefixes = Dip_netsim.Workload.v4_prefixes ~seed ~count:size.routes in
  let g = Prng.create (Int64.add seed 1L) in
  let ports =
    Array.map (fun _ -> Prng.zipf g ~n:egress_ports ~s:1.1) prefixes
  in
  (* The stream interleaves [substreams] independent heavy-tail draws:
     one draw's few largest flows carry a seed-dependent share of all
     packets (Pareto 1.2 has no finite variance), which would make the
     FIB's cache behaviour, and so the rate, swing from seed to seed. *)
  let per = size.packets / substreams in
  let stream = Array.make size.packets 0 in
  for k = 0 to substreams - 1 do
    let traffic =
      Dip_netsim.Workload.v4_traffic
        ~seed:(Int64.add seed (Int64.of_int (100 + k)))
        ~prefixes ~flows:(size.flows / substreams) ~packets:per ~skew:1.05
    in
    Array.iteri (fun j a -> stream.((k * per) + j) <- Int32.to_int a land 0xFFFF_FFFF) traffic
  done;
  Prng.shuffle g stream;
  { prefixes; ports; stream }

let workload_digest input =
  H.digest (fun b ->
      Array.iteri
        (fun i (a, len) ->
          H.add_int b (Int32.to_int a);
          H.add_int b len;
          H.add_int b input.ports.(i))
        input.prefixes;
      Array.iter (H.add_int b) input.stream)

type router = { env : Env.t; pool : Pool.t }

let build input =
  let env = Env.create ~name:"r" () in
  Array.iteri
    (fun i (a, len) -> Fib.V4.insert env.Env.v4_routes a ~len input.ports.(i))
    input.prefixes;
  let snap = Dip_mcore.Snapshot.v ~registry ~mk_env:(fun _ -> env) () in
  { env; pool = Pool.create ~domains:1 snap }

(* A DIP-32 packet of [size] wire bytes (at least its header). *)
let dip32 ?(src = Ipaddr.V4.of_string "192.0.2.1") ~dst ~size () =
  let header = Bitbuf.length (Realize.ipv4 ~src ~dst ~payload:"" ()) in
  Realize.ipv4 ~src ~dst ~payload:(String.make (max 0 (size - header)) 'x') ()

(* Byte offset of the destination address in a DIP-32 packet: where two
   packets that differ only in destination differ. *)
let dst_offset =
  let a = dip32 ~dst:0l ~size:0 () and b = dip32 ~dst:(-1l) ~size:0 () in
  let rec find i = if Bitbuf.get_uint8 a i <> Bitbuf.get_uint8 b i then i else find (i + 1) in
  find 0

(* A ring of batch_size wire buffers, refilled with the next batch's
   destinations before each dispatch, as a NIC ring would be. *)
let ring () = Array.init H.batch_size (fun _ -> dip32 ~dst:0l ~size:wire_size ())

let fill ring stream i =
  let b = ring.(i land (H.batch_size - 1)) in
  Bitbuf.set_uint32 b dst_offset (Int32.of_int stream.(i));
  Bitbuf.set_uint8 b 2 64;
  b

(* The Lpm_trie oracle, built from the same prefixes after timing. *)
let check_egress ~corrupt r input egress =
  let trie = Dip_tables.Lpm_trie.create () in
  Array.iteri
    (fun i (a, len) ->
      Dip_tables.Lpm_trie.insert trie ~bits:(Ipaddr.V4.bit a) ~len input.ports.(i))
    input.prefixes;
  let checked = ref 0 in
  Array.iteri
    (fun pos d ->
      if egress.(pos) >= 0 then begin
        incr checked;
        match Dip_tables.Lpm_trie.lookup_ipv4 trie (Int32.of_int d) with
        | Some (_, p) ->
            let want = p + if corrupt then 1 else 0 in
            if want <> egress.(pos) then
              H.fail r "packet %d to %s left on port %d, oracle says %d" pos
                (Ipaddr.V4.to_string (Int32.of_int d)) egress.(pos) want
        | None -> H.fail r "packet %d: oracle has no route" pos
      end)
    input.stream;
  !checked

let batches n = Array.init (n / H.batch_size) (fun b -> (b * H.batch_size, H.batch_size))

(* Closed loop over the stream in batches of 256. [egress] holds the
   port each stream position left on; a later pass that disagrees with
   the first is a failure. *)
let e2e r ~seconds ~warm_passes ~alloc_pkts input router =
  let stream = input.stream in
  let n = Array.length stream in
  let ring = ring () in
  let egress = Array.make n (-1) in
  let batch_ns = H.Vec.create () in
  let words = ref 0.0 and words_pkts = ref 0 in
  let run_batch ~timed pos =
    for k = 0 to H.batch_size - 1 do
      ignore (fill ring stream (pos + k))
    done;
    let w0 = H.words () in
    let t0 = H.now_ns () in
    let batch =
      Array.init H.batch_size (fun k -> { Pool.now = 0.0; ingress = 0; pkt = ring.(k) })
    in
    let acts = Pool.handle_batch router.pool batch in
    let t1 = H.now_ns () in
    let w1 = H.words () in
    Array.iteri
      (fun k a ->
        let p = pos + k in
        match a with
        | [ Sim.Forward (port, _) ] ->
            if egress.(p) < 0 then egress.(p) <- port
            else if egress.(p) <> port then
              H.fail r "packet %d left on port %d, earlier on %d" p port egress.(p)
        | _ -> H.fail r "packet %d was not forwarded on one port" p)
      acts;
    if timed then begin
      r.H.attempted <- r.H.attempted + H.batch_size;
      H.Vec.push batch_ns (float_of_int (t1 - t0));
      if !words_pkts < alloc_pkts then begin
        words := !words +. (w1 -. w0);
        words_pkts := !words_pkts + H.batch_size
      end;
    end
  in
  for _ = 1 to warm_passes do
    let pos = ref 0 in
    while !pos < n do
      run_batch ~timed:false !pos;
      pos := !pos + H.batch_size
    done
  done;
  let t_end = H.now_ns () + int_of_float (seconds *. 1e9) in
  let pos = ref 0 in
  while H.now_ns () < t_end || !words_pkts < alloc_pkts do
    run_batch ~timed:true !pos;
    pos := (!pos + H.batch_size) mod n
  done;
  ((batch_ns, !words /. float_of_int (max 1 !words_pkts)), egress)

let ladder r ~spans ~slice_ns input router =
  let nitems = Array.length input.stream in
  let ring = ring () in
  let stream = input.stream in
  let items =
    {
      Ladder.n = nitems;
      env = (fun _ -> router.env);
      ingress = (fun _ -> 0);
      prep = fill ring stream;
      dst = (fun i -> stream.(i));
      batches = batches nitems;
      registry;
      pool = (fun _ -> router.pool);
      envs = [| router.env |];
    }
  in
  let native_ring = Native.ring ~size:wire_size in
  let native =
    {
      Ladder.nprep = (fun i -> Native.fill (Native.slot native_ring i) stream.(i));
      forward = (fun _ pkt -> Dip_ip.Ipv4.forward router.env.Env.v4_routes pkt);
    }
  in
  let e2e ~seconds =
    let (batch_ns, _), _ = e2e r ~seconds ~warm_passes:0 ~alloc_pkts:0 input router in
    (H.Vec.to_array batch_ns, nitems / H.batch_size)
  in
  let sim =
    Ladder.router_sim ~registry router.env ~ports:egress_ports ~ingress:items.Ladder.ingress
      ~prep:items.Ladder.prep (min nitems sim_items)
  in
  Ladder.run ~spans ~slice_ns ~top:Ladder.Pool_top ~e2e items sim native r
