(* proto-mix: the FN operations and the program cache under many
   program shapes.

   DIP-32, DIP-128, NDN interest->data and NDN+OPT interest->data
   exchanges, interleaved in equal shares, at the paper's sizes
   {128, 768, 1500} B over small cache-resident tables (1k routes per
   family, 1k names). About 1% of packets leave the fast path by
   design: hop-limit expiry, and EPIC packets whose mandatory F_hvf
   this router does not install (FN-unsupported). Closed loop, one
   caller, per-packet [Engine.process] + [Engine.actions_of_verdict].

   Standalone OPT is not in the mix: it carries no forwarding FN, so a
   router drops it ("no-forwarding-decision"); NDN+OPT forwards via the
   PIT and is the OPT traffic a router really serves. *)

open Dip_core
module Bitbuf = Dip_bitbuf.Bitbuf
module Ipaddr = Dip_tables.Ipaddr
module Name = Dip_tables.Name
module Sim = Dip_netsim.Sim
module Pool = Dip_mcore.Pool
module Prng = Dip_stdext.Prng
module Protocol = Dip_opt.Protocol
module H = Harness

type cls = Dip32 | Dip128 | Ndn_interest | Ndn_data | Nopt_interest | Nopt_data | Drop_hl | Drop_unsup

(* The per-class rows of the traced run, indexed by [class_index]. *)
let class_names =
  [ "dip32"; "dip128"; "ndn_interest"; "ndn_data"; "ndnopt_interest"; "ndnopt_data"; "drop" ]

let class_index = function
  | Dip32 -> 0 | Dip128 -> 1 | Ndn_interest -> 2 | Ndn_data -> 3
  | Nopt_interest -> 4 | Nopt_data -> 5 | Drop_hl | Drop_unsup -> 6

type size = { routes : int; names : int; packets : int }

let full = { routes = 1000; names = 1000; packets = 4096 }
let small = { routes = 200; names = 200; packets = 1024 }
let ports = 8
let secret = Dip_opt.Drkey.secret_of_string "perfbench-router"
let registry = Registry.restrict (Ops.default_registry ()) (List.filter (fun k -> k <> Opkey.F_hvf) Opkey.all)

type input = {
  v4 : (Ipaddr.V4.t * int) array;
  v4_port : int array;
  v6 : (Ipaddr.V6.t * int) array;
  v6_port : int array;
  names : Name.t array;
  name_port : int array;
  pkts : Bitbuf.t array;  (** mutated in place by processing *)
  pristine : Bitbuf.t array;  (** each packet as generated *)
  hdr_len : int array;  (** bytes processing may mutate (the header) *)
  cls : cls array;
  ingress : int array;
  expect_port : int array;  (** forwarded classes: the egress port *)
  dst : int array;  (** DIP-32 destination, or -1 *)
  session : int64 array;  (** NDN+OPT data: the session id *)
}

(* Sized packet: build once empty to learn the header length, then
   with the payload that brings it to [size] bytes. *)
let sized size build =
  let hdr = Bitbuf.length (build "") in
  build (String.make (max 0 (size - hdr)) 'p')

let host_in g (a, len) =
  let host = if len >= 32 then 0 else Prng.int g (1 lsl (32 - len)) in
  Int32.logor a (Int32.of_int host)

let host6_in g ((hi, lo), len) =
  (* Randomize the low 64 bits only when the prefix leaves them free. *)
  if len <= 64 then (hi, Prng.next64 g) else (hi, lo)

let generate ~seed size =
  let g = Prng.create (Int64.add seed 11L) in
  let v4 = Dip_netsim.Workload.v4_prefixes ~seed ~count:size.routes in
  let v6 = Dip_netsim.Workload.v6_prefixes ~seed:(Int64.add seed 1L) ~count:size.routes in
  let v4_port = Array.map (fun _ -> 1 + Prng.int g ports) v4 in
  let v6_port = Array.map (fun _ -> 1 + Prng.int g ports) v6 in
  let names = Array.init size.names (fun k -> Name.of_string (Printf.sprintf "/mix/s%Ld/item%d" seed k)) in
  let name_port = Array.map (fun _ -> 1 + Prng.int g ports) names in
  (* Independent LPM oracles for the expected egress of IP packets. *)
  let t4 = Dip_tables.Lpm_trie.create () and t6 = Dip_tables.Lpm_trie.create () in
  Array.iteri (fun i (a, len) -> Dip_tables.Lpm_trie.insert t4 ~bits:(Ipaddr.V4.bit a) ~len v4_port.(i)) v4;
  Array.iteri (fun i (a, len) -> Dip_tables.Lpm_trie.insert t6 ~bits:(Ipaddr.V6.bit a) ~len v6_port.(i)) v6;
  let lpm4 d = match Dip_tables.Lpm_trie.lookup_ipv4 t4 d with Some (_, p) -> p | None -> -1 in
  let lpm6 d =
    match Dip_tables.Lpm_trie.lookup t6 ~bits:(Ipaddr.V6.bit d) ~len:128 with
    | Some (_, p) -> p
    | None -> -1
  in
  let out = ref [] in
  let emit x = out := x :: !out in
  let src4 = Ipaddr.V4.of_string "192.0.2.1" and src6 = Ipaddr.V6.of_string "2001:db8::1" in
  let pending = Hashtbl.create 64 in
  let q_ndn = Queue.create () and q_opt = Queue.create () in
  let pick_size () = List.nth Dip_netsim.Workload.paper_packet_sizes (Prng.int g 3) in
  let rec free_name () =
    let k = Prng.int g size.names in
    if Hashtbl.mem pending k then free_name () else k
  in
  let interest opt =
    let k = free_name () in
    Hashtbl.replace pending k ();
    let name = names.(k) in
    let pkt =
      if opt then sized (pick_size ()) (fun p -> Realize.ndn_opt_interest ~name ~payload:p ())
      else sized (pick_size ()) (fun p -> Realize.ndn_interest ~name ~payload:p ())
    in
    if opt then Queue.push (k, Prng.next64 g) q_opt else Queue.push (k, 0L) q_ndn;
    emit ((if opt then Nopt_interest else Ndn_interest), pkt, 0, name_port.(k), -1, 0L)
  in
  let data opt =
    let k, sid = Queue.pop (if opt then q_opt else q_ndn) in
    Hashtbl.remove pending k;
    let name = names.(k) in
    let pkt =
      if opt then
        sized (pick_size ()) (fun c ->
            Realize.ndn_opt_data ~hops:1 ~session_id:sid ~timestamp:(Int32.of_int k)
              ~dest_key:(String.make 16 'd') ~name ~content:c ())
      else sized (pick_size ()) (fun c -> Realize.ndn_data ~name ~content:c ())
    in
    emit ((if opt then Nopt_data else Ndn_data), pkt, name_port.(k), 0, -1, sid)
  in
  let dip32 ?hop_limit cls =
    let d = host_in g v4.(Prng.int g (Array.length v4)) in
    let pkt = sized (pick_size ()) (fun p -> Realize.ipv4 ?hop_limit ~src:src4 ~dst:d ~payload:p ()) in
    emit (cls, pkt, 0, lpm4 d, (if cls = Dip32 then Int32.to_int d land 0xFFFF_FFFF else -1), 0L)
  in
  let dip128 () =
    let d = host6_in g v6.(Prng.int g (Array.length v6)) in
    let pkt = sized (pick_size ()) (fun p -> Realize.ipv6 ~src:src6 ~dst:d ~payload:p ()) in
    emit (Dip128, pkt, 0, lpm6 d, -1, 0L)
  in
  let epic () =
    let d = host_in g v4.(Prng.int g (Array.length v4)) in
    let pkt =
      sized (pick_size ()) (fun p ->
          Realize.epic ~hops:1 ~src_id:7l ~timestamp:1l ~hop_keys:[ String.make 16 'k' ]
            ~src:src4 ~dst:d ~payload:p ())
    in
    emit (Drop_unsup, pkt, 0, -1, -1, 0L)
  in
  (* Every batch-sized block holds the same class counts in a seeded
     order (so the batch-time tail reflects the engine, not which
     batch drew the most OPT packets), and each exchange completes
     inside its block: a data packet follows its interest. Each of the
     four forwarding DIP series of Figure 2 (DIP-32, DIP-128, NDN,
     NDN+OPT) gets an equal 64 packets of the 256; the three that
     leave the fast path carry IPv4 addresses and come out of the
     DIP-32 share. *)
  let block =
    List.concat_map
      (fun (c, k) -> List.init k (fun _ -> c))
      [ (Dip32, 61); (Drop_hl, 1); (Drop_unsup, 2); (Dip128, 64); (Ndn_interest, 32);
        (Ndn_data, 32); (Nopt_interest, 32); (Nopt_data, 32) ]
    |> Array.of_list
  in
  assert (Array.length block = H.batch_size);
  for _ = 1 to size.packets / H.batch_size do
    let slots = Array.copy block in
    Prng.shuffle g slots;
    let opened = Hashtbl.create 4 in
    let opening = function Ndn_data -> Ndn_interest | Nopt_data -> Nopt_interest | c -> c in
    Array.iteri
      (fun i c ->
        match c with
        | Ndn_data | Nopt_data when Hashtbl.find_opt opened (opening c) |> Option.value ~default:0 = 0 ->
            (* No open interest yet: swap in the next interest of the kind. *)
            let j = ref (i + 1) in
            while slots.(!j) <> opening c do incr j done;
            slots.(!j) <- c;
            slots.(i) <- opening c;
            Hashtbl.replace opened (opening c) 1
        | Ndn_interest | Nopt_interest ->
            Hashtbl.replace opened c (1 + Option.value ~default:0 (Hashtbl.find_opt opened c))
        | Ndn_data | Nopt_data ->
            Hashtbl.replace opened (opening c) (Hashtbl.find opened (opening c) - 1)
        | Dip32 | Dip128 | Drop_hl | Drop_unsup -> ())
      slots;
    Array.iter
      (function
        | Dip32 -> dip32 Dip32
        | Dip128 -> dip128 ()
        | Ndn_interest -> interest false
        | Ndn_data -> data false
        | Nopt_interest -> interest true
        | Nopt_data -> data true
        | Drop_hl -> dip32 ~hop_limit:1 Drop_hl
        | Drop_unsup -> epic ())
      slots
  done;
  let a = Array.of_list (List.rev !out) in
  let hdr_len pkt = match Packet.header_size pkt with Ok h -> h | Error e -> failwith e in
  {
    v4; v4_port; v6; v6_port; names; name_port;
    pkts = Array.map (fun (_, p, _, _, _, _) -> p) a;
    pristine = Array.map (fun (_, p, _, _, _, _) -> Bitbuf.copy p) a;
    hdr_len = Array.map (fun (_, p, _, _, _, _) -> hdr_len p) a;
    cls = Array.map (fun (c, _, _, _, _, _) -> c) a;
    ingress = Array.map (fun (_, _, i, _, _, _) -> i) a;
    expect_port = Array.map (fun (_, _, _, p, _, _) -> p) a;
    dst = Array.map (fun (_, _, _, _, d, _) -> d) a;
    session = Array.map (fun (_, _, _, _, _, s) -> s) a;
  }

let workload_digest input =
  H.digest (fun b ->
      Array.iteri
        (fun i p ->
          Buffer.add_string b (Bitbuf.to_string p);
          H.add_int b (class_index input.cls.(i));
          H.add_int b input.ingress.(i);
          H.add_int b input.expect_port.(i))
        input.pristine)

type router = { env : Env.t; pool : Pool.t }

let build input =
  let env = Env.create ~name:"r" () in
  Env.set_opt_identity env ~secret ~hop:1;
  Array.iteri (fun i (a, len) -> Dip_tables.Fib.V4.insert env.Env.v4_routes a ~len input.v4_port.(i)) input.v4;
  Array.iteri (fun i (a, len) -> Dip_tables.Fib.V6.insert env.Env.v6_routes a ~len input.v6_port.(i)) input.v6;
  Array.iteri (fun i nm -> Dip_tables.Name_fib.insert env.Env.fib nm input.name_port.(i)) input.names;
  let snap = Dip_mcore.Snapshot.v ~registry ~mk_env:(fun _ -> env) () in
  { env; pool = Pool.create ~domains:1 snap }

let prep input i =
  let p = input.pkts.(i) in
  Bitbuf.blit ~src:input.pristine.(i) ~src_off:0 ~dst:p ~dst_off:0 ~len:input.hdr_len.(i);
  p

(* The verdict and actions the generator expects for packet [i]; with
   [corrupt] the oracle is deliberately wrong. *)
let check ~corrupt r input i verdict actions =
  let pkt = input.pkts.(i) in
  let want = input.expect_port.(i) + if corrupt then 1 else 0 in
  let ok =
    match (input.cls.(i), verdict, actions) with
    | (Dip32 | Dip128 | Ndn_interest | Ndn_data | Nopt_interest | Nopt_data),
      Engine.Forwarded [ p ], [ Sim.Forward (p', b) ] ->
        p = want && p' = want && b == pkt
    | Drop_hl, Engine.Dropped "hop-limit-expired", [ Sim.Drop "hop-limit-expired" ] ->
        not corrupt
    | Drop_unsup, Engine.Unsupported Opkey.F_hvf, [ Sim.Forward (p, _); Sim.Drop _ ] ->
        p = input.ingress.(i) && not corrupt
    | _ -> false
  in
  if not ok then H.fail r "packet %d: verdict differs from the generator's class" i

(* The bytes packet [i] must leave with: the original with the hop
   limit decremented and, for NDN+OPT data, this router's OPV and PVF
   folded in by Dip_opt.Protocol applied to a copy. *)
let expected_bytes input i =
  let e = Bitbuf.copy input.pristine.(i) in
  (match input.cls.(i) with
  | Drop_hl | Drop_unsup -> ()
  | Dip32 | Dip128 | Ndn_interest | Ndn_data | Nopt_interest | Nopt_data ->
      Bitbuf.set_uint8 e 2 (Bitbuf.get_uint8 e 2 - 1));
  (if input.cls.(i) = Nopt_data then
     match Packet.parse e with
     | Ok v ->
         let key = Dip_opt.Drkey.derive secret ~session_id:input.session.(i) in
         Protocol.mac_update e ~base:v.Packet.loc_base ~hop:1 ~key;
         Protocol.mark_update e ~base:v.Packet.loc_base ~key
     | Error _ -> ());
  e

let bad_bytes input i = not (Bitbuf.equal input.pkts.(i) (expected_bytes input i))

let verdict_code = function
  | Engine.Forwarded ports -> 1000 + List.fold_left (fun a p -> (a * 31) + p) 0 ports
  | Engine.Delivered -> 1
  | Engine.Responded _ -> 2
  | Engine.Quiet -> 3
  | Engine.Dropped _ -> 4
  | Engine.Unsupported k -> 100 + Opkey.to_int k

(* One untimed pass with the full byte check of every output; returns
   the digest of every verdict and output packet. *)
let verify_pass ~corrupt r input router =
  let d =
    H.digest (fun b ->
        for i = 0 to Array.length input.pkts - 1 do
          let pkt = prep input i in
          let ingress = input.ingress.(i) in
          let v, _ = Engine.process ~registry router.env ~now:0.0 ~ingress pkt in
          let acts = Engine.actions_of_verdict router.env ~ingress pkt v in
          check ~corrupt r input i v acts;
          if bad_bytes input i then H.fail r "packet %d: output bytes differ from the oracle" i;
          H.add_int b (verdict_code v);
          Buffer.add_string b (Bitbuf.to_string pkt)
        done)
  in
  if Dip_tables.Pit.size router.env.Env.pit <> 0 then
    H.fail r "PIT not empty after a pass (%d entries)" (Dip_tables.Pit.size router.env.Env.pit);
  d

let e2e ~corrupt r ~seconds input router =
  let n = Array.length input.pkts in
  let verdicts = Array.make H.batch_size Engine.Quiet in
  let acts = Array.make H.batch_size [] in
  let batch_ns = H.Vec.create () in
  let words = ref 0.0 and words_pkts = ref 0 in
  let run_batch ~timed first =
    for k = 0 to H.batch_size - 1 do
      ignore (prep input (first + k))
    done;
    let w0 = H.words () in
    let t0 = H.now_ns () in
    for k = 0 to H.batch_size - 1 do
      let i = first + k in
      let pkt = input.pkts.(i) and ingress = input.ingress.(i) in
      let v, _ = Engine.process ~registry router.env ~now:0.0 ~ingress pkt in
      verdicts.(k) <- v;
      acts.(k) <- Engine.actions_of_verdict router.env ~ingress pkt v
    done;
    let t1 = H.now_ns () in
    let w1 = H.words () in
    for k = 0 to H.batch_size - 1 do
      check ~corrupt r input (first + k) verdicts.(k) acts.(k)
    done;
    if timed then begin
      r.H.attempted <- r.H.attempted + H.batch_size;
      H.Vec.push batch_ns (float_of_int (t1 - t0));
      if !words_pkts < n then begin
        words := !words +. (w1 -. w0);
        words_pkts := !words_pkts + H.batch_size
      end
    end
  in
  let pass ~timed =
    let b = ref 0 in
    while !b < n do
      run_batch ~timed !b;
      b := !b + H.batch_size
    done
  in
  let digest = verify_pass ~corrupt r input router in
  pass ~timed:false;
  pass ~timed:false;
  let t_end = H.now_ns () + int_of_float (seconds *. 1e9) in
  while H.now_ns () < t_end do
    pass ~timed:true
  done;
  ignore (verify_pass ~corrupt r input router);
  ((batch_ns, !words /. float_of_int (max 1 !words_pkts)), digest)

(* --- the traced run ---------------------------------------------- *)

(* Per-class engine cost: every packet timed on its own, the clock's
   own cost subtracted; and each class's share of a pass's engine
   time. *)
let class_costs r ~slice_ns input router =
  let n = Array.length input.pkts in
  let nc = List.length class_names in
  let clock_ns =
    let a = Array.init 10_001 (fun _ -> let t0 = H.now_ns () in float_of_int (H.now_ns () - t0)) in
    H.median a
  in
  let count = Array.make nc 0 in
  Array.iter (fun c -> let k = class_index c in count.(k) <- count.(k) + 1) input.cls;
  let ns = Array.make nc 0.0 and words = Array.make nc 0.0 in
  let pass acc_words =
    Array.fill ns 0 nc 0.0;
    for i = 0 to n - 1 do
      let pkt = prep input i in
      let ingress = input.ingress.(i) in
      let w0 = H.words () in
      let t0 = H.now_ns () in
      ignore (Sys.opaque_identity (Engine.process ~registry router.env ~now:0.0 ~ingress pkt));
      let t1 = H.now_ns () in
      let w1 = H.words () in
      let k = class_index input.cls.(i) in
      ns.(k) <- ns.(k) +. float_of_int (t1 - t0) -. clock_ns;
      if acc_words then words.(k) <- words.(k) +. (w1 -. w0)
    done;
    Array.copy ns
  in
  ignore (pass false);
  let samples = ref [] in
  let t_start = H.now_ns () in
  let first = ref true in
  while List.length !samples < 2 || H.now_ns () - t_start < slice_ns do
    samples := pass !first :: !samples;
    first := false
  done;
  let med =
    Array.init nc (fun k ->
        H.median (Array.of_list (List.map (fun s -> s.(k) /. float_of_int (max 1 count.(k))) !samples)))
  in
  let total = ref 0.0 in
  Array.iteri (fun k x -> total := !total +. (x *. float_of_int count.(k))) med;
  List.iteri
    (fun k name ->
      H.row r ("engine." ^ name ^ "_ns") "ns" med.(k);
      H.row r ("engine." ^ name ^ "_words") "words" (words.(k) /. float_of_int (max 1 count.(k)));
      H.row r ("engine." ^ name ^ "_share") "fraction" (med.(k) *. float_of_int count.(k) /. !total))
    class_names

(* Protocol.mac on the F_MAC input of every NDN+OPT data packet. *)
let mac_cost r ~slice_ns input =
  let jobs =
    List.filter_map
      (fun i ->
        if input.cls.(i) <> Nopt_data then None
        else
          match Packet.parse input.pristine.(i) with
          | Ok v ->
              Some
                ( Dip_opt.Drkey.derive secret ~session_id:input.session.(i),
                  Bitbuf.sub_string input.pristine.(i) ~pos:v.Packet.loc_base ~len:52 )
          | Error _ -> None)
      (List.init (Array.length input.pkts) Fun.id)
    |> Array.of_list
  in
  let k = float_of_int (max 1 (Array.length jobs)) in
  let pass () = Array.iter (fun (key, m) -> ignore (Sys.opaque_identity (Protocol.mac ~key m))) jobs in
  pass ();
  let w0 = H.words () in
  pass ();
  let words = (H.words () -. w0) /. k in
  let times = H.Vec.create () in
  let t_start = H.now_ns () in
  while H.Vec.length times < 2 || H.now_ns () - t_start < slice_ns do
    let t0 = H.now_ns () in
    pass ();
    H.Vec.push times (float_of_int (H.now_ns () - t0) /. k)
  done;
  H.row r "opt.mac_ns" "ns" (H.median (H.Vec.to_array times));
  H.row r "opt.mac_words" "words" words

let ladder ~corrupt r ~spans ~slice_ns input router =
  let n = Array.length input.pkts in
  let items =
    {
      Ladder.n;
      env = (fun _ -> router.env);
      ingress = (fun i -> input.ingress.(i));
      prep = prep input;
      dst = (fun i -> input.dst.(i));
      batches = Array.init (n / H.batch_size) (fun b -> (b * H.batch_size, H.batch_size));
      registry;
      pool = (fun _ -> router.pool);
      envs = [| router.env |];
    }
  in
  let rings = List.map (fun s -> (s, Native.ring ~size:s)) Dip_netsim.Workload.paper_packet_sizes in
  let native =
    {
      Ladder.nprep =
        (fun i ->
          let ring = List.assoc (Bitbuf.length input.pkts.(i)) rings in
          Native.fill (Native.slot ring i) input.dst.(i));
      forward = (fun _ pkt -> Dip_ip.Ipv4.forward router.env.Env.v4_routes pkt);
    }
  in
  let e2e ~seconds =
    let (batch_ns, _), _ = e2e ~corrupt r ~seconds input router in
    (H.Vec.to_array batch_ns, n / H.batch_size)
  in
  let sim =
    Ladder.router_sim ~registry router.env ~ports ~ingress:items.Ladder.ingress
      ~prep:items.Ladder.prep n
  in
  Ladder.run ~spans ~slice_ns ~top:Ladder.Actions_top ~e2e items sim native r
