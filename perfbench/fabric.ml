(* fabric-sim: the simulator event loop at topology scale.

   A k=8 fat tree (80 DIP-32 switches running Engine.handler, 128
   hosts) under Sim.run. Packets of Pareto-sized flows between random
   host pairs arrive as a seeded Poisson process in simulated time
   (open loop in simulated time, run as fast as possible in wall time)
   and cross 1, 3 or 5 switches. The Sim loop, its event queue and
   its per-node string counters dominate; an engine change shows here
   diluted, a Sim change shows here alone. *)

open Dip_core
module Bitbuf = Dip_bitbuf.Bitbuf
module Sim = Dip_netsim.Sim
module Topology = Dip_netsim.Topology
module Pool = Dip_mcore.Pool
module Prng = Dip_stdext.Prng
module H = Harness

type size = { k : int; packets : int }

let full = { k = 8; packets = 4096 }
let small = { k = 4; packets = 1024 }
let wire_size = 128
let rate = 1e6 (* packets per simulated second *)
let registry = Ops.default_registry ()
let addr h = 0x0A00_0000 lor h

type input = {
  topo : Topology.t;
  is_host : bool array;
  pkts : Bitbuf.t array;  (** packet [i] carries [i] in its first payload bytes *)
  dst : int array;  (** destination host node *)
  at : float array;  (** arrival time, non-decreasing *)
  edge : int array;  (** the edge switch packet [i] enters at *)
  edge_port : int array;  (** that switch's port toward the source host *)
}

let payload_off = Bitbuf.length (V4_bgp.dip32 ~dst:0l ~size:0 ())

let generate ~seed size =
  let topo = Topology.fat_tree size.k in
  let nodes = topo.Topology.node_count in
  let is_host = Array.init nodes (fun v -> List.length (Topology.neighbors topo v) = 1) in
  let hosts = Array.of_list (List.filter (fun v -> is_host.(v)) (List.init nodes Fun.id)) in
  let g = Prng.create (Int64.add seed 21L) in
  (* Switches crossed from host [s] to host [d]: 1, 3 or 5. *)
  let switch_hops =
    Array.map
      (fun s ->
        let pred = Topology.shortest_paths topo ~src:s in
        let rec len v acc = if v = s then acc else len pred.(v) (acc + 1) in
        Array.map (fun d -> len d 0 - 1) hosts)
      hosts
  in
  (* Pareto(1.2) flow sizes, capped so one elephant cannot be the
     whole stream. *)
  let sizes = ref [] and count = ref 0 in
  while !count < size.packets do
    let u = 1.0 -. Prng.float g 1.0 in
    let len = min (size.packets - !count) (min 256 (int_of_float (u ** (-1.0 /. 1.2)))) in
    sizes := len :: !sizes;
    count := !count + len
  done;
  (* Each path length gets the share of packets it has among all host
     pairs, to within a packet or two whatever the seed: a flow's
     length is the one furthest below its share, largest flows first,
     so the small ones even out the rest. With a free draw, a few
     elephants would set the hop mix, and with it the work per packet,
     seed by seed. Hosts are then drawn at random at that length. *)
  let nh = Array.length hosts in
  let pairs = Array.concat (Array.to_list switch_hops) in
  let share =
    List.sort_uniq compare (List.filter (fun h -> h > 0) (Array.to_list pairs))
    |> List.map (fun l ->
           let c = Array.fold_left (fun c h -> if h = l then c + 1 else c) 0 pairs in
           (l, float_of_int c /. float_of_int (nh * (nh - 1))))
  in
  let got = Hashtbl.create 4 and total = ref 0 in
  let got_of l = Option.value ~default:0 (Hashtbl.find_opt got l) in
  let order = ref [] in
  List.iter
    (fun len ->
      let deficit (l, p) = (p *. float_of_int (!total + len)) -. float_of_int (got_of l) in
      let l, _ =
        List.fold_left
          (fun (bl, bd) x -> let d = deficit x in if d > bd then (fst x, d) else (bl, bd))
          (0, Float.neg_infinity) share
      in
      Hashtbl.replace got l (got_of l + len);
      total := !total + len;
      let si = Prng.int g nh in
      let rec other () = let di = Prng.int g nh in if switch_hops.(si).(di) = l then di else other () in
      let di = other () in
      for _ = 1 to len do
        order := (hosts.(si), hosts.(di)) :: !order
      done)
    (List.stable_sort (fun a b -> compare b a) !sizes);
  (* Flows interleave by a seeded shuffle. *)
  let flows = Array.of_list !order in
  Prng.shuffle g flows;
  let arrivals =
    Array.of_list
      (Dip_netsim.Workload.poisson_arrivals ~seed:(Int64.add seed 22L) ~rate ~count:size.packets)
  in
  let pkts =
    Array.mapi
      (fun i (s, d) ->
        let p =
          V4_bgp.dip32 ~src:(Int32.of_int (addr s)) ~dst:(Int32.of_int (addr d))
            ~size:wire_size ()
        in
        Bitbuf.set_uint32 p payload_off (Int32.of_int i);
        p)
      flows
  in
  let attach h =
    match Topology.neighbors topo h with
    | [ e ] -> (e, Topology.port_of topo e h)
    | _ -> invalid_arg "fabric: host with several links"
  in
  let edges = Array.map (fun (s, _) -> attach s) flows in
  {
    topo; is_host; pkts;
    edge = Array.map fst edges;
    edge_port = Array.map snd edges;
    dst = Array.map snd flows;
    at = Array.map (fun a -> a.Dip_netsim.Workload.time) arrivals;
  }

let workload_digest input =
  H.digest (fun b ->
      Array.iteri
        (fun i p ->
          Buffer.add_string b (Dip_bitbuf.Bitbuf.to_string p);
          H.add_int b input.edge.(i);
          H.add_int b input.dst.(i);
          Buffer.add_string b (Printf.sprintf "%h," input.at.(i)))
        input.pkts)

type fabric = { envs : Env.t option array; pools : Pool.t option array }

(* Every switch routes each host's /32 along a BFS shortest path: one
   BFS from each host gives every switch its next hop toward it. *)
let build input =
  let topo = input.topo in
  let nodes = topo.Topology.node_count in
  let envs =
    Array.init nodes (fun v ->
        if input.is_host.(v) then None
        else Some (Env.create ~name:(Printf.sprintf "s%d" v) ()))
  in
  for h = 0 to nodes - 1 do
    if input.is_host.(h) then begin
      let toward = Topology.shortest_paths topo ~src:h in
      Array.iteri
        (fun v env ->
          match env with
          | Some env when toward.(v) >= 0 ->
              Dip_tables.Fib.V4.insert env.Env.v4_routes (Int32.of_int (addr h)) ~len:32
                (Topology.port_of topo v toward.(v))
          | Some _ | None -> ())
        envs
    end
  done;
  let pools =
    Array.map
      (Option.map (fun env ->
           Pool.create ~domains:1 (Dip_mcore.Snapshot.v ~registry ~mk_env:(fun _ -> env) ())))
      envs
  in
  { envs; pools }

let env_of f v = match f.envs.(v) with Some e -> e | None -> invalid_arg "not a switch"

(* One simulation of the whole stream on a fresh Sim, in windows of
   256 arrivals: inject the window, run until the next window's first
   arrival (the last window runs until the fabric drains). Returns the
   wall time of each window, the allocation of the whole pass and a
   digest of where each packet was consumed and of every Sim counter.
   The oracle: every packet is consumed exactly once, at its
   destination, and no drop counter exists. *)
let pass ?spans ?(parent = -1) ?log ~corrupt r input f ~delivered =
  Array.iter (fun p -> Bitbuf.set_uint8 p 2 64) input.pkts;
  Array.fill delivered 0 (Array.length delivered) 0;
  let consumed_at = Array.make (Array.length delivered) (-1) in
  let sim = Sim.create () in
  let id_of p = Int32.to_int (Bitbuf.get_uint32 p payload_off) in
  let handler v =
    if input.is_host.(v) then fun _ ~now:_ ~ingress:_ p ->
      let i = id_of p in
      if i < 0 || i >= Array.length delivered then H.fail r "host %d got a foreign packet" v
      else begin
        delivered.(i) <- delivered.(i) + 1;
        consumed_at.(i) <- v;
        let want = input.dst.(i) + if corrupt then 1 else 0 in
        if v <> want then H.fail r "packet %d consumed at node %d, oracle says %d" i v want
      end;
      [ Sim.Consume ]
    else
      let h = Engine.handler ~registry (env_of f v) in
      match log with
      | None -> h
      | Some log ->
          fun sim ~now ~ingress p ->
            log := (v, ingress, id_of p, Bitbuf.get_uint8 p 2) :: !log;
            h sim ~now ~ingress p
  in
  let ids = Topology.instantiate input.topo sim ~name:(Printf.sprintf "n%d") ~handler in
  let n = Array.length input.pkts in
  let windows = (n + H.batch_size - 1) / H.batch_size in
  let times = Array.make windows 0.0 in
  let words = ref 0.0 in
  let wname = match spans with Some s -> H.Spans.name s "sim.window" | None -> 0 in
  let rname = match spans with Some s -> H.Spans.name s "sim.run" | None -> 0 in
  for w = 0 to windows - 1 do
    let first = w * H.batch_size in
    let last = min n (first + H.batch_size) - 1 in
    let wid = match spans with Some s -> H.Spans.enter s ~name:wname ~parent ~batch:w | None -> -1 in
    let w0 = H.words () in
    let t0 = H.now_ns () in
    for i = first to last do
      Sim.inject sim ~at:input.at.(i) ~node:ids.(input.edge.(i)) ~port:input.edge_port.(i)
        input.pkts.(i)
    done;
    let rid = match spans with Some s -> H.Spans.enter s ~name:rname ~parent:wid ~batch:w | None -> -1 in
    if last + 1 < n then Sim.run ~until:input.at.(last + 1) sim else Sim.run sim;
    (match spans with Some s -> H.Spans.leave s rid; H.Spans.leave s wid | None -> ());
    let t1 = H.now_ns () in
    words := !words +. (H.words () -. w0);
    times.(w) <- float_of_int (t1 - t0)
  done;
  Array.iteri
    (fun i c -> if c <> 1 then H.fail r "packet %d consumed %d times" i c)
    delivered;
  let counters = Dip_netsim.Stats.Counters.to_list (Sim.counters sim) in
  List.iter
    (fun (key, c) ->
      let rec has_drop j =
        j + 6 <= String.length key && (String.sub key j 6 = ".drop." || has_drop (j + 1))
      in
      if c > 0 && has_drop 0 then H.fail r "drop counter %s = %d" key c)
    counters;
  let digest =
    H.digest (fun b ->
        Array.iter (H.add_int b) consumed_at;
        List.iter (fun (k, c) -> Buffer.add_string b k; H.add_int b c) counters)
  in
  (times, !words, digest)

let e2e ~corrupt r ~seconds input f =
  let n = Array.length input.pkts in
  let delivered = Array.make n 0 in
  let batch_ns = H.Vec.create () in
  let _, _, digest = pass ~corrupt r input f ~delivered in
  ignore (pass ~corrupt r input f ~delivered);
  let alloc = ref Float.nan in
  let t_end = H.now_ns () + int_of_float (seconds *. 1e9) in
  while H.now_ns () < t_end do
    let times, words, _ = pass ~corrupt r input f ~delivered in
    r.H.attempted <- r.H.attempted + n;
    if Float.is_nan !alloc then alloc := words /. float_of_int n;
    Array.iter (H.Vec.push batch_ns) times
  done;
  ((batch_ns, !alloc), digest)

(* The ladder replays the switch hops of one simulation, grouped by
   switch so each batch shares a router. *)
let ladder ~corrupt r ~spans ~slice_ns input f =
  let n = Array.length input.pkts in
  let delivered = Array.make n 0 in
  let log = ref [] in
  ignore (pass ~log ~corrupt r input f ~delivered);
  r.H.attempted <- r.H.attempted + n;
  (* (switch, ingress, packet, hop limit on arrival) per hop *)
  let hop =
    Array.of_list (List.stable_sort (fun (a, _, _, _) (b, _, _, _) -> compare a b) (List.rev !log))
  in
  let m = Array.length hop in
  let sw i = let s, _, _, _ = hop.(i) in s and pkt i = let _, _, p, _ = hop.(i) in p in
  let batches =
    let acc = ref [] and first = ref 0 in
    for i = 1 to m do
      if i = m || sw i <> sw !first || i - !first = H.batch_size then begin
        acc := (!first, i - !first) :: !acc;
        first := i
      end
    done;
    Array.of_list (List.rev !acc)
  in
  let items =
    {
      Ladder.n = m;
      env = (fun i -> env_of f (sw i));
      ingress = (fun i -> let _, ing, _, _ = hop.(i) in ing);
      prep =
        (fun i ->
          let _, _, k, hl = hop.(i) in
          let p = input.pkts.(k) in
          Bitbuf.set_uint8 p 2 hl;
          p);
      dst = (fun i -> addr input.dst.(pkt i));
      batches;
      registry;
      pool = (fun i -> match f.pools.(sw i) with Some p -> p | None -> invalid_arg "pool");
      envs = Array.of_list (List.filter_map Fun.id (Array.to_list f.envs));
    }
  in
  let ring = Native.ring ~size:wire_size in
  let native =
    {
      Ladder.nprep = (fun i -> Native.fill (Native.slot ring i) (addr input.dst.(pkt i)));
      forward = (fun i p -> Dip_ip.Ipv4.forward (env_of f (sw i)).Env.v4_routes p);
    }
  in
  let sim spans ~parent =
    let times, words, _ = pass ?spans ~parent ~corrupt r input f ~delivered in
    { Ladder.hops = m; pkts = n; readied = 0; ns = Array.fold_left ( +. ) 0.0 times; words }
  in
  let e2e ~seconds =
    let (batch_ns, _), _ = e2e ~corrupt r ~seconds input f in
    (H.Vec.to_array batch_ns, (n + H.batch_size - 1) / H.batch_size)
  in
  Ladder.run ~spans ~slice_ns ~top:Ladder.Sim_top ~e2e items sim native r
