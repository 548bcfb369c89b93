module Bitbuf = Dip_bitbuf.Bitbuf
module Field = Dip_bitbuf.Field

type verdict =
  | Forwarded of Env.port list
  | Delivered
  | Responded of Bitbuf.t
  | Quiet
  | Dropped of string
  | Unsupported of Opkey.t

type info = {
  ops_run : int;
  ops_skipped : int;
  state_bytes : int;
  parallel_depth : int;
}

let mandatory = function
  | Opkey.F_parm | Opkey.F_mac | Opkey.F_mark | Opkey.F_hvf -> true
  | Opkey.F_32_match | Opkey.F_128_match | Opkey.F_source | Opkey.F_fib
  | Opkey.F_pit | Opkey.F_ver | Opkey.F_dag | Opkey.F_intent | Opkey.F_pass
  | Opkey.F_cc | Opkey.F_tel | Opkey.F_cust ->
      false

(* Dependency leveling for the §2.2 parallel flag: two FNs conflict
   when their target fields overlap (a conservative approximation of
   read/write dependences). The critical-path length is what a
   modular-parallel dataplane (NFP-style, refs [31,32]) would pay.
   [included] restricts the analysis to the FNs that actually
   executed — a tag-skipped or unknown-ignorable FN contributes no
   dataplane work, so it must not lengthen the path. *)
let critical_path_over fns ~included =
  let n = Array.length fns in
  let level = Array.make n 0 in
  let depth = ref 0 in
  for i = 0 to n - 1 do
    if included i then begin
      level.(i) <- 1;
      for j = 0 to i - 1 do
        if level.(j) > 0 && Field.overlaps fns.(i).Fn.field fns.(j).Fn.field
        then level.(i) <- max level.(i) (level.(j) + 1)
      done;
      if level.(i) > !depth then depth := level.(i)
    end
  done;
  !depth

let critical_path fns = critical_path_over fns ~included:(fun _ -> true)

let no_info = { ops_run = 0; ops_skipped = 0; state_bytes = 0; parallel_depth = 0 }

let verdict_class = function
  | Forwarded _ -> `Forwarded
  | Delivered -> `Delivered
  | Responded _ -> `Responded
  | Quiet -> `Quiet
  | Dropped _ -> `Dropped
  | Unsupported _ -> `Unsupported

(* The forwarding decision accumulated over a packet's FNs; the first
   proposal wins. *)
type route = No_route | Ports of Env.port list | Local

(* Observability is opt-in: with [obs = None] every instrumentation
   point is one match on an immediate. [sampled] runs (Obs sampling)
   additionally get monotonic-clock spans. *)
let observe obs ~sampled ~t_start verdict =
  match obs with
  | None -> ()
  | Some o ->
      Obs.verdict o (verdict_class verdict);
      if sampled then Obs.process_ns o (Dip_obs.Clock.elapsed_ns t_start)

let exec obs ~sampled impl (ctx : Registry.ctx) =
  match obs with
  | None -> impl ctx
  | Some o ->
      let key = ctx.Registry.fn.Fn.key in
      Obs.op_run o key;
      if sampled then begin
        let t0 = Dip_obs.Clock.now_ns () in
        let r = impl ctx in
        Obs.op_ns o key (Dip_obs.Clock.elapsed_ns t0);
        r
      end
      else impl ctx

let skip obs key = match obs with Some o -> Obs.op_skip o key | None -> ()

(* Fills the [ctx] before the first FN is known. *)
let no_fn = Fn.v ~loc:0 ~len:1 Opkey.F_source

(* The verdict while FNs remain to run; compared physically. *)
let pending = Dropped "pending"

(* Opt-in static pre-check (Dip_analysis.verifier), memoized on the
   cache entry and keyed on the hook's physical identity: a different
   verifier (new registry, new policy) re-checks instead of inheriting
   a verdict it never produced. *)
let check_program check view = function
  | None -> check view
  | Some e -> (
      match e.Progcache.verdict with
      | Some (h, v) when h == check -> v
      | _ ->
          let v = check view in
          e.Progcache.verdict <- Some (check, v);
          v)

let run ?obs ?verify ~registry ~side env ~now ~ingress buf =
  let sampled = match obs with None -> false | Some o -> Obs.begin_packet o in
  let t_start = if sampled then Dip_obs.Clock.now_ns () else 0L in
  let parsed =
    if Progcache.enabled env.Env.prog_cache then
      Progcache.parse env.Env.prog_cache buf
    else
      match Packet.parse buf with
      | Ok view -> Ok (view, None)
      | Error e -> Error e
  in
  let checked =
    match (parsed, verify) with
    | Error e, _ -> Error ("parse: " ^ e)
    | Ok _, None -> parsed
    | Ok (view, entry), Some check -> (
        match check_program check view entry with
        | Ok () -> parsed
        | Error e -> Error ("verify: " ^ e))
  in
  match checked with
  | Error e ->
      let v = Dropped e in
      observe obs ~sampled ~t_start v;
      (v, no_info)
  | Ok (view, entry) ->
      (* The plan: FNs and preset slices, cached or derived here. *)
      let fns = view.Packet.fns in
      let targets =
        match entry with
        | Some e -> e.Progcache.targets
        | None -> Array.map (Packet.locations_field view) fns
      in
      let nfns = Array.length fns in
      let parallel = view.Packet.header.Header.parallel in
      (* Which FNs actually executed — only needed for the parallel
         flag's critical-path accounting. *)
      let executed = if parallel then Array.make nfns false else [||] in
      let budget = Guard.start env.Env.guard in
      let scratch = env.Env.scratch in
      scratch.Registry.opt_key <- None;
      scratch.Registry.emit <- [];
      let ctx =
        {
          Registry.env;
          view;
          fn = no_fn;
          target = no_fn.Fn.field;
          ingress;
          now;
          scratch;
          budget;
        }
      in
      let ops_run = ref 0 and ops_skipped = ref 0 in
      let route = ref No_route in
      let verdict = ref pending in
      let i = ref 0 in
      while !verdict == pending && !i < nfns do
        let fn = fns.(!i) in
        let key = fn.Fn.key in
        (match (side, fn.Fn.tag) with
        | `Router, Fn.Host | `Host, Fn.Router ->
            (* Algorithm 1 line 5 *)
            incr ops_skipped;
            skip obs key
        | (`Router | `Host), _ -> (
            match Registry.find registry key with
            | None ->
                if mandatory key then verdict := Unsupported key
                else begin
                  (* "Otherwise, the router can simply ignore this FN"
                     (§2.4). *)
                  incr ops_skipped;
                  skip obs key
                end
            | Some impl -> (
                if not (Guard.charge_op budget) then
                  verdict := Dropped "guard-ops-exhausted"
                else begin
                  incr ops_run;
                  if parallel then executed.(!i) <- true;
                  ctx.Registry.fn <- fn;
                  ctx.Registry.target <- targets.(!i);
                  match exec obs ~sampled impl ctx with
                  | Registry.Continue -> ()
                  | Registry.Set_route ports ->
                      if !route == No_route then route := Ports ports
                  | Registry.Deliver_local ->
                      if !route == No_route then route := Local
                  | Registry.Respond pkt -> verdict := Responded pkt
                  | Registry.Silent -> verdict := Quiet
                  | Registry.Abort reason ->
                      (match obs with
                      | Some o -> Obs.op_error o key
                      | None -> ());
                      verdict := Dropped reason
                end)));
        incr i
      done;
      if !verdict == pending then
        (* end processing: act on the accumulated decision *)
        verdict :=
          (match (!route, side) with
          | Ports ports, _ ->
              if Header.decrement_hop_limit buf then Forwarded ports
              else Dropped "hop-limit-expired"
          | Local, _ | No_route, `Host -> Delivered
          | No_route, `Router -> Dropped "no-forwarding-decision");
      let depth =
        if not parallel then !ops_run
        else if !ops_run < nfns then
          critical_path_over fns ~included:(fun i -> executed.(i))
        else
          (* The whole program ran: the full-program path applies and
             is memoized on the cache entry. *)
          match entry with
          | Some e ->
              if e.Progcache.depth < 0 then
                e.Progcache.depth <- critical_path fns;
              e.Progcache.depth
          | None -> critical_path fns
      in
      observe obs ~sampled ~t_start !verdict;
      ( !verdict,
        {
          ops_run = !ops_run;
          ops_skipped = !ops_skipped;
          state_bytes = Guard.state_used budget;
          parallel_depth = depth;
        } )

let process ?obs ?verify ~registry env ~now ~ingress buf =
  run ?obs ?verify ~registry ~side:`Router env ~now ~ingress buf

let host_process ?obs ?verify ~registry env ~now ~ingress buf =
  run ?obs ?verify ~registry ~side:`Host env ~now ~ingress buf

(* Auxiliary transmissions (scratch.emit, pushed by F_cust) precede
   the verdict's own actions: custody is taken — and ACKed — even
   when a later decision drops the packet (hop-limit expiry), which
   is exactly when the stored copy matters. Draining here instead of
   threading a value through [info] keeps every call site — the sim
   handlers, the mcore pool, direct users — correct without a
   signature change. *)
let drain_aux env =
  match env.Env.scratch.Registry.emit with
  | [] -> []
  | l ->
      env.Env.scratch.Registry.emit <- [];
      List.rev_map (fun (p, pkt) -> Dip_netsim.Sim.Forward (p, pkt)) l

(* Fan-out copies must not share storage: every downstream hop
   mutates its packet in place (hop limit, tag updates), so two
   in-flight copies aliasing one Bitbuf.t would corrupt each other.
   The first port keeps the original buffer. No closure, so a unicast
   forward allocates only its one-element action list. *)
let rec copies_to buf = function
  | [] -> []
  | p :: rest ->
      Dip_netsim.Sim.Forward (p, Bitbuf.copy buf) :: copies_to buf rest

let fan_out buf = function
  | [] -> []
  | p :: rest -> Dip_netsim.Sim.Forward (p, buf) :: copies_to buf rest

let verdict_actions ~ingress buf = function
  | Forwarded ports -> fan_out buf ports
  | Delivered -> [ Dip_netsim.Sim.Consume ]
  | Responded reply -> [ Dip_netsim.Sim.Forward (ingress, reply) ]
  | Quiet -> []
  | Dropped reason -> [ Dip_netsim.Sim.Drop reason ]
  | Unsupported key ->
      [
        Dip_netsim.Sim.Forward (ingress, Errors.fn_unsupported ~key ~rejected:buf);
        Dip_netsim.Sim.Drop ("unsupported-" ^ Opkey.name key);
      ]

let actions_of_verdict env ~ingress buf verdict =
  match drain_aux env with
  | [] -> verdict_actions ~ingress buf verdict
  | aux -> aux @ verdict_actions ~ingress buf verdict

let sim_node run ?obs ?verify ~registry env _sim ~now ~ingress packet =
  let verdict, _info = run ?obs ?verify ~registry env ~now ~ingress packet in
  (match obs with
  | None -> ()
  | Some o -> Obs.publish_cache o env.Env.prog_cache);
  actions_of_verdict env ~ingress packet verdict

let handler = sim_node process
let host_handler = sim_node host_process
