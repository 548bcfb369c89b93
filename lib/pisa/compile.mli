(** Unrolled FN dispatch — the §4.1 compilation strategy, as the
    cost model sees it.

    "It was challenging to implement a loop to invoke the operation
    modules. We use the simple 'if-else' statement with FN_Num to
    determine how many field operations to perform. The field slices
    … are restricted to not using variables, therefore we preset some
    fixed field slices and use some tables to match the target
    field."

    The engine's program cache holds the plan (FN array and preset
    slices, {!Dip_core.Progcache.entry}). {!compile} checks a
    {e template} packet against a registry and records its header
    shape (same FN definitions and locations length — the
    preset-slice restriction); {!run} admits only that shape and
    hands it to {!Dip_core.Engine.process}; {!estimate} prices the
    program on a PISA switch. *)

type t

val compile :
  registry:Dip_core.Registry.t ->
  template:Dip_bitbuf.Bitbuf.t ->
  (t, string) result
(** Check and record a packet shape. Fails on unparseable templates
    or on router-mandatory FNs missing from the registry. *)

val fn_count : t -> int
(** Router-side operations in the unrolled program. *)

val keys : t -> Dip_core.Opkey.t list
(** The router-side operation keys, in execution order. *)

val matches : t -> Dip_bitbuf.Bitbuf.t -> bool
(** Whether a packet has the template's header shape (the cheap
    runtime check the preset slices rely on). *)

val run :
  t ->
  Dip_core.Env.t ->
  now:float ->
  ingress:Dip_core.Env.port ->
  Dip_bitbuf.Bitbuf.t ->
  Dip_core.Engine.verdict
(** {!Dip_core.Engine.process}'s verdict with the compiled registry,
    or [Dropped "shape-mismatch"] when {!matches} fails — a real
    switch would send such packets to the slow path. *)

val estimate : t -> ?alg:Dip_opt.Protocol.alg -> ?parallel:bool -> Cost.config -> Cost.estimate
(** The cost model's view of this program. *)
