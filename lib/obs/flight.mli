(** An allocation-free, per-domain flight recorder.

    A {!ring} is a fixed-capacity circular buffer of compact binary
    events: a monotonic timestamp ({!Clock.now_ns}, truncated to the
    native 63-bit int — good for ~146 years of uptime), a
    pre-registered event {!id}, and three integer operands. Recording
    is plain stores into parallel [int array]s on the recording
    domain — no locks, no boxing, no allocation — and the ring
    overwrites its oldest events when full, so a recorder can stay
    armed forever and always hold the most recent window.

    Concurrency contract: a ring has {e one} writer (the domain it
    was created for). Readers ({!events}, {!merge}) must run when the
    writer is quiescent — the same moment
    {!Dip_mcore.Pool.progcache_totals} is exact. There is no seqlock: the single-writer/quiescent-reader
    discipline is the whole synchronization story, which is what
    keeps {!record} to five stores and an increment.

    Span convention: a span is recorded {e once, at its end}, with
    its duration in nanoseconds as operand [a0] (the timestamp is the
    end time). This avoids begin/end pairing across overwrites — a
    half-overwritten span cannot exist — and lets exporters recover
    the start time as [ts - a0].

    Event ids are registered once, process-wide ({!register} is the
    only locking operation in the module; call it at module
    initialization, not on the hot path). *)

type kind =
  | Instant  (** a point event; operands are free-form *)
  | Span  (** recorded at span end; [a0] = duration in ns *)
  | Counter  (** a sampled value; [a0] = the value *)

type id
(** A registered event type: interned name + {!kind}. *)

val register : ?kind:kind -> string -> id
(** [register ?kind name] interns [name] (default kind {!Instant})
    and returns its id. Registering the same name again returns the
    same id; the kind of the first registration wins. Thread-safe. *)

val id_name : id -> string
val id_kind : id -> kind

val registered : unit -> (string * kind) list
(** Every event type registered so far, in registration order. *)

type ring

val default_capacity : int
(** 16384 events (512 KiB of payload per ring). *)

val create : ?capacity:int -> pid:int -> tid:int -> unit -> ring
(** [create ~pid ~tid ()] allocates a ring whose events carry the
    given process/thread labels (Chrome-trace convention: [pid] = a
    node or pool, [tid] = a domain within it). [capacity] (default
    {!default_capacity}) is rounded up to a power of two, minimum
    8. *)

val record : ring -> id -> int -> int -> int -> unit
(** [record t id a0 a1 a2] stamps the current monotonic time and
    stores one event, overwriting the oldest if the ring is full.
    Plain stores only; must be called from the ring's writer
    domain. *)

val now : unit -> int
(** The monotonic clock as a native int, for span bookkeeping:
    [record t id (now () - t0) a1 a2] ends a span opened at
    [let t0 = now ()]. *)

val pid : ring -> int
val tid : ring -> int

val capacity : ring -> int
(** The rounded (power-of-two) capacity. *)

val recorded : ring -> int
(** Total events ever recorded, including overwritten ones. *)

val dropped : ring -> int
(** Events lost to overwriting: [max 0 (recorded - capacity)]. *)

val clear : ring -> unit
(** Forget everything recorded so far (writer-domain only). *)

type event = {
  ev_ts : int;  (** monotonic ns (span: end time) *)
  ev_id : id;
  ev_pid : int;
  ev_tid : int;
  ev_a0 : int;
  ev_a1 : int;
  ev_a2 : int;
}

val events : ring -> event list
(** Drain (non-destructively): the surviving events, oldest first —
    timestamp-monotone by construction, since slots are written in
    time order. Call only when the writer is quiescent. *)

val merge : ring list -> event list
(** {!events} of every ring, merged into one timeline sorted by
    timestamp (stable, so same-timestamp events keep ring order). *)
