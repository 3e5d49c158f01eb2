(** How a pool does I/O: intents submitted to the
    {!Lhws_runtime.Io} submission/completion reactor, or plain blocking
    syscalls.

    Every [lib/net] entry point takes one of these, so the same listener
    / connection / RPC code serves both the latency-hiding pools (fibers
    park on submitted intents, workers keep running other tasks — the
    paper's heavy-edge suspension) and the blocking baselines (a wait
    occupies the worker — the comparison the paper draws). *)

type t

val fibers :
  register:
    (pending:(unit -> int) option ->
    syscalls:(unit -> int) option ->
    (int -> int) ->
    unit) ->
  ?fault:Fault.t ->
  ?watchdog:Lhws_runtime.Watchdog.t ->
  unit ->
  t
(** Builds a fiber-mode reactor: a fresh {!Lhws_runtime.Io.t} plus a
    dedicated deadline {!Lhws_runtime.Timer.t}, both handed to
    [register] so the pool's worker loop pumps them.  The I/O poller
    waits in the backend for an idle worker's budget, cut at the
    deadline timer's earliest entry so deadlines are not overslept.
    Call as
    [Reactor.fibers ~register:(fun ~pending ~syscalls poll ->
       Lhws_pool.register_poller p ?pending ?syscalls poll) ()].
    Only meaningful on suspension-capable pools.  [fault] attaches a
    {!Fault} plane: every connection and listener using this reactor
    consults it before kernel operations.  [watchdog] puts this
    reactor's parked intents under stall surveillance: the watchdog's
    sweep is registered as one more pump-driven poller and the fresh
    {!Lhws_runtime.Io.t} is attached to it, so lost wakeups and stale
    fd registrations fail loudly (see {!Lhws_runtime.Watchdog}).  Pair
    with the pool-side [register_watchdog] for heartbeat coverage and
    stats/tracing integration. *)

val blocking : ?fault:Fault.t -> unit -> t
(** Blocking mode: waits are poll(2) calls on the one descriptor with
    the deadline as timeout, reads/writes plain syscalls.  For the WS
    and thread pools. *)

val is_fibers : t -> bool

val fault : t -> Fault.t option
(** The attached fault plane, if any. *)

val sleep : t -> float -> unit
(** Sleeps without holding a worker in fiber mode (the fiber parks on
    the reactor's deadline timer); plain [Unix.sleepf] in blocking mode.
    Used for injected latency and retry backoff. *)

val run_io :
  t ->
  ?deadline:float ->
  ?eager:bool ->
  [ `Readable | `Writable ] ->
  Unix.file_descr ->
  exec:(unit -> 'a) ->
  'a
(** Drives one kernel operation through the reactor.  [exec] performs
    the operation and may raise [EAGAIN]/[EWOULDBLOCK] (would block —
    retried through the reactor) or [EINTR] (retried immediately).
    [deadline] is absolute ([Unix.gettimeofday] seconds).

    Fiber mode: [exec] runs inline once first (eager completion; skip
    with [eager:false]); if it would block, an intent is submitted and
    the pump re-issues [exec] the moment the descriptor turns ready, so
    the fiber resumes with the result already produced.  Every [exec]
    invocation is counted in the reactor's [io_syscalls].  Blocking
    mode: waits with the deadline as timeout, then loops the syscall.

    Other exceptions from [exec] (kernel errors, injected faults)
    re-raise at this call, whether [exec] ran inline or in the pump.
    @raise Net.Timeout when [deadline] passes before completion. *)

val io_syscalls : t -> int
(** Kernel I/O calls issued through this reactor so far (0 in blocking
    mode, which has no reactor-side accounting). *)

val chaos_drop_completions : t -> every:int -> unit
(** Test-only mutation hook; see
    {!Lhws_runtime.Io.chaos_drop_completions}.  No-op in blocking
    mode. *)
