(** Standard (non-latency-hiding) work-stealing pool: the baseline.

    A single-deque policy over the shared {!Scheduler_core} engine: one
    Chase–Lev deque per worker; tasks run to completion.  A
    latency-incurring operation ({!sleep}) blocks the whole worker domain
    — the semantics the paper's evaluation compares against.  Joining an
    unresolved promise does not suspend (there are no suspendable fibers
    here); the worker instead helps by running other tasks, the classic
    work-first join.

    The API mirrors {!Lhws_pool} so workloads can be written once against
    either pool. *)

type t

val create :
  ?name:string -> ?workers:int -> ?steal_mode:Scheduler_core.steal_mode -> unit -> t
(** [steal_mode] (default {!Scheduler_core.Steal_one}) selects classical
    one-task stealing or batched steal-half; under steal-half, surplus
    stolen tasks land in the thief's own deque.  Victim selection is
    EWMA-biased in both modes (see {!Scheduler_core.Victim_stats}).
    The instance registers in {!Scheduler_core.Registry} under [name]
    until {!shutdown}. *)

val run : t -> (unit -> 'a) -> 'a
val shutdown : t -> unit

val with_pool :
  ?name:string ->
  ?workers:int ->
  ?steal_mode:Scheduler_core.steal_mode ->
  (t -> 'a) ->
  'a

val name : t -> string
(** The {!Scheduler_core.Registry} name this pool was created under. *)

val submit : t -> (unit -> unit) -> unit
(** Pool-pinned external submission; see {!Lhws_pool.submit}. *)

val scavenge_source : t -> Scheduler_core.scavenge_source
(** This pool's stealable surface.  Caveat: a task that uses this pool's
    fiber operations ([await]/[fork2] capture the pool handle) is only
    safe to scavenge into another [Ws_pool]; leaf thunks are safe in any
    sibling. *)

val set_scavenge :
  t -> ?mode:Scheduler_core.steal_mode -> Scheduler_core.scavenge_source -> unit
(** Designate a sibling to raid when this pool's workers idle.
    @raise Invalid_argument when handed this pool's own source. *)

val clear_scavenge : t -> unit

val set_tracer : t -> Tracing.t -> unit
(** Records worker events (task runs, steals, blocking sleeps) into the
    tracer from now on; see {!Tracing.to_chrome_json}.  Set before
    {!run}; adds two clock reads per task. *)

val register_poller :
  t -> ?pending:(unit -> int) -> ?syscalls:(unit -> int) -> (int -> int) -> unit
(** Adds an event source that workers poll once per scheduling iteration.
    The callback takes a wait budget in microseconds — 0 from busy
    workers (do not block), an idle worker's backoff capped at 50 us
    otherwise (the worker sleeps what the pollers leave unused) — and
    returns how many events it fired.  Register before {!run}; not
    thread-safe against concurrent registration. *)

val register_shed_counter : t -> (unit -> int) -> unit
(** Adds a monotone overload-shed counter summed into the [conns_shed]
    stats field; thread-safe, may be called from running tasks. *)

val async : t -> (unit -> 'a) -> 'a Promise.t
(** Spawns a task onto the current worker's deque. *)

val await : t -> 'a Promise.t -> 'a
(** Helps with other work until the promise resolves (needs the pool to
    know where to find work, unlike {!Lhws_pool.await}). *)

val fork2 : t -> (unit -> 'a) -> (unit -> 'b) -> 'a * 'b

val sleep : t -> float -> unit
(** Blocks the calling worker domain with [Unix.sleepf]: latency is {e not}
    hidden.  Emits a {!Tracing.Blocked} event when a tracer is attached. *)

val parallel_for : t -> lo:int -> hi:int -> (int -> unit) -> unit

val parallel_map_reduce :
  t -> lo:int -> hi:int -> map:(int -> 'a) -> combine:('a -> 'a -> 'a) -> id:'a -> 'a

(** {2 Introspection}

    The unified stats record shared by every pool; the single-deque
    baseline reports degenerate values for the multi-deque counters
    ([deques_allocated] = worker count, [max_deques_per_worker] = 1,
    [suspensions] = [resumes] = 0). *)

type stats = Scheduler_core.stats = {
  tasks_run : int;
  steals : int;
  failed_steals : int;
  steals_batched : int;
  tasks_stolen : int;
  tasks_per_steal_hist : int array;
  deques_allocated : int;
  suspensions : int;
  resumes : int;
  max_deques_per_worker : int;
  io_pending : int;
  io_syscalls : int;
  conns_shed : int;
  scavenge_steals : int;
  tasks_scavenged : int;
  tasks_donated : int;
  stalls_detected : int;
  oldest_parked_ms : float;
}

val stats : t -> stats
