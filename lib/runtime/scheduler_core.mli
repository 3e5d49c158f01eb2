(** The shared scheduler engine behind every runtime pool.

    Both real pools ({!Lhws_pool}, {!Ws_pool}) are the same machine — a
    set of worker domains, each looping over {e pump event sources →
    re-inject resumed work → pick a task → run it}, with idle backoff,
    a shared timer, pluggable pollers, per-worker counters and a tracing
    bus — and differ only in their {e policy}: what a task is, where
    tasks live, and how the next one is chosen.  This module owns the
    machine; a {!POLICY} supplies the task representation, the deque
    discipline and the steal target selection, and {!Make} assembles a
    complete pool from it.

    The split mirrors how the literature evaluates scheduler variants as
    policies over one engine: the standard work-stealing baseline is the
    single-deque policy, the paper's latency-hiding scheduler is the
    multi-deque suspend/resume policy, and future variants (alternative
    steal distributions, backends) slot in without touching the engine. *)

(** {1 Per-worker instrumentation}

    One {!counters} record per worker, written only by that worker (or
    by policy code running on it) and summed into the pool-wide
    {!stats}.  Counters that a policy has no use for stay at their
    degenerate values, so every pool reports the same record. *)

type steal_mode =
  | Steal_one  (** classical Chase–Lev: one task per successful steal *)
  | Steal_half
      (** batched {!Lhws_deque.Chase_lev.steal_half}: take up to half the
          victim's visible range per steal; surplus lands in the thief's
          own deque *)

(** Where resumed continuations re-enter the scheduling order — the
    fairness knob for interacting computations under saturation. *)
type resume_order =
  | Newest_first
      (** the historical (and locality-best) discipline: resume batches
          are pushed onto their home deque and popped LIFO, freshly
          notified deques onto the owner's ready stack — under
          saturation the newest connections monopolize the workers and
          the oldest starve *)
  | Aged_fifo
      (** resumed continuations flow through a per-worker FIFO lane in
          arrival order (oldest batch first), bounding staleness: with a
          closed-loop saturating load, round-time p99 stays within a
          small factor of the mean instead of approaching the wall
          clock.  Lane tasks are serviced after the active deque and
          before ready-deque switches or steals, and are not stealable *)

val steal_hist_buckets : int
(** Number of buckets in the tasks-per-steal histogram (8): bucket [i]
    counts successful steals that took [i + 1] tasks, the last bucket
    absorbing everything larger. *)

type counters = {
  mutable tasks_run : int;  (** tasks executed by this worker's loop *)
  mutable steals : int;  (** successful steals landed by this worker *)
  mutable failed_steals : int;  (** steal attempts that found no task *)
  mutable steals_batched : int;
      (** successful steals that took more than one task *)
  mutable tasks_stolen : int;  (** total tasks acquired across all steals *)
  steal_hist : int array;  (** tasks-per-steal histogram, {!steal_hist_buckets} wide *)
  mutable suspensions : int;  (** fibers suspended on this worker *)
  mutable resumes : int;  (** resumed continuations re-injected by this worker *)
  mutable max_owned : int;  (** high-water mark of live deques owned at once *)
  mutable scavenge_steals : int;
      (** successful cross-pool steals landed by this worker *)
  mutable tasks_scavenged : int;
      (** tasks acquired from sibling pools across all scavenge steals *)
  mutable heartbeats : int;
      (** scheduling-loop iterations completed by this worker; advances
          while idling (backoff sleeps return to the loop) and stops only
          when the worker is wedged inside a task — what {!Watchdog}
          compares across sweeps to tell progress from a stuck worker *)
}

val count_steal : counters -> tasks:int -> unit
(** Record one successful steal that acquired [tasks] (>= 1) tasks:
    bumps [steals], [tasks_stolen], [steals_batched] (when [tasks > 1])
    and the histogram bucket. *)

(** Per-worker EWMA of steal success per victim slot, for biasing victim
    selection away from chronically empty deques.  Owner-written (each
    thief tracks its own observations) and padded off shared cache
    lines. *)
module Victim_stats : sig
  type t

  val create : victims:int -> t
  (** All rates start at 0.5 (uninformative prior). *)

  val capacity : t -> int
  (** Victim slots currently tracked. *)

  val ensure_capacity : t -> int -> unit
  (** Grow the tracker to at least [n] slots (no-op when already large
      enough); new slots start at the 0.5 prior, existing rates are kept.
      Owner-only, like {!record} — a thief resizes its own tracker, e.g.
      when pointed at a sibling pool with more workers than it was
      created for. *)

  val record : t -> int -> hit:bool -> unit
  (** Fold one steal outcome against victim [v] into its EWMA
      (smoothing factor 1/8). *)

  val rate : t -> int -> float
  (** Current EWMA estimate for victim [v]. *)

  val pick : t -> Random.State.t -> self:int -> int
  (** Power-of-two-choices: draw two uniform candidates excluding
      [self], return the one with the better observed hit rate.
      Requires at least two workers. *)

  val pick_foreign : t -> Random.State.t -> n:int -> int
  (** Power-of-two-choices over victims [0 .. n-1] with no self
      exclusion — for cross-pool scavenging, where the thief is not a
      candidate.  [n] may be smaller than {!capacity}; requires
      [n >= 1] (returns 0 when [n = 1]). *)
end

type ctx = {
  wid : int;  (** worker index, [0 .. workers-1] *)
  rng : Random.State.t;  (** per-worker PRNG for victim selection *)
  counters : counters;
  emit : Tracing.kind -> start_us:float -> dur_us:float -> unit;
      (** records into the pool's tracer; no-op when none is set *)
  tracing : unit -> bool;  (** whether a tracer is attached (skip clock reads) *)
}
(** Per-worker context handed to the policy: identity, randomness,
    counters and the tracing bus. *)

val mark : ctx -> Tracing.kind -> unit
(** Emit an instantaneous event (zero duration, timestamped now). *)

(** {1 Unified stats}

    The one stats record every pool exposes.  For the single-deque
    baseline, [deques_allocated] is the (fixed) worker count,
    [max_deques_per_worker] is 1 and [suspensions]/[resumes] are 0. *)

type stats = {
  tasks_run : int;
      (** tasks executed by this pool's scheduling loops (fresh fibers,
          resumed continuations and scavenged loot alike) *)
  steals : int;
  failed_steals : int;
  steals_batched : int;
      (** successful steals that took more than one task (0 under
          [Steal_one]) *)
  tasks_stolen : int;
      (** total tasks moved by stealing; equals [steals] under
          [Steal_one], >= [steals] under [Steal_half] *)
  tasks_per_steal_hist : int array;
      (** bucket [i] counts steals that took [i + 1] tasks (last bucket
          absorbs larger batches); sums to [steals] *)
  deques_allocated : int;
  suspensions : int;
  resumes : int;
  max_deques_per_worker : int;
  io_pending : int;
      (** gauge, not a counter: fibers currently parked in registered
          pollers (see [register_poller]'s [?pending]); 0 for pools with
          no pollers attached *)
  io_syscalls : int;
      (** kernel I/O calls issued through registered pollers' reactors —
          readiness passes, probe sweeps and the operations themselves
          (see [register_poller]'s [?syscalls]); 0 for pools with no
          pollers attached.  Divide by operations served to measure the
          batched reactor's syscalls/op *)
  conns_shed : int;
      (** connections rejected fast by overload shedding in serving
          layers running on this pool (see [register_shed_counter]);
          0 when nothing registered one *)
  scavenge_steals : int;
      (** successful cross-pool steals this pool's workers landed against
          their scavenge sibling (0 unless [set_scavenge] was called) *)
  tasks_scavenged : int;
      (** total tasks this pool acquired from its scavenge sibling; each
          scavenged task is counted exactly once, by the thief pool *)
  tasks_donated : int;
      (** total tasks sibling pools took {e from} this pool via
          scavenging; across a topology,
          sum of [tasks_scavenged] = sum of [tasks_donated] *)
  stalls_detected : int;
      (** stalls flagged by watchdogs registered on this pool (lost
          wakeups swept out of the reactor, workers whose heartbeat
          stopped); 0 when no watchdog registered (see
          [register_watchdog_stats]) *)
  oldest_parked_ms : float;
      (** gauge: age in milliseconds of the oldest intent currently
          parked in a watchdog-tracked reactor — the staleness bound the
          fairness work exists to keep small; 0 when nothing is parked
          or no watchdog registered *)
}

(** {1 Cross-pool scavenging}

    A pool may designate one sibling to raid when idle: after local
    steals fail and before a worker climbs the deep-backoff ladder, it
    attempts one steal against the sibling through the sibling's
    {!scavenge_source}.  Only {e pool-portable} thunks cross — fresh,
    not-yet-started tasks; captured continuations and policy-internal
    re-injections stay home (their effect handlers and worker state are
    bound to the donor pool).  Loot is injected into the thief's own
    queues and becomes native work there: its children, suspensions and
    resumes all live in the thief pool.  Off by default; enabling it is
    a topology decision, not a policy one. *)

type scavenge_source = {
  src_name : string;  (** registry name of the donor pool *)
  src_workers : unit -> int;
      (** victim slots a thief should track (the donor's worker count) *)
  src_steal :
    rng:Random.State.t ->
    tracker:Victim_stats.t ->
    mode:steal_mode ->
    sink:((unit -> unit) -> unit) ->
    int;
      (** one steal attempt: pick a victim via [tracker], deliver portable
          thunks to [sink], return how many were delivered *)
  src_donated : int Atomic.t;
      (** total tasks this donor has given away (feeds [tasks_donated]) *)
}

(** {1 Process-level registry}

    Every live engine instance registers here at [create] and leaves at
    [shutdown], so topologies, CLIs and diagnostics can enumerate all
    pools in the process.  Names are caller-chosen (default
    ["<label>-<id>"]) and looked up first-registered-first. *)

type registry_entry = {
  reg_id : int;  (** unique per process, monotonically assigned *)
  reg_name : string;
  reg_label : string;  (** policy label, e.g. ["Lhws_pool"] *)
  reg_workers : int;
  reg_stats : unit -> stats;
}

module Registry : sig
  val register :
    ?name:string ->
    label:string ->
    workers:int ->
    stats:(unit -> stats) ->
    unit ->
    registry_entry
  (** Used by {!Make.create}; exposed so pool implementations that do not
      go through {!Make} (e.g. a thread-per-task pool) can still appear
      in the registry.  Thread-safe. *)

  val unregister : registry_entry -> unit

  val entries : unit -> registry_entry list
  (** Live pools, in registration order. *)

  val find : string -> registry_entry option
  (** First live pool registered under this name. *)
end

(** {1 Scheduling policies} *)

module type POLICY = sig
  val label : string
  (** Error-message prefix, e.g. ["Lhws_pool"]. *)

  val rng_salt : int
  (** Mixed into each worker's PRNG seed. *)

  type config

  val default_config : config

  type task
  (** Whatever the policy schedules: a thunk, or a fresh-fiber /
      captured-continuation sum. *)

  type pool
  (** Policy state shared by all workers (deque tables, steal policy). *)

  type wstate
  (** Per-worker policy state (owned deques, ready set). *)

  val make_pool : config -> ctxs:ctx array -> self_wid:(unit -> int) -> pool
  (** Builds the policy state for [Array.length ctxs] workers.
      [self_wid] resolves the worker currently running on this domain
      (valid only on a worker domain) — policies whose tasks migrate
      between workers (captured continuations) need it to find the
      {e current} worker from inside an effect handler. *)

  val worker : pool -> int -> wstate

  val expects_resumes : pool -> wstate -> bool
  (** Whether this worker may be handed resumed continuations from other
      domains at any moment (it owns deques with suspended fibers).  The
      engine keeps such workers at the base idle-poll interval instead of
      letting them climb the backoff ladder: an idle worker's wait ends
      early only when an fd turns ready in the pollers it waits in, not
      when another domain pushes it a resume, so backing off would add up
      to the backoff cap to every cross-domain resume.  Policies without
      suspension return [false].

      Workers for which this returns [false] {e do} climb to the cap
      (currently 1 ms), and nothing wakes them when fresh tasks are pushed
      on other workers: after the pool has idled long enough for sleepers
      to reach the cap, pickup of newly injected work via stealing can lag
      by up to that cap.  This is a deliberate tradeoff — waking sleepers
      from the push path would tax the spawn hot path — and it only
      affects cold-start latency, not steady-state throughput. *)

  val drain : pool -> wstate -> unit
  (** Re-inject work that arrived from other domains (resumed
      continuations).  Called once per scheduling iteration, before
      {!next}.  No-op for policies without suspension. *)

  val next : pool -> wstate -> task option
  (** One scheduling decision: pop local work, switch deques, or steal.
      The policy updates [ctx.counters] and emits [Steal] events itself;
      the engine wraps the returned task's execution in [Task_run]. *)

  val exec : pool -> wstate -> task -> unit
  (** Run one task to completion or suspension (installing effect
      handlers as needed). *)

  val inject : pool -> wstate -> pinned:bool -> (unit -> unit) -> unit
  (** Push a thunk onto the given worker's local queue.  Always called
      from the worker's own thread (bootstrap in {!Make.run}, submit
      drain, scavenged-loot delivery).  [pinned] marks a thunk that must
      never be exported by {!export_steal}: the engine pins its [run]
      root task so a scavenging sibling cannot carry a pool's main fiber
      away — the root's completion is what [run]'s caller joins on, so
      exporting it deadlocks teardown if the thief dies first. *)

  val deques_allocated : pool -> int
  (** Lifetime deque allocations, for {!stats}. *)

  val export_steal :
    pool ->
    rng:Random.State.t ->
    tracker:Victim_stats.t ->
    mode:steal_mode ->
    sink:((unit -> unit) -> unit) ->
    int
  (** One cross-pool steal attempt {e against} this pool, run on a
      foreign thread (a sibling pool's worker): pick a victim with
      {!Victim_stats.pick_foreign} on [tracker] (already grown to this
      pool's worker count), steal per [mode] using the policy's normal
      thief-side machinery, deliver only pool-portable thunks to [sink]
      and return how many were delivered.  Loot that cannot run outside
      this pool (captured continuations, policy-internal re-injections)
      must be requeued locally, never dropped or exported.  The caller
      records hit/miss bookkeeping against its own counters; this
      function must not touch the victim pool's [ctx.counters] (it is
      not running on one of its workers). *)
end

(** {1 The engine} *)

module Make (P : POLICY) : sig
  type t

  val create : ?name:string -> ?workers:int -> ?config:P.config -> unit -> t
  (** Spawns [workers - 1] extra domains (default 2 workers); the
      calling domain becomes worker 0 while inside {!run}.  This is the
      only place in the runtime that spawns domains.  The instance is
      registered in {!Registry} under [name] (default
      ["<label>-<id>"]) until {!shutdown}. *)

  val run : t -> (unit -> 'a) -> 'a
  (** Injects the thunk as the root task on worker 0 and participates
      in the worker loop until it completes; re-raises its exception.
      @raise Invalid_argument after {!shutdown} or if already running. *)

  val shutdown : t -> unit
  (** Stops and joins the worker domains.  Idempotent; the pool cannot
      be reused afterwards. *)

  val with_pool :
    ?name:string -> ?workers:int -> ?config:P.config -> (t -> 'a) -> 'a

  val help : t -> until:(unit -> bool) -> unit
  (** Runs the scheduling loop on the calling worker until the predicate
      holds or the pool stops — the work-first helping loop used by
      blocking joins.  Must be called on a worker of this pool. *)

  val self : unit -> ctx * P.wstate
  (** The worker currently running on this domain.
      @raise Failure when not on a pool worker. *)

  val self_opt : unit -> (ctx * P.wstate) option

  val pool : t -> P.pool
  val timer : t -> Timer.t
  val workers : t -> int
  val set_tracer : t -> Tracing.t -> unit
  val register_poller :
    t -> ?pending:(unit -> int) -> ?syscalls:(unit -> int) -> (int -> int) -> unit
  (** [register_poller t ?pending ?syscalls poll] adds an event source
      pumped by the worker loop.  [poll budget_us] returns how many
      events it fired.  The worker holding the pump election calls it
      with [budget_us = 0] once per scheduling iteration, where it must
      not block.  An idle worker about to back off calls it with its
      backoff as [budget_us] (at most 50 us): a source may block up to
      that long for an event (e.g. {!Io.poll} waits in [ppoll(2)]), and
      the worker sleeps only what the pollers left unused.  Sources
      that cannot wait ignore the budget.  [pending] (e.g.
      {!Io.pending}) feeds the [io_pending] stats gauge; [syscalls]
      (e.g. {!Io.syscalls}) feeds the [io_syscalls] counter; sources
      without parked fibers or kernel traffic omit them. *)

  val register_shed_counter : t -> (unit -> int) -> unit
  (** Adds a monotone counter summed into the [conns_shed] stats field —
      serving layers (e.g. a listener with overload shedding) publish how
      many connections they rejected fast.  Thread-safe (CAS push):
      listeners register from within running tasks. *)

  val register_watchdog_stats : t -> (unit -> int * float) -> unit
  (** Adds a watchdog snapshot source: the closure yields
      [(stalls_detected, oldest_parked_ms)].  Stall counts are summed
      and parked ages maxed into the corresponding stats fields.
      Thread-safe (CAS push). *)

  val heartbeats : t -> int array
  (** Per-worker scheduling-loop iteration counts (see
      {!counters.heartbeats}) — hand
      [(fun () -> heartbeats t)] to {!Watchdog.attach_heartbeats} to put
      this pool's workers under stuck-worker surveillance. *)

  val mark_stall : t -> unit
  (** Emit a {!Tracing.Stalled} event on the calling worker's trace
      buffer; no-op when no tracer is set or the caller is not a worker
      of this pool.  Watchdog sweeps run inside the pump (on a worker),
      so wiring this as the watchdog's [on_stall] puts detections on the
      timeline next to the work they interrupted. *)

  val register_watchdog : t -> Watchdog.t -> unit
  (** Complete pool-side wiring for a watchdog in one call: registers
      {!Watchdog.poll} as a poller (the sweep rides this pool's pump),
      feeds detections into [stalls_detected] / [oldest_parked_ms] via
      [register_watchdog_stats], emits {!Tracing.Stalled} on detection,
      and puts this pool's workers under heartbeat surveillance.  Pair
      with [Reactor.fibers ~watchdog] (or {!Watchdog.attach_io}) to put
      a reactor's parked intents under the same watchdog. *)

  val stats : t -> stats

  val name : t -> string
  (** The registry name this instance was created under. *)

  val registry_entry : t -> registry_entry

  val submit : t -> (unit -> unit) -> unit
  (** Pool-pinned external submission: the thunk lands in one worker's
      inbox (round robin over workers) and is guaranteed to start on a
      worker of {e this} pool.  Safe from any thread, including
      non-workers and other pools' workers.  Latency note: a worker deep
      in idle backoff picks its inbox up at its next poll — up to the
      backoff cap (1 ms) after a cold start.
      @raise Invalid_argument after {!shutdown}. *)

  val scavenge_source : t -> scavenge_source
  (** This pool's stealable surface, to hand to a sibling's
      {!set_scavenge}.  Stays valid for the pool's lifetime. *)

  val set_scavenge : t -> ?mode:steal_mode -> scavenge_source -> unit
  (** Designate a sibling to raid when idle (see the module-level
      scavenging overview).  [mode] defaults to {!Steal_one}.  May be
      called while running; takes effect at workers' next idle episode.
      @raise Invalid_argument when [src] is this pool's own source. *)

  val clear_scavenge : t -> unit
end
