(** Submission/completion I/O for fibers: real I/O latency, hidden —
    and batched.

    Fibers submit {e intents} — (fd, direction, an optional kernel
    operation, a completion callback) — into per-worker lock-free
    submission rings.  The worker that wins the pool's pump election
    drains the rings, registers the intents against an incrementally
    maintained interest set, issues {e one} batched readiness pass per
    pump (see {!BACKEND}; [poll(2)]), executes the ready
    operations directly, and delivers completions through the
    callbacks, which resume fibers over the pools' existing MPSC
    resume channels.  Register {!poll} with
    {!Lhws_pool.register_poller} — exactly the polling implementation
    of resume callbacks sketched in Section 6 of the paper.

    All waits must happen on fibers of a suspension-capable pool.  The
    blocking baseline simply issues blocking reads/writes instead —
    that is the comparison the paper draws.

    Descriptor errors are surfaced, never swallowed: a waiter whose fd
    was closed under it is reported ready ([POLLNVAL]), so its own
    syscall raises the [Unix.Unix_error] in the parked fiber. *)

type t

val create : unit -> t

(** {1 The backend seam}

    The readiness mechanism behind {!poll}, kept behind a signature so
    an [epoll] or [io_uring] backend can slot in without touching the
    intent machinery: implement interest registration ([add]/[remove],
    called once per (fd, direction) transition — never per poll) and one
    batched readiness pass ([wait]) that blocks for at most its timeout
    and returns as soon as an fd turns ready.

    The one implementation is a [poll(2)] C stub with an incrementally
    maintained pollfd mirror — no descriptor ceiling, which the
    10k-connection HTTP serving legs require. *)

module type BACKEND = sig
  type t

  val create : unit -> t

  val add : t -> [ `R | `W ] -> Unix.file_descr -> unit
  val remove : t -> [ `R | `W ] -> Unix.file_descr -> unit
  val armed : t -> bool

  val size : t -> int
  (** Distinct descriptors registered: one batched pass walks this many
      entries, so the pump paces its passes proportionally. *)

  val wait : t -> timeout_us:int -> Unix.file_descr list * Unix.file_descr list
  (** One pass: the ready-to-read and ready-to-write fds, waiting up to
      [timeout_us] microseconds for the first one ([0] = non-blocking).
      The poll implementation uses [ppoll(2)]; where that is missing
      the timeout is rounded down to whole milliseconds. *)

  val probe : [ `R | `W ] -> Unix.file_descr -> exn option
  (** Tests one fd alone (the watchdog's stale-registration probe):
      [Some exn] marks a bad fd; [None] means merely not ready. *)
end

(** {1 Descriptor-scale helpers}

    The pieces of the c10k story that are not about intents at all. *)

val poll_single :
  [ `R | `W ] ->
  Unix.file_descr ->
  timeout_ms:int ->
  [ `Ready | `Timeout | `Interrupted ]
(** One descriptor, one direction, a millisecond timeout ([-1] waits
    forever) — the blocking-mode wait primitive, free of [select]'s
    [FD_SETSIZE] ceiling so the threaded baselines can hold thousands
    of connections too.  [`Ready] includes error/hang-up conditions
    (the caller's next syscall surfaces the actual error);
    [`Interrupted] is [EINTR] (recompute the timeout and retry).
    @raise Unix.Unix_error [EBADF] when the descriptor is not open. *)

val raise_nofile : int -> int
(** Best-effort bump of the process's soft [RLIMIT_NOFILE] toward
    [min want hard]; returns the soft limit now in force.  The
    10k-connection bench legs call it so a conservative shell default
    does not read as a scheduler ceiling. *)

(** {1 Intent submission}

    The core entry points.  Submission is lock-free: one CAS onto the
    calling worker's ring. *)

type intent

type outcome =
  | Complete  (** the operation ran (or the fd is ready, for waits) *)
  | Error of exn  (** the operation raised, or the fd turned bad *)
  | Cancelled
      (** a {!cancel} lost its claim race while the pump held the
          intent; delivered so the canceller's deadline still wins *)

val submit :
  t ->
  kind:[ `R | `W ] ->
  fd:Unix.file_descr ->
  run:(unit -> [ `Done | `Again ]) ->
  (outcome -> unit) ->
  intent
(** Enqueues an intent.  Once the fd is ready the pump calls [run]:
    [`Done] means the operation completed (stash results in the
    closure); [`Again] means it would still block — the intent is
    re-armed without a completion; raising delivers [Error].  Exactly
    one completion is delivered unless {!cancel} claims the intent
    first. *)

val cancel : t -> intent -> bool
(** Atomically claims the intent: [true] guarantees its callback will
    never fire iff it had not already fired (or been claimed).  The
    arbiter for wait-vs-deadline races.  When the pump is mid-operation
    on the intent, [cancel] returns [false] and the pump delivers
    either the operation's outcome or [Cancelled] — exactly one of the
    two — so the caller can still lose the race it asked to win. *)

(** {1 Blocking fiber waits} *)

val wait_readable : t -> Unix.file_descr -> unit
(** Suspends the calling fiber until the descriptor is readable.
    @raise Unix.Unix_error if the descriptor turns bad while parked. *)

val wait_writable : t -> Unix.file_descr -> unit
(** Suspends the calling fiber until the descriptor is writable.
    @raise Unix.Unix_error if the descriptor turns bad while parked. *)

val read : t -> Unix.file_descr -> bytes -> int -> int -> int
(** [read t fd buf pos len] waits for readability, then [Unix.read].
    Returns the number of bytes read (0 at end of file).  Wait-first
    (no eager attempt): safe on descriptors still in blocking mode. *)

val write : t -> Unix.file_descr -> bytes -> int -> int -> int
(** Waits for writability, then [Unix.write]. *)

val read_exactly : t -> Unix.file_descr -> bytes -> int -> unit
(** Reads exactly [len] bytes into the buffer's prefix.
    @raise End_of_file if the descriptor closes first. *)

val write_all : t -> Unix.file_descr -> bytes -> unit
(** Writes the whole buffer. *)

(** {1 Vectored I/O}

    ExtUnix-free [writev]: one kernel round trip for a whole buffer
    vector.  A single buffer goes straight through; several are
    coalesced through one scratch copy — the seam where a C [writev(2)]
    stub would slot in without touching call sites. *)

module Iov : sig
  val length : Bytes.t list -> int

  val drop : Bytes.t list -> int -> Bytes.t list
  (** The vector minus its first [n] bytes (resume after a short write). *)

  val take : Bytes.t list -> int -> Bytes.t list
  (** The vector clamped to its first [cap] bytes (injected shorts). *)

  val write : Unix.file_descr -> Bytes.t list -> int
  (** One gathering write; returns bytes written (may be short). *)
end

(** {1 Polling and introspection} *)

val poll : t -> budget_us:int -> int
(** The pump: drains the submission rings, issues at most one batched
    readiness pass, executes ready operations and delivers their
    completions; returns how many completions were delivered (including
    intents failed with a descriptor error).

    With [budget_us = 0] the pass is non-blocking and paced: it is
    skipped when the last pass is more recent than the pacing interval
    (50 us plus 0.2 us per registered fd), which is what busy workers'
    per-iteration pumps use.  With [budget_us > 0] — an idle worker
    handing over its backoff — the pass runs regardless of pacing and
    blocks up to [budget_us] microseconds, returning as soon as an fd
    turns ready.  Nothing blocks when no fiber is parked.  Call from the
    pool's pump (one caller at a time per reactor), e.g.
    [register_poller p (fun budget_us -> Io.poll io ~budget_us)]. *)

val pending : t -> int
(** Intents currently submitted and undecided (parked fibers). *)

val syscalls : t -> int
(** Kernel I/O calls issued through this reactor so far: readiness
    passes, stall-sweep probes, and every operation counted via
    {!count_syscall}.  Feeds the pools' [io_syscalls] stats counter. *)

val count_syscall : t -> unit
(** Adds one kernel I/O call to {!syscalls}.  Called by the layers that
    issue operations outside {!poll} (eager attempts, blocking-mode
    syscalls) so the counter stays a complete census. *)

val oldest_parked_ms : t -> float
(** Age in milliseconds of the oldest intent still armed in this
    reactor (0 when nothing is parked) — the staleness gauge behind the
    pools' [oldest_parked_ms] stats field. *)

val sweep_stalled :
  t ->
  grace:float ->
  ?probe_every:float ->
  fail:(string -> exn) option ->
  unit ->
  int
(** One stall sweep over every live intent older than [grace] seconds
    (younger intents are never touched).  Detects {e lost wakeups} —
    armed intents registered nowhere, which nothing will ever complete
    (exactly what {!chaos_drop_completions} manufactures) — and {e stale
    registrations} — armed intents whose fd the backend's probe rejects,
    the hazard an epoll-style backend's silent auto-deregistration would
    introduce.  With [fail = Some mk], a lost wakeup completes the fiber
    loudly with [Error (mk description)], claiming the intent so a
    racing deadline loses; with [None] it is counted once and left
    parked.  Stale descriptors always complete with the underlying
    [Unix.Unix_error].  Stale-registration probes cost one syscall per
    intent, so each intent is probed at most once per [probe_every]
    seconds (default [max (10 * grace) 1s], mirroring the watchdog's
    stuck-worker threshold) — long-parked idle connections are not
    re-probed on every sweep.  Returns how many stalls were newly
    detected.  Normally driven by {!Watchdog.poll}, not called
    directly. *)

val chaos_drop_completions : t -> every:int -> unit
(** Test-only mutation hook: silently drop every [every]-th completion
    (the submitting fiber stays parked).  Exists so the chaos suite can
    prove a lost completion is {e detected} — deadline waits fire, the
    [io_pending] gauge sticks — rather than hanging the run.  [0]
    disables. *)
