(** Fibers: user-level threads that can suspend without blocking their
    worker, via OCaml 5 effects.

    A latency-incurring operation calls {!suspend}[ register]: the
    scheduler captures the fiber's continuation, builds a [resume] thunk
    that will re-enqueue it, and hands [resume] to [register].  [register]
    arranges for [resume] to be called exactly once when the operation
    completes (timer expiry, promise fulfilment, I/O readiness, ...).
    [resume] is safe to call from any domain. *)

type _ Effect.t +=
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t
        (** Performed by {!suspend}; handled by the schedulers. *)

val suspend : ((unit -> unit) -> unit) -> unit
(** [suspend register] suspends the current fiber.  Must run on a
    scheduler worker; otherwise the effect is unhandled and raises
    [Effect.Unhandled]. *)

val yield : unit -> unit
(** Suspend and immediately re-enqueue: lets other work run first. *)

val block : ((unit -> unit) -> unit) -> unit
(** {!suspend}'s contract for code on a plain thread: [block register]
    hands [register] a [resume] and blocks the calling thread on a
    mutex and condition until [resume] is called (possibly before
    [register] returns, possibly from another thread).  The wait
    occupies the thread, as a blocking sleep would. *)
