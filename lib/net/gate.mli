(** Parking coordination for [lib/net]: a counter whose waiters park
    and are resumed by the event that lets them through.

    One gate serves as a lock ({!with_lock}), as an in-flight counter
    with a cap ([enter] / [leave] / [wait_below n]), or as a drain
    ([wait_below 1]).  A waiter parks with its pool's
    {!Lhws_workloads.Pool_intf.POOL.suspend}: the fiber suspends on the
    latency-hiding pool, the thread blocks on the others.  Nothing polls
    on a timer, and a holder may resume on a different worker than the
    one it parked on.

    A parked waiter is not an I/O intent, so the stall watchdog cannot
    see it: every path that lets a waiter through must go through
    {!leave}. *)

type park = ((unit -> unit) -> unit) -> unit
(** A pool's [suspend], applied to the pool: [P.suspend pool]. *)

val await : park -> 'a Lhws_runtime.Promise.t -> unit
(** Parks until the promise resolves; returns at once if it has. *)

type t

val create : park -> t
(** A gate with count 0. *)

val enter : ?below:int -> t -> unit
(** Parks until the count is below [below] (default: no bound), then
    adds one.  Admission is not ordered: a waiter woken by {!leave}
    competes with new arrivals. *)

val leave : t -> unit
(** Subtracts one and wakes every waiter to re-check the count. *)

val wait_below : t -> int -> unit
(** Parks until the count is below the given bound; does not change
    the count. *)

val with_lock : t -> (unit -> 'a) -> 'a
(** [enter ~below:1], run the function, then [leave], also on an
    exception: one holder at a time. *)

val count : t -> int
