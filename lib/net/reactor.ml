open Lhws_runtime

type mode =
  | Fibers of { io : Io.t; timer : Timer.t }
  | Blocking

type t = { mode : mode; fault : Fault.t option }

(* A write into a peer-closed socket raises EPIPE only if SIGPIPE is not
   delivered first — by default it kills the process.  Every write path
   here handles EPIPE (close the conn, surface Net.Closed), so the signal
   carries no information we want; ignore it once, at reactor creation,
   like any socket-serving runtime.  [try] guards platforms without it. *)
let ignore_sigpipe =
  lazy (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ())

(* An idle worker's wait budget, cut at this reactor's earliest
   deadline.  The pool clamps the budget to its own timer only; this
   reactor's deadline timer is separate, so without the cut a [Conn]
   deadline could fall inside an in-backend wait. *)
let until_deadline timer budget_us =
  let hint = Timer.next_deadline_hint timer in
  if budget_us = 0 || hint = infinity then budget_us
  else min budget_us (max 0 (int_of_float ((hint -. Unix.gettimeofday ()) *. 1e6)))

let fibers ~register ?fault ?watchdog () =
  Lazy.force ignore_sigpipe;
  let io = Io.create () in
  let timer = Timer.create () in
  (* Pollers run last-registered-first, so the deadline timer runs right
     after the readiness pass: a deadline that ends an idle worker's
     wait fires in the same pump, before the worker sleeps. *)
  register ~pending:None ~syscalls:None (fun _budget_us -> Timer.poll timer);
  register
    ~pending:(Some (fun () -> Io.pending io))
    ~syscalls:(Some (fun () -> Io.syscalls io))
    (fun budget_us -> Io.poll io ~budget_us:(until_deadline timer budget_us));
  (* Watchdog sweep rides the same pump as Io.poll.  Registered last, so
     it runs before the poll pass — harmless either way:
     [Io.sweep_stalled] drains the submission rings itself before
     judging intents. *)
  (match watchdog with
  | None -> ()
  | Some wd ->
      Watchdog.attach_io wd io;
      register ~pending:None ~syscalls:None (fun _budget_us -> Watchdog.poll wd));
  { mode = Fibers { io; timer }; fault }

let blocking ?fault () =
  Lazy.force ignore_sigpipe;
  { mode = Blocking; fault }

let is_fibers t = match t.mode with Fibers _ -> true | Blocking -> false

let fault t = t.fault

(* Sleep without holding a worker in fiber mode: park the fiber on the
   reactor's deadline timer (the same one racing I/O waits).  Blocking
   mode just blocks — that is its cost model.  Used by injected-latency
   faults and retry backoff. *)
let sleep t d =
  if d > 0. then
    match t.mode with
    | Blocking -> Unix.sleepf d
    | Fibers { timer; _ } ->
        let deadline = Unix.gettimeofday () +. d in
        Fiber.suspend (fun resume -> Timer.add timer ~deadline resume)

(* Blocking pools park in [poll(2)] itself ({!Io.poll_single} — select
   would cap descriptor numbers at FD_SETSIZE, far below the serving
   layer's connection counts); the deadline becomes its timeout, so a
   dead peer still cannot hold a worker forever.  poll's millisecond
   granularity rounds the timeout {e up}: a deadline may be overshot by
   up to 1 ms but never fires early with the fd unready. *)
let wait_blocking kind fd ~deadline =
  let kind = match kind with `Readable -> `R | `Writable -> `W in
  let timeout_ms () =
    match deadline with
    | None -> -1 (* no deadline: block until ready *)
    | Some d ->
        let left = d -. Unix.gettimeofday () in
        if left <= 0. then 0 else int_of_float (ceil (left *. 1000.))
  in
  let rec go () =
    match Io.poll_single kind fd ~timeout_ms:(timeout_ms ()) with
    | `Ready -> ()
    | `Interrupted -> go ()
    | `Timeout ->
        if deadline = None then go () (* spurious zero-timeout wake *)
        else if timeout_ms () = 0 then raise Net.Timeout
        else go ()
  in
  go ()

(* --- the submission/completion operation driver --- *)

type verdict = Ready | Timed_out | Bad of exn

(* Fiber mode: try [exec] inline once (eager completion — most loopback
   operations succeed immediately and never touch the reactor); on
   would-block, submit an intent whose pump-side [run] re-issues [exec]
   directly when the fd turns ready, stashing the result, so the fiber
   wakes with its operation already done.  The park races [deadline]
   through {!Io.cancel}: both the completion and the timer callback
   funnel through the reactor's intent-state mutex, and the timer side
   only wins if it claims the still-armed intent, so exactly one of them
   resumes the fiber, exactly once.

   Exceptions from [exec] other than EAGAIN/EINTR — kernel errors and
   injected faults alike, whether raised inline or in the pump — re-raise
   in the calling fiber, so call-site handlers see exactly what a plain
   syscall would have thrown. *)
let run_io_fibers io timer kind fd ~deadline ~eager ~exec =
  let ikind = match kind with `Readable -> `R | `Writable -> `W in
  let counted () =
    Io.count_syscall io;
    exec ()
  in
  let park () =
    let res = ref None in
    let verdict = ref Ready in
    let th = ref None in
    Fiber.suspend (fun resume ->
        let rec run () =
          match counted () with
          | v ->
              res := Some v;
              `Done
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> run ()
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              `Again
        in
        let w =
          Io.submit io ~kind:ikind ~fd ~run (fun o ->
              (match o with
              | Io.Complete -> ()
              | Io.Cancelled -> verdict := Timed_out
              | Io.Error e -> verdict := Bad e);
              resume ())
        in
        match deadline with
        | None -> ()
        | Some d ->
            th :=
              Some
                (Timer.add_cancellable timer ~deadline:d (fun () ->
                     if Io.cancel io w then begin
                       verdict := Timed_out;
                       resume ()
                     end)));
    (* Withdraw the deadline entry when the I/O side won, so operations
       with long timeouts don't pile dead closures into the timer heap.
       Harmless if the timer fired (it removed itself) or is firing (its
       [Io.cancel] lost the race and does nothing). *)
    (match !th with None -> () | Some h -> Timer.cancel timer h);
    match !verdict with
    (* [Complete] is only delivered after [run] stashed a result. *)
    | Ready -> Option.get !res
    | Timed_out -> raise Net.Timeout
    | Bad e -> raise e
  in
  let rec attempt () =
    match counted () with
    | v -> v
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> attempt ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> park ()
  in
  if eager then attempt () else park ()

(* Blocking mode keeps the pre-change shape: enforce the deadline up
   front by waiting with a timeout (a blocking op cannot be interrupted
   mid-call), then loop the plain syscall. *)
let run_io_blocking kind fd ~deadline ~exec =
  let rec go () =
    match exec () with
    | v -> v
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        wait_blocking kind fd ~deadline;
        go ()
  in
  if deadline <> None then wait_blocking kind fd ~deadline;
  go ()

let run_io t ?deadline ?(eager = true) kind fd ~exec =
  match t.mode with
  | Fibers { io; timer } -> run_io_fibers io timer kind fd ~deadline ~eager ~exec
  | Blocking -> run_io_blocking kind fd ~deadline ~exec

(* Expose the reactor's I/O counter for benches that want syscalls/op
   without going through a pool's stats plumbing. *)
let io_syscalls t = match t.mode with Fibers { io; _ } -> Io.syscalls io | Blocking -> 0

(* Test-only: see {!Lhws_runtime.Io.chaos_drop_completions}. *)
let chaos_drop_completions t ~every =
  match t.mode with
  | Fibers { io; _ } -> Io.chaos_drop_completions io ~every
  | Blocking -> ()
