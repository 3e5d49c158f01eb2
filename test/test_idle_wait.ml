(* Idle workers wait in the readiness backend.

   When a worker finds nothing to run, the one holding the pump
   election hands up to the base backoff (50 us) of its idle backoff to
   the pollers: {!Io.poll} waits in ppoll(2) and returns as soon as an
   fd turns ready; the worker sleeps only what the pollers left unused.
   These cases pin what that must not break:

   - a fiber parked on a {e new} fd by one worker, while the other sits
     in the backend waiting on an older one, still resumes, once;
   - a pool-timer sleep added during such a wait is not overslept by
     the wait (the in-backend wait is bounded);
   - a pool with nothing armed still sleeps instead of spinning, read
     off the workers' heartbeat counters;
   - a reactor read deadline on an idle pool still fires: the wait is
     cut at the reactor's own deadline timer.

   Where a case waits on wall time its bound is loose enough for a
   loaded host; a wait that ignored its budget would blow it by
   seconds. *)

open Lhws_runtime
module Pool = Lhws_pool
module Net = Lhws_net.Net
module Reactor = Lhws_net.Reactor
module Conn = Lhws_net.Conn

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Runs [f]; if it has not returned after [after] seconds, a guard
   thread calls [rescue], which makes an fd ready so that a worker stuck
   in an unbounded backend wait gets out and the case fails on its own
   assertions instead of hanging the suite. *)
let with_guard ~after ~rescue f =
  let done_r, done_w = Unix.pipe ~cloexec:true () in
  let guard =
    Thread.create
      (fun () ->
        match Unix.select [ done_r ] [] [] after with
        | [], _, _ -> rescue ()
        | _ -> ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.write done_w (Bytes.of_string "x") 0 1 : int);
      Thread.join guard;
      List.iter close_quietly [ done_r; done_w ])
    f

(* A pool whose reactor always has a parked fiber, on a pipe nobody
   writes, so the pump worker's idle wait really blocks in the backend.
   The fiber re-parks until [f] returns.  The guard's rescue writes the
   pipe without draining it, and runs [rescue] for any other fd [f]
   parks on, so no registered fd is left that could block the backend
   again. *)
let with_armed_pool ?(workers = 2) ?(rescue = ignore) f =
  Pool.with_pool ~workers (fun p ->
      let io = Io.create () in
      Pool.register_poller p ~pending:(fun () -> Io.pending io) (fun budget_us ->
          Io.poll io ~budget_us);
      let idle_r, idle_w = Unix.pipe ~cloexec:true () in
      let poke () = ignore (Unix.write idle_w (Bytes.of_string "x") 0 1 : int) in
      let finished = Atomic.make false in
      Fun.protect
        ~finally:(fun () -> List.iter close_quietly [ idle_r; idle_w ])
        (fun () ->
          with_guard ~after:3.0
            ~rescue:(fun () ->
              poke ();
              rescue ())
            (fun () ->
              Pool.run p (fun () ->
                  let parked =
                    Pool.async p (fun () ->
                        while not (Atomic.get finished) do
                          Io.wait_readable io idle_r
                        done)
                  in
                  Fun.protect
                    ~finally:(fun () ->
                      Atomic.set finished true;
                      poke ();
                      Pool.await parked)
                    (fun () -> f p io)))))

(* --- a fresh fd, submitted while the pump waits on an older one --- *)

let test_fresh_fd_resumes_once () =
  let r, w = Unix.pipe ~cloexec:true () in
  Fun.protect
    ~finally:(fun () -> List.iter close_quietly [ r; w ])
    (fun () ->
      let write_w () = ignore (Unix.write w (Bytes.of_string "y") 0 1 : int) in
      with_armed_pool ~rescue:write_w (fun p io ->
          let resumed = Atomic.make 0 in
          let t0 = Unix.gettimeofday () in
          (* Let both workers run out of work: the pump holder is now
             waiting in the backend on the idle pipe only. *)
          Pool.sleep p 0.02;
          let waiter =
            Pool.async p (fun () ->
                Io.wait_readable io r;
                Atomic.incr resumed;
                Unix.gettimeofday ())
          in
          (* The waiter parks on [r], an fd the backend has never seen. *)
          Pool.sleep p 0.01;
          Alcotest.(check int) "parked, not resumed" 0 (Atomic.get resumed);
          write_w ();
          let woke = Pool.await waiter in
          Pool.sleep p 0.02;
          Alcotest.(check int) "resumed exactly once" 1 (Atomic.get resumed);
          Alcotest.(check int) "only the idle parker is left" 1 (Io.pending io);
          (* 30 ms of sleeps; a pump stuck in the backend would take
             until the guard's rescue. *)
          if woke -. t0 > 1.0 then Alcotest.failf "woke %.3f s after the start" (woke -. t0)))

(* --- a pool-timer sleep added while the pump waits in the backend --- *)

let test_pool_sleep_not_overslept () =
  with_armed_pool (fun p _io ->
      let d = 0.002 in
      (* A backend wait that ignored its budget would hold the pump, and
         with it the pool timer, until the guard's rescue: seconds.  The
         smallest oversleep of ten, held to a tighter bound, filters the
         host's own stalls. *)
      let over =
        List.init 10 (fun _ ->
            let t0 = Unix.gettimeofday () in
            Pool.sleep p d;
            Unix.gettimeofday () -. t0 -. d)
      in
      List.iter
        (fun o ->
          if o < -1e-4 then Alcotest.failf "woke %.6f s early" (-.o);
          if o > 1.0 then Alcotest.failf "overslept by %.3f s" o)
        over;
      let best = List.fold_left Float.min infinity over in
      if best > 0.01 then Alcotest.failf "every sleep overslept, best by %.4f s" best)

(* --- nothing armed: idle workers still sleep --- *)

(* Heartbeats (scheduling-loop iterations) gained by the pool's idle
   worker while the root task holds the other one for 100 ms.  The
   worker running the root is inside a task and does not beat, so the
   sum over workers is the idle one's count wherever the root landed. *)
let idle_beats register =
  Pool.with_pool ~workers:2 (fun p ->
      register p;
      Pool.run p (fun () ->
          let beats () = Array.fold_left ( + ) 0 (Pool.heartbeats p) in
          let before = beats () in
          Unix.sleepf 0.1;
          beats () - before))

(* An idle worker sleeps at least the base backoff (50 us) per
   iteration after its first 16 spins, so 100 ms allow ~2000 beats; a
   worker that spun would count hundreds of thousands. *)
let check_sleeps label beats =
  if beats > 2000 then Alcotest.failf "%s: idle worker looped %d times in 100 ms" label beats

let test_no_io_sleeps () = check_sleeps "no pollers" (idle_beats (fun _ -> ()))

let test_unarmed_reactor_sleeps () =
  check_sleeps "unarmed reactor"
    (idle_beats (fun p ->
         let io = Io.create () in
         Pool.register_poller p (fun budget_us -> Io.poll io ~budget_us)))

(* --- a reactor read deadline on an idle 1-worker pool --- *)

let test_read_deadline_fires () =
  Pool.with_pool ~workers:1 (fun p ->
      let rt =
        Reactor.fibers
          ~register:(fun ~pending ~syscalls poll ->
            Pool.register_poller p ?pending ?syscalls poll)
          ()
      in
      let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> close_quietly b)
        (fun () ->
          let timeout = 0.005 in
          let rescue () = ignore (Unix.write b (Bytes.of_string "z") 0 1 : int) in
          let elapsed =
            with_guard ~after:3.0 ~rescue @@ fun () ->
            Pool.run p (fun () ->
                let c = Conn.create rt ~read_timeout:timeout a in
                Fun.protect
                  ~finally:(fun () -> Conn.close c)
                  (fun () ->
                    let t0 = Unix.gettimeofday () in
                    match Conn.read c (Bytes.create 1) 0 1 with
                    | _ -> Alcotest.fail "no deadline fired before the guard wrote"
                    | exception Net.Timeout -> Unix.gettimeofday () -. t0))
          in
          if elapsed < timeout -. 1e-4 then Alcotest.failf "fired early, at %.4f s" elapsed;
          if elapsed > 1.0 then Alcotest.failf "fired late, at %.3f s" elapsed))

let () =
  Alcotest.run "idle_wait"
    [
      ( "backend wait",
        [
          Alcotest.test_case "fresh fd resumes once" `Quick test_fresh_fd_resumes_once;
          Alcotest.test_case "pool sleep not overslept" `Quick test_pool_sleep_not_overslept;
          Alcotest.test_case "read deadline fires" `Quick test_read_deadline_fires;
        ] );
      ( "no busy loop",
        [
          Alcotest.test_case "no pollers" `Quick test_no_io_sleeps;
          Alcotest.test_case "unarmed reactor" `Quick test_unarmed_reactor_sleeps;
        ] );
    ]
