(* Gate and Outbox contracts, on the latency-hiding pool over the fiber
   reactor and on the thread-per-task pool over the blocking reactor:

   - the Gate lock admits one holder at a time, even when holders park
     inside it and resume elsewhere;
   - a [wait_below] waiter is released by the [leave] that brings the
     count under its bound, and not before;
   - in sequence mode, frames completed in reverse order leave in order,
     in one vectored write;
   - a failed write (a fault-plane EPIPE) raises in exactly the writers
     of its batch and closes the connection; frames behind it see
     Net.Closed instead of hanging;
   - frames enqueued while a flush is parked on a full socket leave
     once it completes, with no further send to prompt them.

   A parked Gate or Outbox waiter is not an I/O intent, so the stall
   watchdog cannot catch a lost release: these tests pin each release
   path instead. *)

module P = Lhws_workloads.Pool_intf
module Net = Lhws_net.Net
module Reactor = Lhws_net.Reactor
module Conn = Lhws_net.Conn
module Fault = Lhws_net.Fault
module Gate = Lhws_net.Gate
module Outbox = Lhws_net.Outbox

module type ENV = sig
  module Pool : P.POOL

  val with_env : ?fault:Fault.t -> (Pool.t -> Reactor.t -> unit) -> unit
end

module Lhws_env = struct
  module Pool = P.Lhws_instance

  let with_env ?fault f =
    Lhws_runtime.Lhws_pool.with_pool ~workers:2 (fun p ->
        let rt =
          Reactor.fibers
            ~register:(fun ~pending ~syscalls poll ->
              Lhws_runtime.Lhws_pool.register_poller p ?pending ?syscalls poll)
            ?fault ()
        in
        Pool.run p (fun () -> f p rt))
end

module Threads_env = struct
  module Pool = P.Threaded_instance

  let with_env ?fault f =
    let p = Pool.create ~workers:2 () in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown p)
      (fun () -> Pool.run p (fun () -> f p (Reactor.blocking ?fault ())))
end

let socketpair () = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0

let read_exactly fd n =
  let b = Bytes.create n in
  let rec go pos =
    if pos < n then
      match Unix.read fd b pos (n - pos) with
      | 0 -> Bytes.sub_string b 0 pos
      | k -> go (pos + k)
    else Bytes.to_string b
  in
  go 0

module Contract (E : ENV) = struct
  module Pool = E.Pool

  let pause p = Pool.sleep p 0.02

  let test_lock_exclusive () =
    E.with_env (fun p _rt ->
        let g = Gate.create (Pool.suspend p) in
        let inside = Atomic.make 0 and peak = Atomic.make 0 and entries = Atomic.make 0 in
        let holder () =
          for _ = 1 to 20 do
            Gate.with_lock g (fun () ->
                let n = Atomic.fetch_and_add inside 1 + 1 in
                if n > Atomic.get peak then Atomic.set peak n;
                Atomic.incr entries;
                (* Park while holding: the holder may resume on another
                   worker while the others queue. *)
                Pool.sleep p 0.0005;
                Atomic.decr inside)
          done
        in
        List.init 3 (fun _ -> Pool.async p holder) |> List.iter (Pool.await p);
        Alcotest.(check int) "one holder at a time" 1 (Atomic.get peak);
        Alcotest.(check int) "every entry admitted" 60 (Atomic.get entries);
        Alcotest.(check int) "released" 0 (Gate.count g))

  let test_wait_below () =
    E.with_env (fun p _rt ->
        let g = Gate.create (Pool.suspend p) in
        for _ = 1 to 3 do
          Gate.enter g
        done;
        let released = Atomic.make 0 in
        let waiter =
          Pool.async p (fun () ->
              Gate.wait_below g 2;
              Atomic.incr released;
              Gate.count g)
        in
        pause p;
        Alcotest.(check int) "parked at 3" 0 (Atomic.get released);
        Gate.leave g;
        pause p;
        Alcotest.(check int) "still parked at 2" 0 (Atomic.get released);
        Gate.leave g;
        Alcotest.(check int) "released at 1" 1 (Pool.await p waiter);
        Alcotest.(check int) "released once" 1 (Atomic.get released))

  let frame s = [ Bytes.of_string (Printf.sprintf "<%d>" s) ]

  let test_reverse_one_writev () =
    (* A fault plane with every rate at zero injects nothing but draws
       one decision per write attempt, which counts writes on either
       reactor. *)
    let fault = Fault.create Fault.disabled in
    E.with_env ~fault (fun p rt ->
        let a, b = socketpair () in
        let conn = Conn.create rt a in
        Fun.protect ~finally:(fun () -> Conn.close conn; Unix.close b) @@ fun () ->
        let ob = Outbox.create (Pool.suspend p) in
        let k = 6 in
        let seqs = List.init k (fun _ -> Outbox.reserve ob) in
        let tasks =
          List.rev_map
            (fun s ->
              let t = Pool.async p (fun () -> Outbox.send ob conn ~seq:s (frame s)) in
              Pool.sleep p 0.002;
              t)
            (List.tl seqs)
        in
        pause p;
        let writes0 = Fault.decisions fault and sys0 = Reactor.io_syscalls rt in
        Outbox.send ob conn ~seq:0 (frame 0);
        List.iter (Pool.await p) tasks;
        Alcotest.(check int) "one write carried every frame" 1
          (Fault.decisions fault - writes0);
        if Reactor.is_fibers rt then
          Alcotest.(check int) "one syscall" 1 (Reactor.io_syscalls rt - sys0);
        Alcotest.(check string) "request order on the wire" "<0><1><2><3><4><5>"
          (read_exactly b 18))

  let test_failed_batch () =
    let fault = Fault.create { Fault.disabled with seed = 7; p_error = 1.0 } in
    E.with_env ~fault (fun p rt ->
        let a, b = socketpair () in
        let conn = Conn.create rt a in
        Fun.protect ~finally:(fun () -> Conn.close conn; Unix.close b) @@ fun () ->
        let ob = Outbox.create (Pool.suspend p) in
        let send s =
          match Outbox.send ob conn ~seq:s (frame s) with
          | () -> "sent"
          | exception Net.Closed -> "closed"
          | exception e -> Printexc.to_string e
        in
        (* 1 and 2 wait for 0; 4 waits for 3, so it is not in 0's batch. *)
        let waiting = List.map (fun s -> (s, Pool.async p (fun () -> send s))) [ 1; 2; 4 ] in
        pause p;
        Alcotest.(check string) "the flusher's own frame failed" "closed" (send 0);
        List.iter
          (fun s ->
            Alcotest.(check string) (Printf.sprintf "batch writer %d failed" s) "closed"
              (Pool.await p (List.assoc s waiting)))
          [ 1; 2 ];
        Alcotest.(check int) "one injected write failure" 1 (Fault.injected fault).errors;
        Alcotest.(check bool) "connection closed" true (Conn.is_closed conn);
        pause p;
        Alcotest.(check bool) "the frame outside the batch still waits" false
          (Lhws_runtime.Promise.is_resolved (List.assoc 4 waiting));
        Alcotest.(check string) "a later frame sees Net.Closed" "closed" (send 3);
        Alcotest.(check string) "so does the frame it released" "closed"
          (Pool.await p (List.assoc 4 waiting));
        Alcotest.(check int) "no second injected failure" 1 (Fault.injected fault).errors;
        Alcotest.(check string) "nothing reached the peer" "" (read_exactly b 1))

  (* Frames enqueued while a flush is parked on a full socket wait for
     it; when it completes they must be written without any further
     send to prompt it. *)
  let test_queued_behind_parked_flush () =
    E.with_env (fun p rt ->
        let a, b = socketpair () in
        Unix.setsockopt_int a Unix.SO_SNDBUF 4096;
        let conn = Conn.create rt a in
        Fun.protect ~finally:(fun () -> Conn.close conn; Unix.close b) @@ fun () ->
        let ob = Outbox.create (Pool.suspend p) in
        let big = Bytes.make (1024 * 1024) 'a' in
        let first = Pool.async p (fun () -> Outbox.send ob conn [ big ]) in
        pause p;
        let queued = List.map (fun s -> Pool.async p (fun () -> Outbox.send ob conn (frame s))) [ 1; 2 ] in
        pause p;
        let tasks = first :: queued in
        Alcotest.(check bool) "all wait on the full socket" false
          (List.exists Lhws_runtime.Promise.is_resolved tasks);
        let total = Bytes.length big + 6 in
        let got = ref "" in
        let reader = Thread.create (fun () -> got := read_exactly b total) () in
        let deadline = Unix.gettimeofday () +. 5. in
        while
          (not (List.for_all Lhws_runtime.Promise.is_resolved tasks))
          && Unix.gettimeofday () < deadline
        do
          Pool.sleep p 0.005
        done;
        Alcotest.(check bool) "every queued frame was written" true
          (List.for_all Lhws_runtime.Promise.is_resolved tasks);
        List.iter (Pool.await p) tasks;
        Thread.join reader;
        Alcotest.(check bool) "both frames intact after the big one" true
          (List.mem (String.sub !got (Bytes.length big) 6) [ "<1><2>"; "<2><1>" ]))

  let suite =
    [
      Alcotest.test_case "gate lock: one holder, 3 racers" `Quick test_lock_exclusive;
      Alcotest.test_case "gate wait_below releases at the bound" `Quick test_wait_below;
      Alcotest.test_case "seq frames in reverse leave in one write" `Quick
        test_reverse_one_writev;
      Alcotest.test_case "EPIPE fails exactly its batch" `Quick test_failed_batch;
      Alcotest.test_case "frames queued behind a parked flush leave" `Quick
        test_queued_behind_parked_flush;
    ]
end

module Lhws = Contract (Lhws_env)
module Threads = Contract (Threads_env)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "outbox" [ ("lhws", Lhws.suite); ("threads", Threads.suite) ]
