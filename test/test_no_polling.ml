(* No-polling regression: lib/net's coordination waits (outbox writers,
   the pipeline cap, handler drains, write locks, client close) must
   park and be resumed by the event they wait for, never loop on the
   pool's timer.  The pool below counts every [sleep] lib/net makes
   through it; a run that exercises each wait site must count zero.
   The test's own pacing goes through the uncounted instance. *)

open Lhws_runtime
module P = Lhws_workloads.Pool_intf
module Net = Lhws_net.Net
module Reactor = Lhws_net.Reactor
module Listener = Lhws_net.Listener
module Rpc = Lhws_net.Rpc
module Http = Lhws_net.Http
module Resilience = Lhws_net.Resilience

module Counting = struct
  include P.Lhws_instance

  let sleeps = Atomic.make 0

  let sleep t d =
    Atomic.incr sleeps;
    P.Lhws_instance.sleep t d
end

module Pl = P.Lhws_instance

let loopback0 = Unix.ADDR_INET (Unix.inet_addr_loopback, 0)

let with_counting_net f =
  Lhws_pool.with_pool ~workers:2 (fun p ->
      let rt =
        Reactor.fibers
          ~register:(fun ~pending ~syscalls poll ->
            Lhws_pool.register_poller p ?pending ?syscalls poll)
          ()
      in
      Pl.run p (fun () ->
          Atomic.set Counting.sleeps 0;
          f p rt))

let check_no_sleeps what =
  Alcotest.(check int) (what ^ ": lib/net slept on the pool timer") 0
    (Atomic.get Counting.sleeps)

(* More requests than [max_pipeline] in flight on one connection, and
   within each window of [cap] the later handlers finish first, so
   responses wait in the outbox for earlier ones and the decode loop
   waits at the cap. *)
let test_http_reverse_pipeline () =
  with_counting_net (fun p rt ->
      let cap = 4 and n = 16 in
      let router =
        Http.Router.create
          [
            Http.Router.route ~meth:"GET" "/r/:i" (fun params _ ->
                let i = int_of_string (List.assoc "i" params) in
                Pl.sleep p (0.002 *. float_of_int (cap - (i mod cap)));
                Http.text (string_of_int i));
          ]
      in
      let config = { Http.default_config with max_pipeline = cap } in
      let srv = Http.serve_router (module Counting) p rt ~config loopback0 ~router in
      let cl = Http.Client.connect (module Counting) p rt (Http.addr srv) in
      let calls =
        List.init n (fun i ->
            Http.Client.call cl ~meth:"GET" ~target:(Printf.sprintf "/r/%d" i) ())
      in
      List.iteri
        (fun i c ->
          let r = Pl.await p c in
          Alcotest.(check int) "status" 200 r.Http.Client.status;
          Alcotest.(check string) "response in request order" (string_of_int i)
            (Bytes.to_string r.Http.Client.body))
        calls;
      Http.Client.close cl;
      check_no_sleeps "http";
      Http.shutdown ~grace:2. srv)

(* 512 KiB frames overflow the socket buffer, so writers park mid-write
   while others queue behind them. *)
let test_rpc_large_writers () =
  with_counting_net (fun p rt ->
      let size = 512 * 1024 and k = 8 in
      let l = Rpc.serve (module Counting) p rt loopback0 ~handler:Fun.id in
      let client = Rpc.Client.connect (module Counting) p rt (Listener.addr l) in
      let payload i = Bytes.make size (Char.chr (Char.code 'a' + i)) in
      let tasks =
        List.init k (fun i ->
            Pl.async p (fun () ->
                Bytes.equal (Pl.await p (Rpc.Client.call client (payload i))) (payload i)))
      in
      Alcotest.(check bool) "every frame echoed intact" true
        (List.for_all (fun t -> Pl.await p t) tasks);
      Rpc.Client.close client;
      check_no_sleeps "rpc";
      Listener.shutdown ~grace:2. l)

(* The server hangs up the first connection at once, so concurrent
   calls race through the client's lock to drop it and dial again.  A
   zero backoff keeps the retry path free of deliberate sleeps. *)
let test_resilience_reconnect_race () =
  with_counting_net (fun p rt ->
      let accepted = Atomic.make 0 in
      let l =
        Listener.serve (module Counting) p rt loopback0 ~handler:(fun conn ->
            if Atomic.fetch_and_add accepted 1 > 0 then
              Rpc.serve_handler (module Counting) p ~handler:Fun.id conn)
      in
      let policy = Resilience.Retry.policy ~max_attempts:8 ~base_backoff:0. ~max_backoff:0. () in
      let client = Resilience.Client.create (module Counting) p rt ~policy (Listener.addr l) in
      let tasks =
        List.init 8 (fun i ->
            Pl.async p (fun () ->
                let msg = Bytes.of_string (string_of_int i) in
                Bytes.equal (Resilience.Client.call client msg) msg))
      in
      Alcotest.(check bool) "every call answered" true
        (List.for_all (fun t -> Pl.await p t) tasks);
      Alcotest.(check bool) "the client reconnected" true
        (Resilience.Client.reconnects client >= 1);
      Resilience.Client.close client;
      check_no_sleeps "resilience";
      Listener.shutdown ~grace:2. l)

let () =
  Alcotest.run "no_polling"
    [
      ( "no-polling",
        [
          Alcotest.test_case "http reverse-order pipeline past the cap" `Quick
            test_http_reverse_pipeline;
          Alcotest.test_case "rpc concurrent 512 KiB writers" `Quick
            test_rpc_large_writers;
          Alcotest.test_case "resilience calls racing a reconnect" `Quick
            test_resilience_reconnect_race;
        ] );
    ]
