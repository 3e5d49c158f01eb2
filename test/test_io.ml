open Lhws_runtime
module Pool = Lhws_pool

let with_io_pool f =
  Pool.with_pool ~workers:2 (fun p ->
      let io = Io.create () in
      Pool.register_poller p (fun budget_us -> Io.poll io ~budget_us);
      f p io)

let test_pipe_roundtrip () =
  with_io_pool (fun p io ->
      let r, w = Unix.pipe ~cloexec:true () in
      Fun.protect
        ~finally:(fun () ->
          Unix.close r;
          Unix.close w)
        (fun () ->
          let msg =
            Pool.run p (fun () ->
                let reader =
                  Pool.async p (fun () ->
                      let buf = Bytes.create 5 in
                      Io.read_exactly io r buf 5;
                      Bytes.to_string buf)
                in
                (* writer delays so the reader genuinely parks on the fd *)
                Pool.sleep p 0.01;
                Io.write_all io w (Bytes.of_string "hello");
                Pool.await reader)
          in
          Alcotest.(check string) "round trip" "hello" msg))

let test_read_does_not_block_worker () =
  (* One worker, a fiber parked on an fd, another fiber computing: the
     computation must proceed — the whole point of latency hiding. *)
  Pool.with_pool ~workers:1 (fun p ->
      let io = Io.create () in
      Pool.register_poller p (fun budget_us -> Io.poll io ~budget_us);
      let r, w = Unix.pipe ~cloexec:true () in
      Fun.protect
        ~finally:(fun () ->
          Unix.close r;
          Unix.close w)
        (fun () ->
          let result =
            Pool.run p (fun () ->
                let reader =
                  Pool.async p (fun () ->
                      let buf = Bytes.create 1 in
                      ignore (Io.read io r buf 0 1);
                      Bytes.get buf 0)
                in
                (* compute while the read is pending *)
                let x = Lhws_workloads.Fib.seq 20 in
                Io.write_all io w (Bytes.of_string "z");
                let c = Pool.await reader in
                (x, c))
          in
          Alcotest.(check (pair int char)) "compute + io" (6765, 'z') result))

let test_eof () =
  with_io_pool (fun p io ->
      let r, w = Unix.pipe ~cloexec:true () in
      Unix.close w;
      Fun.protect
        ~finally:(fun () -> Unix.close r)
        (fun () ->
          let n =
            Pool.run p (fun () ->
                let buf = Bytes.create 4 in
                Io.read io r buf 0 4)
          in
          Alcotest.(check int) "eof reads 0" 0 n))

let test_read_exactly_eof_raises () =
  with_io_pool (fun p io ->
      let r, w = Unix.pipe ~cloexec:true () in
      Fun.protect
        ~finally:(fun () -> Unix.close r)
        (fun () ->
          let result =
            Pool.run p (fun () ->
                let writer =
                  Pool.async p (fun () ->
                      ignore (Unix.write w (Bytes.of_string "ab") 0 2);
                      Unix.close w)
                in
                let buf = Bytes.create 4 in
                let r =
                  match Io.read_exactly io r buf 4 with
                  | () -> "full"
                  | exception End_of_file -> "eof"
                in
                Pool.await writer;
                r)
          in
          Alcotest.(check string) "truncated" "eof" result))

let test_many_pipes () =
  with_io_pool (fun p io ->
      let n = 16 in
      let pipes = Array.init n (fun _ -> Unix.pipe ~cloexec:true ()) in
      Fun.protect
        ~finally:(fun () ->
          Array.iter
            (fun (r, w) ->
              Unix.close r;
              try Unix.close w with Unix.Unix_error _ -> ())
            pipes)
        (fun () ->
          let total =
            Pool.run p (fun () ->
                let readers =
                  Array.to_list
                    (Array.mapi
                       (fun i (r, _) ->
                         Pool.async p (fun () ->
                             let buf = Bytes.create 1 in
                             Io.read_exactly io r buf 1;
                             Char.code (Bytes.get buf 0) + i))
                       pipes)
                in
                (* Write in reverse order with pauses: readers resume out of
                   order, exercising the reactor's bookkeeping. *)
                for i = n - 1 downto 0 do
                  let _, w = pipes.(i) in
                  Io.write_all io w (Bytes.make 1 (Char.chr (65 + i)))
                done;
                List.fold_left (fun acc pr -> acc + Pool.await pr) 0 readers)
          in
          let expect = List.fold_left ( + ) 0 (List.init n (fun i -> 65 + i + i)) in
          Alcotest.(check int) "all pipes served" expect total))

let test_pending_count () =
  with_io_pool (fun p io ->
      let r, w = Unix.pipe ~cloexec:true () in
      Fun.protect
        ~finally:(fun () ->
          Unix.close r;
          Unix.close w)
        (fun () ->
          Pool.run p (fun () ->
              let reader =
                Pool.async p (fun () ->
                    let buf = Bytes.create 1 in
                    ignore (Io.read io r buf 0 1))
              in
              Pool.sleep p 0.01;
              Alcotest.(check int) "one parked fiber" 1 (Io.pending io);
              Io.write_all io w (Bytes.of_string "x");
              Pool.await reader;
              Alcotest.(check int) "drained" 0 (Io.pending io))))

let test_fd_error_surfaces () =
  (* Closing a descriptor under a parked fiber must resume it with the
     Unix error, not leave it parked forever (the reactor probes each fd
     when select rejects the whole set). *)
  with_io_pool (fun p io ->
      let r, w = Unix.pipe ~cloexec:true () in
      let outcome =
        Pool.run p (fun () ->
            let reader =
              Pool.async p (fun () ->
                  let buf = Bytes.create 1 in
                  match Io.read io r buf 0 1 with
                  | _ -> "read"
                  | exception Unix.Unix_error (Unix.EBADF, _, _) -> "ebadf")
            in
            Pool.sleep p 0.02;
            (* the reader is parked on [r]; now close it underneath *)
            Unix.close r;
            Pool.await reader)
      in
      Unix.close w;
      Alcotest.(check string) "parked waiter resumed with EBADF" "ebadf" outcome)

let test_io_pending_stat () =
  Pool.with_pool ~workers:2 (fun p ->
      let io = Io.create () in
      Pool.register_poller p ~pending:(fun () -> Io.pending io) (fun budget_us -> Io.poll io ~budget_us);
      let r, w = Unix.pipe ~cloexec:true () in
      Fun.protect
        ~finally:(fun () ->
          Unix.close r;
          Unix.close w)
        (fun () ->
          Pool.run p (fun () ->
              let reader =
                Pool.async p (fun () ->
                    let buf = Bytes.create 1 in
                    ignore (Io.read io r buf 0 1))
              in
              Pool.sleep p 0.01;
              Alcotest.(check int) "gauge counts parked fiber" 1 (Pool.stats p).Pool.io_pending;
              Io.write_all io w (Bytes.of_string "x");
              Pool.await reader;
              Alcotest.(check int) "gauge drains" 0 (Pool.stats p).Pool.io_pending)))

let () =
  Alcotest.run "io"
    [
      ( "reactor",
        [
          Alcotest.test_case "pipe round trip" `Quick test_pipe_roundtrip;
          Alcotest.test_case "read does not block worker" `Quick test_read_does_not_block_worker;
          Alcotest.test_case "eof" `Quick test_eof;
          Alcotest.test_case "read_exactly eof" `Quick test_read_exactly_eof_raises;
          Alcotest.test_case "many pipes" `Quick test_many_pipes;
          Alcotest.test_case "pending count" `Quick test_pending_count;
          Alcotest.test_case "fd error surfaces to parked fiber" `Quick test_fd_error_surfaces;
          Alcotest.test_case "io_pending stats gauge" `Quick test_io_pending_stat;
        ] );
    ]
