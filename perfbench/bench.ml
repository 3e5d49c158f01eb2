(* The measured process of the benchmark, driven by run.py.

     bench.exe mapreduce ...    the paper's Figure 11 on the real runtime
     bench.exe http-server ...  the lhws HTTP server child of gen.exe

   Everything here times calls into lhws's public interface; nothing of
   lhws is changed or reached into.  The load side (the delta remote and
   the HTTP generator) lives in gen.exe, which links no lhws code. *)

module Pstats = Perfbench_util.Pstats
module Proc = Perfbench_util.Proc
module Spans = Perfbench_util.Spans
module Lhws_pool = Lhws_runtime.Lhws_pool
module Tracing = Lhws_runtime.Tracing
module Pool = Lhws_workloads.Pool_intf.Lhws_instance
module Fib = Lhws_workloads.Fib
module Reactor = Lhws_net.Reactor
module Rpc = Lhws_net.Rpc
module Http = Lhws_net.Http
module Conn = Lhws_net.Conn
module Net_map_reduce = Lhws_net.Net_map_reduce

let now = Pstats.now

let reactor_of p =
  Reactor.fibers
    ~register:(fun ~pending ~syscalls poll -> Lhws_pool.register_poller p ?pending ?syscalls poll)
    ()

(* Median time of fib(20) on an otherwise idle process: the host-speed
   control that no scheduler change should move. *)
let fib_calibration_us () =
  Array.init 201 (fun _ ->
      let t = Pstats.mono () in
      ignore (Sys.opaque_identity (Fib.seq 20));
      (Pstats.mono () -. t) *. 1e6)
  |> Pstats.median

(* Process-wide counters of the measured process. *)
type counters = { alloc_words : float; cpu_s : float }

let counters () =
  let g = Gc.quick_stat () in
  let t = Unix.times () in
  {
    alloc_words = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words;
    cpu_s = t.Unix.tms_utime +. t.Unix.tms_stime;
  }

let busy_us tracer =
  List.fold_left
    (fun acc (e : Tracing.event) -> if e.kind = Tracing.Task_run then acc +. e.dur_us else acc)
    0. (Tracing.events tracer)

(* ------------------------------------------------------------------ *)
(* mapreduce: Sum over n keys of fetch(key) + fib(fib_n) on a 2-worker
   pool, every key fetched over two pipelined Rpc connections from the
   delta remote.  Two job shapes alternate: the Figure 11 job (fib 20,
   compute hides fetch latency) gives items_per_s and the per-fetch
   latency; the fetch-only job (fib 0) gives the fetch capacity. *)

let n = 40_000

let fig11_fib = 20

(* A fetch of a failed job counts as waiting out the Rpc read timeout,
   so it misses every latency limit. *)
let read_timeout = 30.

type job = {
  wall : float;
  fetch_ms : float array;  (* per fetch: call -> value held, monotonic clock *)
  ok : bool;
}

(* What one pass of the measurement accumulates: its jobs, the counter
   deltas over its Figure 11 jobs and, when traced, their spans. *)
type acc = {
  mutable fig11 : job list;
  mutable fetch_only : job list;
  mutable steals : int;
  mutable failed_steals : int;
  mutable suspensions : int;
  mutable syscalls : int;
  mutable alloc_words : float;
  mutable cpu_s : float;
  mutable busy : float list;  (** per traced job: Task_run time / (workers x wall) *)
  mutable dropped : int;
  mutable lag : float array list;  (** per traced job: remote send -> value held, us *)
  mutable layer_failures : int;
  mutable first_failure : string option;
  mutable max_err_us : float;
}

let new_acc () =
  {
    fig11 = []; fetch_only = []; steals = 0; failed_steals = 0; suspensions = 0; syscalls = 0;
    alloc_words = 0.; cpu_s = 0.; busy = []; dropped = 0; lag = []; layer_failures = 0;
    first_failure = None; max_err_us = 0.;
  }

let mapreduce args =
  (* The seed picks which keys the job sums. *)
  let seed = int_of_string (Proc.arg args "--seed") in
  let base = Random.State.int (Random.State.make [| seed |]) 1_000_000 in
  let seconds = float_of_string (Proc.arg args "--seconds") in
  let traced = Proc.arg args "--trace" = "1" in
  (* setup_s, reported by untraced runs only, is the median of 15. *)
  let setups = if traced then 1 else 15 in
  let remote_exe = Proc.arg args "--remote" in
  let workers = 2 in
  let expected fib_n =
    Net_map_reduce.expected ~n:(base + n) ~fib_n - Net_map_reduce.expected ~n:base ~fib_n
  in
  (* Per fetch: the wall-clock chain call -> remote arrival -> remote
     send -> value held, and call and value held again on the monotonic
     clock, which times the fetch. *)
  let t_call = Float.Array.make n nan and t_have = Float.Array.make n nan in
  let t_arr = Float.Array.make n nan and t_send = Float.Array.make n nan in
  let m_call = Float.Array.make n nan and m_have = Float.Array.make n nan in
  let attempted = ref 0 and failed = ref 0 and wrong = ref false in
  let run_job p clients ~fib_n =
    Float.Array.fill t_have 0 n nan;
    attempted := !attempted + n;
    let t0 = Pstats.mono () in
    let result =
      try
        Some
          (Pool.parallel_map_reduce p ~lo:0 ~hi:n ~combine:( + ) ~id:0 ~map:(fun i ->
               let key = base + i in
               let req = Bytes.create 8 in
               Bytes.set_int64_be req 0 (Int64.of_int key);
               Pstats.stamp m_call t_call i;
               let reply = Lhws_pool.await (Rpc.Client.call clients.(i land 1) req) in
               Pstats.stamp m_have t_have i;
               Float.Array.set t_arr i (Int64.float_of_bits (Bytes.get_int64_be reply 8));
               Float.Array.set t_send i (Int64.float_of_bits (Bytes.get_int64_be reply 16));
               Int64.to_int (Bytes.get_int64_be reply 0) + Fib.seq fib_n))
      with e ->
        Printf.eprintf "mapreduce job failed: %s\n%!" (Printexc.to_string e);
        None
    in
    let wall = Pstats.mono () -. t0 in
    Printf.eprintf "job fib=%d wall=%.3fs\n%!" fib_n wall;
    match result with
    | None ->
        failed := !failed + n;
        { wall; fetch_ms = [||]; ok = false }
    | Some sum ->
        if sum <> expected fib_n then begin
          Printf.eprintf "mapreduce checksum %d, expected %d\n%!" sum (expected fib_n);
          wrong := true
        end;
        let fetch_ms =
          Array.init n (fun i -> (Float.Array.get m_have i -. Float.Array.get m_call i) *. 1e3)
        in
        { wall; fetch_ms; ok = true }
  in
  (* Set-up, [setups] times: remote spawned, pool created, until the
     first Rpc connection is up.  The last set-up is kept and measured. *)
  let setup_s = ref [] in
  let rec setup k =
    let t0 = Pstats.mono () in
    let remote = Proc.spawn remote_exe [| "remote" |] in
    let p = Lhws_pool.create ~workers () in
    let rt = reactor_of p in
    let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, remote.port) in
    let finish () =
      Lhws_pool.shutdown p;
      ignore (Proc.stop remote : bool)
    in
    match
      Pool.run p (fun () ->
          let c0 = Rpc.Client.connect (module Pool) p rt ~read_timeout addr in
          setup_s := (Pstats.mono () -. t0) :: !setup_s;
          let c1 = Rpc.Client.connect (module Pool) p rt ~read_timeout addr in
          let clients = [| c0; c1 |] in
          let r = if k = 1 then Some (measure p rt clients) else None in
          Array.iter Rpc.Client.close clients;
          r)
    with
    | Some r ->
        finish ();
        r
    | None ->
        finish ();
        setup (k - 1)
    | exception e ->
        finish ();
        raise e
  and measure p rt clients =
    (* Warm the pool, the connections and the heap before timing. *)
    ignore (run_job p clients ~fib_n:0);
    let pass ~budget ~traced =
      let a = new_acc () in
      let t_start = Pstats.mono () and last_pair = ref 0. in
      while a.fig11 = [] || Pstats.mono () -. t_start +. !last_pair <= budget do
        let t_pair = Pstats.mono () in
        let tracer =
          if traced then begin
            let t = Tracing.create ~capacity_per_worker:(12 * n) ~workers () in
            Lhws_pool.set_tracer p t;
            Some t
          end
          else None
        in
        let s0 = Lhws_pool.stats p and sys0 = Reactor.io_syscalls rt and pr0 = counters () in
        let j = run_job p clients ~fib_n:fig11_fib in
        let s1 = Lhws_pool.stats p and sys1 = Reactor.io_syscalls rt and pr1 = counters () in
        a.fig11 <- j :: a.fig11;
        a.steals <- a.steals + s1.steals - s0.steals;
        a.failed_steals <- a.failed_steals + s1.failed_steals - s0.failed_steals;
        a.suspensions <- a.suspensions + s1.suspensions - s0.suspensions;
        a.syscalls <- a.syscalls + sys1 - sys0;
        a.alloc_words <- a.alloc_words +. pr1.alloc_words -. pr0.alloc_words;
        a.cpu_s <- a.cpu_s +. pr1.cpu_s -. pr0.cpu_s;
        (match tracer with
        | Some t when j.ok ->
            a.busy <- (busy_us t /. (float_of_int workers *. j.wall *. 1e6)) :: a.busy;
            a.dropped <- a.dropped + Tracing.dropped t;
            (* Each fetch's wall-clock chain, joined by key with the
               remote's stamps, against the fetch's monotonic time. *)
            let ops =
              List.init n (fun i ->
                  ( base + i,
                    [|
                      Float.Array.get t_call i; Float.Array.get t_arr i;
                      Float.Array.get t_send i; Float.Array.get t_have i;
                    |],
                    j.fetch_ms.(i) *. 1e3 ))
            in
            let jn = Spans.join ~nlayers:3 ops in
            a.lag <- jn.Spans.per_layer.(2) :: a.lag;
            a.layer_failures <- a.layer_failures + jn.Spans.failures;
            if a.first_failure = None then a.first_failure <- jn.Spans.first_failure;
            a.max_err_us <- Float.max a.max_err_us jn.Spans.max_err_us
        | _ -> ());
        a.fetch_only <- run_job p clients ~fib_n:0 :: a.fetch_only;
        last_pair := Pstats.mono () -. t_pair
      done;
      a
    in
    (* Over all jobs of a kind: keys summed correctly per second of job
       time, and the percentiles of every fetch. *)
    let rate (js : job list) =
      let items = List.fold_left (fun acc j -> if j.ok then acc + n else acc) 0 js in
      float_of_int items /. List.fold_left (fun acc j -> acc +. j.wall) 0. js
    in
    let fetches (js : job list) =
      Pstats.sorted
        (Array.concat
           (List.map (fun j -> if j.ok then j.fetch_ms else Array.make n (read_timeout *. 1e3)) js))
    in
    if not traced then begin
      let a = pass ~budget:seconds ~traced:false in
      let f = fetches a.fig11 in
      Printf.eprintf "%d Figure 11 jobs, %d fetch-only jobs, %d fetches timed\n%!"
        (List.length a.fig11) (List.length a.fetch_only) (Array.length f);
      [
        Pstats.m "items_per_s" "1/s" (rate a.fig11);
        Pstats.m "capacity_rps" "1/s" (rate a.fetch_only);
        Pstats.m "p50_ms" "ms" (Pstats.percentile_sorted f 0.5);
        Pstats.m "p90_ms" "ms" (Pstats.percentile_sorted f 0.9);
      ]
    end
    else begin
      let u = pass ~budget:(seconds /. 2.) ~traced:false in
      let t = pass ~budget:(seconds /. 2.) ~traced:true in
      let items = float_of_int (n * List.length u.fig11) in
      if t.layer_failures > 0 then begin
        Printf.eprintf "fetch layer check: %d fetches fail, first: %s\n%!" t.layer_failures
          (Option.value t.first_failure ~default:"");
        wrong := true
      end;
      if t.dropped > 0 then begin
        Printf.eprintf "tracing dropped %d events\n%!" t.dropped;
        wrong := true
      end;
      let lag = Pstats.sorted (Array.concat t.lag) in
      let per_op x = float_of_int x /. items in
      [
        Pstats.m "lhws_pool.steals_per_kitem" "1/kitem" (per_op u.steals *. 1e3);
        Pstats.m "lhws_pool.steal_hit_ratio" "ratio"
          (if u.steals + u.failed_steals = 0 then 0.
           else float_of_int u.steals /. float_of_int (u.steals + u.failed_steals));
        Pstats.m "lhws_pool.suspensions_per_op" "1/op" (per_op u.suspensions);
        Pstats.m "lhws_pool.busy_share" "ratio" (Pstats.median_list t.busy);
        Pstats.m "rpc.fetch_lag_us.p50" "us" (Pstats.percentile_sorted lag 0.5);
        Pstats.m "rpc.fetch_lag_us.p99" "us" (Pstats.percentile_sorted lag 0.99);
      ]
      (* No HTTP request and no open-loop generator in this workload. *)
      @ List.concat_map
          (fun l -> [ Pstats.m (l ^ ".p50") "us" 0.; Pstats.m (l ^ ".p99") "us" 0. ])
          [ "http.ingress_us"; "http.queue_us"; "http.handler_us"; "http.egress_us" ]
      @ [
          Pstats.m "reactor.syscalls_per_op" "1/op" (per_op u.syscalls);
          Pstats.m "gc.alloc_words_per_op" "words/op" (u.alloc_words /. items);
          Pstats.m "proc.cpu_us_per_op" "us/op" (u.cpu_s *. 1e6 /. items);
          Pstats.m "e2e.p99_ms" "ms" (Pstats.percentile_sorted (fetches u.fig11) 0.99);
          Pstats.m "compute.fib_us.p50" "us" (fib_calibration_us ());
          Pstats.m "gen.late_us.p99" "us" 0.;
          Pstats.m "trace.overhead_share" "ratio" ((rate u.fig11 /. rate t.fig11) -. 1.);
          Pstats.m "trace.layer_sum_err_us" "us" t.max_err_us;
          Pstats.m "tracing.dropped" "count" (float_of_int t.dropped);
        ]
    end
  in
  let metrics = setup setups in
  let metrics =
    if traced then metrics else metrics @ [ Pstats.m "setup_s" "s" (Pstats.median_list !setup_s) ]
  in
  let ok_share = float_of_int (!attempted - !failed) /. float_of_int (max 1 !attempted) in
  let metrics = if traced then metrics else metrics @ [ Pstats.m "ok_share" "ratio" ok_share ] in
  Pstats.emit ~correct:(not !wrong) ~attempted:!attempted ~failed:!failed metrics

(* ------------------------------------------------------------------ *)
(* http-server: the lhws server child of gen.exe.  One lhws worker (so
   that the generator and the server fit two cores), the router of the HTTP workloads, and a line protocol on stdin/stdout:
   "STATS" answers one line of counters, "CAL" the fib control, EOF
   drains the server and exits (after writing the span log, when
   traced). *)

let http_server args =
  let workers = 1 in
  let traced = Proc.arg args "--trace" = "1" in
  let span_base = int_of_string (Proc.arg args "--span-base") in
  let span_count = int_of_string (Proc.arg args "--span-count") in
  let spans_out = Proc.arg args "--spans-out" in
  (* Before any domain exists, so every worker inherits the pin. *)
  let cpu = int_of_string (Proc.arg args "--cpu") in
  if cpu >= 0 && not (Proc.pin_cpu cpu) then Printf.eprintf "http-server: could not pin to CPU %d\n%!" cpu;
  (* Server side of the spans of the requests with ids (x-rid) in
     [span_base, span_base + span_count): dispatch enqueue, handler
     start, handler end. *)
  let enq = Float.Array.make span_count nan in
  let start = Float.Array.make span_count nan in
  let hend = Float.Array.make span_count nan in
  let tracer =
    (* Only open loops are traced.  A request costs the worker about
       four events; four times that keeps Tracing.dropped at 0. *)
    if traced then Some (Tracing.create ~capacity_per_worker:(16 * (span_count + 10000)) ~workers ())
    else None
  in
  Lhws_pool.with_pool ~workers (fun p ->
      Option.iter (Lhws_pool.set_tracer p) tracer;
      let rt = reactor_of p in
      Pool.run p (fun () ->
          let stamps = Domain.DLS.new_key (fun () -> (nan, nan)) in
          (* Equivalent to the default dispatcher (P.async on the serving
             pool), plus the enqueue and task-start stamps. *)
          let dispatch =
            if traced then
              Some
                (fun f ->
                  let t_enq = now () in
                  ignore
                    (Pool.async p (fun () ->
                         Domain.DLS.set stamps (t_enq, now ());
                         f ())
                      : unit Lhws_runtime.Promise.t))
            else None
          in
          let spanned handler params req =
            if not traced then handler params req
            else begin
              let t_enq, t_start = Domain.DLS.get stamps in
              let resp = handler params req in
              (match Option.bind (Http.header req "x-rid") int_of_string_opt with
              | Some rid when rid >= span_base && rid < span_base + span_count ->
                  let i = rid - span_base in
                  Float.Array.set enq i t_enq;
                  Float.Array.set start i t_start;
                  Float.Array.set hend i (now ())
              | _ -> ());
              resp
            end
          in
          let router =
            Http.Router.create
              [
                Http.Router.route ~meth:"GET" "/plaintext"
                  (spanned (fun _ _ -> Http.text "Hello, World!"));
                Http.Router.route ~meth:"POST" "/echo"
                  (spanned (fun _ req -> Http.response req.Http.body));
                Http.Router.route ~meth:"GET" "/fib/:n"
                  (spanned (fun params _ ->
                       Http.text (string_of_int (Fib.seq (int_of_string (List.assoc "n" params))))));
              ]
          in
          let srv =
            Http.serve_router (module Pool) p rt ?dispatch
              (Unix.ADDR_INET (Unix.inet_addr_loopback, 0))
              ~router
          in
          (match Http.addr srv with
          | Unix.ADDR_INET (_, port) -> Printf.printf "PORT %d\n%!" port
          | Unix.ADDR_UNIX _ -> assert false);
          let stats () =
            let s = Lhws_pool.stats p and pr = counters () in
            Printf.printf
              "STATS time=%.17g served=%d steals=%d failed_steals=%d suspensions=%d \
               syscalls=%d alloc_words=%.17g cpu_s=%.17g busy_us=%.17g dropped=%d\n%!"
              (Pstats.mono ()) (Http.served srv) s.steals s.failed_steals
              s.suspensions (Reactor.io_syscalls rt) pr.alloc_words pr.cpu_s
              (match tracer with Some t -> busy_us t | None -> 0.)
              (match tracer with Some t -> Tracing.dropped t | None -> 0)
          in
          (* The command loop parks this fiber on the stdin pipe. *)
          let c = Conn.create rt Unix.stdin in
          let b = Bytes.create 64 and line = Buffer.create 16 in
          let rec loop () =
            match Conn.read c b 0 64 with
            | 0 -> ()
            | k ->
                for i = 0 to k - 1 do
                  match Bytes.get b i with
                  | '\n' ->
                      (match Buffer.contents line with
                      | "STATS" -> stats ()
                      | "CAL" -> Printf.printf "CAL %.17g\n%!" (fib_calibration_us ())
                      | cmd -> Printf.eprintf "http-server: unknown command %S\n%!" cmd);
                      Buffer.clear line
                  | ch -> Buffer.add_char line ch
                done;
                loop ()
          in
          (try loop () with Lhws_net.Net.Closed | Lhws_net.Net.Peer_closed | End_of_file -> ());
          Http.shutdown ~grace:2. srv));
  if traced then begin
    let oc = open_out_bin spans_out in
    let b = Bytes.create 24 in
    for i = 0 to span_count - 1 do
      Bytes.set_int64_be b 0 (Int64.bits_of_float (Float.Array.get enq i));
      Bytes.set_int64_be b 8 (Int64.bits_of_float (Float.Array.get start i));
      Bytes.set_int64_be b 16 (Int64.bits_of_float (Float.Array.get hend i));
      output_bytes oc b
    done;
    close_out oc
  end

let () =
  match Array.to_list Sys.argv with
  | _ :: "mapreduce" :: args -> exit (if mapreduce args then 0 else 1)
  | _ :: "http-server" :: args -> http_server args
  | _ ->
      prerr_endline "usage: bench.exe (mapreduce | http-server) ARGS";
      exit 2
