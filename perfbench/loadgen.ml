(* The HTTP load generator: one process, one thread, two keep-alive
   pipelined connections, plain Unix.  It spawns the lhws server child
   (bench.exe http-server), drives it in two phases and checks every
   response body.

   - Open loop: requests fall due on a seeded schedule at a fixed mean
     rate, whatever the server does, so a stall delays every later
     request.  Latency is timed from each request's due time.
   - Closed loop: a fixed number of requests outstanding per connection;
     the completion rate is the server's capacity.

   Work per request is O(1) however the server pushes back: requests are
   appended to a per-connection output buffer that is written from an
   offset, never copied whole (see Resp). *)

module Pstats = Perfbench_util.Pstats
module Proc = Perfbench_util.Proc
module Resp = Perfbench_util.Resp
module Spans = Perfbench_util.Spans

(* The generator keeps time on the monotonic clock.  It reads the wall
   clock, which the server shares, only for the ends of the span chain. *)
let now = Pstats.mono

(* Both clocks read together, as (monotonic, wall). *)
let clocks =
  let m = Float.Array.make 1 0. and w = Float.Array.make 1 0. in
  fun () ->
    Pstats.stamp m w 0;
    (Float.Array.get m 0, Float.Array.get w 0)

type kind = Plain | Echo of int | Fib of int

(* Echo bodies are slices of one pattern, offset by the request id, so
   that a response paired with the wrong request fails the check, and
   filling or checking a body costs a memcpy-speed pass. *)
let max_echo = 16384

let pattern = Bytes.init (max_echo + 26) (fun i -> Char.chr (97 + (i mod 26)))

let echo_off ~rid = rid mod 26

(* [b.[off, off+len)] equals [pattern.[poff, poff+len)], compared eight
   bytes at a time. *)
let equal_pattern b off ~poff len =
  let rec words i =
    if i + 8 > len then tail i
    else Bytes.get_int64_ne b (off + i) = Bytes.get_int64_ne pattern (poff + i) && words (i + 8)
  and tail i = i >= len || (Bytes.get b (off + i) = Bytes.get pattern (poff + i) && tail (i + 1)) in
  words 0

(* The request mix: 40% small GETs, 40% echo POSTs with bodies
   log-uniform in [64 B, 16 KiB), 20% fib(20..22) compute. *)
let draw_kind rng =
  let u = Random.State.float rng 1. in
  if u < 0.4 then Plain
  else if u < 0.8 then
    Echo (min max_echo (int_of_float (64. *. Float.exp (Random.State.float rng (Float.log 256.)))))
  else Fib (20 + Random.State.int rng 3)

let fib_table =
  let t = Array.make 40 0 in
  t.(1) <- 1;
  for i = 2 to 39 do
    t.(i) <- t.(i - 1) + t.(i - 2)
  done;
  t

let add_request outb ~rid kind =
  match kind with
  | Plain ->
      Resp.add_string outb
        (Printf.sprintf "GET /plaintext HTTP/1.1\r\nHost: bench\r\nx-rid: %d\r\n\r\n" rid)
  | Fib n ->
      Resp.add_string outb
        (Printf.sprintf "GET /fib/%d HTTP/1.1\r\nHost: bench\r\nx-rid: %d\r\n\r\n" n rid)
  | Echo len ->
      Resp.add_string outb
        (Printf.sprintf
           "POST /echo HTTP/1.1\r\nHost: bench\r\nx-rid: %d\r\nContent-Length: %d\r\n\r\n" rid
           len);
      Resp.add_subbytes outb pattern (echo_off ~rid) len

let body_ok kind ~rid b off len =
  match kind with
  | Plain -> len = 13 && Bytes.sub_string b off 13 = "Hello, World!"
  | Fib n -> Bytes.sub_string b off len = string_of_int fib_table.(n)
  | Echo l -> len = l && equal_pattern b off ~poff:(echo_off ~rid) len

(* ------------------------------------------------------------------ *)
(* Outcome accounting for the whole run. *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;  (** 2xx responses whose body is wrong *)
  mutable first_error : string option;
}

let tally = { attempted = 0; failed = 0; wrong = 0; first_error = None }

let fail why =
  tally.failed <- tally.failed + 1;
  if tally.first_error = None then tally.first_error <- Some why

(* ------------------------------------------------------------------ *)
(* Connections. *)

type req = { rid : int; kind : kind; slot : int  (** open-loop index, or -1 *) }

type conn = {
  fd : Unix.file_descr;
  outb : Resp.buf;
  parser : Resp.parser;
  inflight : req Queue.t;
  mutable dead : bool;
}

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.set_nonblock fd;
  { fd; outb = Resp.create_buf 65536; parser = Resp.create_parser (); inflight = Queue.create (); dead = false }

(* A transport failure fails everything the connection still owes. *)
let kill c why =
  if not c.dead then begin
    c.dead <- true;
    Queue.iter (fun _ -> fail why) c.inflight;
    Queue.clear c.inflight;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let close_conn c = if not c.dead then kill c "closed with requests outstanding"

let send c ~rid ~slot kind =
  tally.attempted <- tally.attempted + 1;
  if c.dead then fail "connection lost"
  else begin
    add_request c.outb ~rid kind;
    Queue.push { rid; kind; slot } c.inflight
  end

let flush c =
  if not c.dead then try Resp.write_fd c.outb c.fd with Unix.Unix_error (e, _, _) -> kill c (Unix.error_message e)

(* Reads what is there and hands each complete response, with its
   request, to [on_resp ~t ~tw req ok] ([t], [tw] = receipt time on the
   monotonic and the wall clock). *)
let receive c ~on_resp =
  match Resp.read_fd c.parser.Resp.pb c.fd with
  | `Again -> ()
  | `Eof -> kill c "server closed the connection"
  | exception Unix.Unix_error (e, _, _) -> kill c (Unix.error_message e)
  | `Read _ ->
      let t, tw = clocks () in
      let rec drain () =
        match Resp.next c.parser with
        | Resp.Need_more -> ()
        | Resp.Malformed why -> kill c ("malformed response: " ^ why)
        | Resp.Response { status; body; body_off; body_len } -> (
            match Queue.take_opt c.inflight with
            | None -> kill c "response without a request"
            | Some r ->
                let ok =
                  if status < 200 || status > 299 then begin
                    fail (Printf.sprintf "status %d" status);
                    false
                  end
                  else if not (body_ok r.kind ~rid:r.rid body body_off body_len) then begin
                    tally.wrong <- tally.wrong + 1;
                    fail (Printf.sprintf "wrong body for request %d" r.rid);
                    false
                  end
                  else true
                in
                on_resp ~t ~tw r ok;
                drain ())
      in
      drain ()

let outstanding conns = List.fold_left (fun acc c -> acc + Queue.length c.inflight) 0 conns

(* Flushes what the sockets take and returns the connections with
   something to read.  It never sleeps: the generator polls, because an
   idle virtual CPU can take most of a millisecond to wake from a timed
   wait, which would make the load late by more than the latency being
   measured.  The generator has a CPU of its own to spin on. *)
let poll conns =
  let live = List.filter (fun c -> not c.dead) conns in
  let rd = List.map (fun c -> c.fd) live in
  let wr = List.filter_map (fun c -> if c.outb.Resp.len > 0 then Some c.fd else None) live in
  let r, w, _ =
    try Unix.select rd wr [] 0. with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  List.iter (fun c -> if List.memq c.fd w then flush c) live;
  List.filter (fun c -> List.memq c.fd r) live

(* ------------------------------------------------------------------ *)
(* The phases.  Rids are global, so server spans join across phases. *)

let next_rid = ref 0

let fresh_rid () =
  let r = !next_rid in
  incr next_rid;
  r

(* Each phase segment starts with a ramp that no statistic includes:
   the server is coming out of the previous segment (or out of start-up). *)
let warmup_s = 0.25

(* Grace after a phase's last request before whatever is still
   unanswered is counted failed: long enough to ride out the multi-second
   whole-machine stalls seen on shared virtual machines. *)
let grace_s = 5.

type open_result = {
  first_rid : int;
  due : float array;
  recv : float array;  (** nan if not answered correctly *)
  wall_off : float;  (** wall clock - monotonic clock *)
  recv_wall : float array;
  late_us : float array;  (** how late the request was handed to the socket *)
  t0 : float;
  dur : float;
}

let open_loop conns ~rng ~rate ~dur =
  let conns_a = Array.of_list conns in
  let n = int_of_float (rate *. dur) in
  let m, w = clocks () in
  let t0 = now () +. 0.01 in
  let due = Array.make n 0. in
  let t = ref t0 in
  for i = 0 to n - 1 do
    due.(i) <- !t;
    t := !t +. ((0.5 +. Random.State.float rng 1.) /. rate)
  done;
  let kinds = Array.init n (fun _ -> draw_kind rng) in
  let first_rid = !next_rid in
  next_rid := !next_rid + n;
  let recv = Array.make n nan and recv_wall = Array.make n nan and late_us = Array.make n 0. in
  let on_resp ~t ~tw r ok =
    if ok then begin
      recv.(r.slot) <- t;
      recv_wall.(r.slot) <- tw
    end
  in
  let deadline = t0 +. dur +. grace_s in
  let next = ref 0 in
  while (!next < n || outstanding conns > 0) && now () < deadline do
    let tn = now () in
    while !next < n && due.(!next) <= tn do
      let i = !next in
      let c = conns_a.(i land 1) in
      send c ~rid:(first_rid + i) ~slot:i kinds.(i);
      late_us.(i) <- (tn -. due.(i)) *. 1e6;
      incr next
    done;
    List.iter flush conns;
    List.iter (receive ~on_resp) (poll conns)
  done;
  (* The hard deadline: whatever is still unanswered failed, and so did
     every request that never fell due. *)
  for _ = !next to n - 1 do
    tally.attempted <- tally.attempted + 1;
    fail "never sent before the deadline"
  done;
  List.iter
    (fun c ->
      Queue.iter (fun _ -> fail "unanswered at the hard deadline") c.inflight;
      Queue.clear c.inflight)
    conns;
  { first_rid; due; recv; wall_off = w -. m; recv_wall; late_us; t0; dur }

(* The open-loop requests due after warm-up, by index. *)
let measured r =
  let first =
    Option.value ~default:(Array.length r.due)
      (Array.find_index (fun d -> d -. r.t0 >= warmup_s) r.due)
  in
  List.init (Array.length r.due - first) (fun k -> first + k)

(* Their latencies from due time, ms.  A request not answered correctly
   counts as the longest latency the phase could observe, so it misses
   every limit. *)
let latencies_ms r =
  let penalty = (r.dur +. grace_s) *. 1e3 in
  List.map
    (fun i -> if Float.is_nan r.recv.(i) then penalty else (r.recv.(i) -. r.due.(i)) *. 1e3)
    (measured r)

(* Correct responses to them, and the seconds from the first receipt to
   the last. *)
let goodput r =
  let t = List.filter (fun t -> not (Float.is_nan t)) (List.map (fun i -> r.recv.(i)) (measured r)) in
  match t with
  | [] -> (0, 0.)
  | t0 :: _ -> (List.length t - 1, List.fold_left Float.max t0 t -. List.fold_left Float.min t0 t)

(* Correct completions after warm-up and before the segment's end, and
   the seconds they were counted over. *)
let closed_loop conns ~rng ~depth ~dur =
  let t0 = now () in
  let t_end = t0 +. dur in
  let completed = ref 0 in
  let push c = send c ~rid:(fresh_rid ()) ~slot:(-1) (draw_kind rng) in
  List.iter (fun c -> for _ = 1 to depth do push c done) conns;
  let deadline = t_end +. grace_s in
  let rec loop () =
    let tn = now () in
    if (tn < t_end || outstanding conns > 0) && tn < deadline then begin
      List.iter
        (fun c ->
          receive c ~on_resp:(fun ~t ~tw:_ _ ok ->
              if ok && t >= t0 +. warmup_s && t < t_end then incr completed;
              if t < t_end then push c))
        (poll conns);
      loop ()
    end
  in
  loop ();
  List.iter
    (fun c ->
      Queue.iter (fun _ -> fail "unanswered at the hard deadline") c.inflight;
      Queue.clear c.inflight)
    conns;
  Printf.eprintf "closed segment: %.0f req/s\n%!" (float_of_int !completed /. (dur -. warmup_s));
  (!completed, dur -. warmup_s)

(* ------------------------------------------------------------------ *)
(* The server child. *)

(* "STATS k=v ..." as a table of floats. *)
let stats s =
  let tbl = Hashtbl.create 16 in
  Proc.command s "STATS" |> String.split_on_char ' ' |> List.tl
  |> List.iter (fun kv ->
         match String.split_on_char '=' kv with
         | [ k; v ] -> Hashtbl.replace tbl k (float_of_string v)
         | _ -> ());
  fun k -> try Hashtbl.find tbl k with Not_found -> failwith ("server stats lack " ^ k)

(* The server's span log: per open-loop request, dispatch enqueue,
   handler start and handler end. *)
let read_spans path n =
  let ic = open_in_bin path in
  let b = Bytes.create (24 * n) in
  really_input ic b 0 (24 * n);
  close_in ic;
  let f i k = Int64.float_of_bits (Bytes.get_int64_be b ((24 * i) + (8 * k))) in
  Array.init n (fun i -> [| f i 0; f i 1; f i 2 |])

(* ------------------------------------------------------------------ *)

type pass = {
  setup_s : float list;
  opens : open_result list;  (** the open-loop segments, in order *)
  latency_ms : float array;  (** every open-loop request after warm-up, sorted *)
  goodput : float;  (** open loop, correct responses per second *)
  capacity : float;  (** closed loop, correct completions per second *)
  stat0 : string -> float;
  stat_end : string -> float;
  closed_delta : string -> float;  (** a server counter's growth over the closed-loop segments *)
  fib_us : float;
  spans : float array array;  (** traced pass: by request id - span base *)
  span_base : int;
}

(* Events per second over a list of (events, seconds). *)
let per_second l = float_of_int (List.fold_left (fun a (k, _) -> a + k) 0 l) /. List.fold_left (fun a (_, s) -> a +. s) 0. l

let main args =
  let arg = Proc.arg args in
  let exe = arg "--server" in
  let seed = int_of_string (arg "--seed") in
  let seconds = float_of_string (arg "--seconds") in
  let traced = arg "--trace" = "1" in
  let work_dir = arg "--work-dir" in
  let rate = 6000. in
  let depth = 32 in
  (* A round per 5 s of run: 3 s open and 1.5 s closed segments. *)
  let rounds = max 1 (int_of_float (seconds /. 5.)) in
  let rng = Random.State.make [| seed |] in
  (* A pass alternates [rounds] open-loop and closed-loop segments on
     one server ([open_s] and [closed_s] are totals), so that every
     statistic samples the whole pass rather than one stretch of it: the
     host's speed drifts over tens of seconds. *)
  let run_pass ~rounds ~open_s ~closed_s ~traced ~setups =
    let seg_open = open_s /. float_of_int rounds and seg_closed = closed_s /. float_of_int rounds in
    let span_base = !next_rid in
    let spans_out = Filename.concat work_dir "spans.bin" in
    let server_args =
      [|
        "--trace"; (if traced then "1" else "0");
        (* The span log covers the open-loop requests of a traced pass,
           which has no closed-loop segments between them. *)
        "--span-base"; string_of_int span_base;
        "--span-count"; string_of_int (rounds * int_of_float (rate *. seg_open));
        "--spans-out"; spans_out;
        "--cpu"; arg "--server-cpu";
      |]
    in
    let rec setup k acc =
      let t0 = now () in
      let s = Proc.spawn exe (Array.append [| "http-server" |] server_args) in
      let c0 = connect s.port in
      let acc = (now () -. t0) :: acc in
      let c1 = connect s.port in
      if k <= 1 then (s, [ c0; c1 ], acc)
      else begin
        close_conn c0;
        close_conn c1;
        ignore (Proc.stop s : bool);
        setup (k - 1) acc
      end
    in
    let s, conns, setup_s = setup setups [] in
    let stat0 = stats s in
    let opens = ref [] and capacity = ref [] and closed = ref [] in
    for _ = 1 to rounds do
      opens := open_loop conns ~rng ~rate ~dur:seg_open :: !opens;
      if seg_closed > 0. then begin
        let before = stats s in
        capacity := closed_loop conns ~rng ~depth ~dur:seg_closed :: !capacity;
        closed := (before, stats s) :: !closed
      end
    done;
    let stat_end = stats s in
    let fib_us =
      if traced then float_of_string (List.nth (String.split_on_char ' ' (Proc.command s "CAL")) 1)
      else nan
    in
    List.iter close_conn conns;
    if not (Proc.stop s) then fail "server did not exit cleanly";
    let opens = List.rev !opens in
    let spans =
      if traced then read_spans spans_out (List.fold_left (fun acc r -> acc + Array.length r.due) 0 opens)
      else [||]
    in
    let latency_ms = Pstats.sorted (Array.of_list (List.concat_map latencies_ms opens)) in
    Printf.eprintf "%s pass: %d open-loop requests timed\n%!" (if traced then "traced" else "untraced")
      (Array.length latency_ms);
    {
      setup_s;
      opens;
      latency_ms;
      goodput = per_second (List.map goodput opens);
      capacity = per_second !capacity;
      stat0;
      stat_end;
      closed_delta = (fun k -> List.fold_left (fun acc (a, b) -> acc +. b k -. a k) 0. !closed);
      fib_us;
      spans;
      span_base;
    }
  in
  let metrics, layer_ok =
    if not traced then begin
      let p =
        run_pass ~rounds ~open_s:(0.6 *. seconds) ~closed_s:(0.3 *. seconds) ~traced:false ~setups:15
      in
      ( [
          Pstats.m "items_per_s" "1/s" p.goodput;
          Pstats.m "capacity_rps" "1/s" p.capacity;
          Pstats.m "p50_ms" "ms" (Pstats.percentile_sorted p.latency_ms 0.5);
          Pstats.m "p90_ms" "ms" (Pstats.percentile_sorted p.latency_ms 0.9);
          Pstats.m "setup_s" "s" (Pstats.median_list p.setup_s);
        ],
        true )
    end
    else begin
      (* Counters from an untraced pass, spans from a traced open loop of
         the same length as the untraced one. *)
      let u =
        run_pass ~rounds:(max 1 (rounds / 2)) ~open_s:(0.3 *. seconds) ~closed_s:(0.3 *. seconds)
          ~traced:false ~setups:1
      in
      let t = run_pass ~rounds:1 ~open_s:(0.3 *. seconds) ~closed_s:0. ~traced:true ~setups:1 in
      (* HTTP layers of every correctly answered open-loop request of the
         traced pass: due -> enqueue -> handler start -> handler end ->
         receipt on the wall clock, against the generator's latency on
         the monotonic clock. *)
      let ops = ref [] in
      List.iter
        (fun r ->
          Array.iteri
            (fun i recv ->
              if not (Float.is_nan recv) then begin
                let rid = r.first_rid + i in
                let sp = t.spans.(rid - t.span_base) in
                let chain = [| r.due.(i) +. r.wall_off; sp.(0); sp.(1); sp.(2); r.recv_wall.(i) |] in
                ops := (rid, chain, (recv -. r.due.(i)) *. 1e6) :: !ops
              end)
            r.recv)
        t.opens;
      let joined = Spans.join ~nlayers:4 !ops in
      let layer_ok = joined.Spans.failures = 0 in
      if not layer_ok then
        Printf.eprintf "http layer check: %d requests fail, first: %s\n%!" joined.Spans.failures
          (Option.value joined.Spans.first_failure ~default:"");
      (* Per-operation counters over the closed loop, where the server
         is busy: the costs that bound capacity. *)
      let d = u.closed_delta in
      let ops_n = d "served" in
      (* Tracing's cost as a user sees it: open-loop median latency,
         traced against untraced. *)
      let p50 p = Pstats.percentile_sorted p.latency_ms 0.5 in
      let st = d "steals" and fs = d "failed_steals" in
      let layer name i =
        let s = Pstats.sorted joined.Spans.per_layer.(i) in
        [
          Pstats.m (name ^ ".p50") "us" (Pstats.percentile_sorted s 0.5);
          Pstats.m (name ^ ".p99") "us" (Pstats.percentile_sorted s 0.99);
        ]
      in
      let late = Array.concat (List.map (fun r -> r.late_us) (u.opens @ t.opens)) in
      let dropped = t.stat_end "dropped" in
      if dropped > 0. then Printf.eprintf "tracing dropped %.0f events\n%!" dropped;
      ( [
          Pstats.m "lhws_pool.steals_per_kitem" "1/kitem" (st /. ops_n *. 1e3);
          Pstats.m "lhws_pool.steal_hit_ratio" "ratio" (if st +. fs = 0. then 0. else st /. (st +. fs));
          Pstats.m "lhws_pool.suspensions_per_op" "1/op" (d "suspensions" /. ops_n);
          Pstats.m "lhws_pool.busy_share" "ratio"
            ((t.stat_end "busy_us" -. t.stat0 "busy_us") /. ((t.stat_end "time" -. t.stat0 "time") *. 1e6));
          Pstats.m "rpc.fetch_lag_us.p50" "us" 0.;
          Pstats.m "rpc.fetch_lag_us.p99" "us" 0.;
        ]
        @ layer "http.ingress_us" 0 @ layer "http.queue_us" 1 @ layer "http.handler_us" 2
        @ layer "http.egress_us" 3
        @ [
            Pstats.m "reactor.syscalls_per_op" "1/op" (d "syscalls" /. ops_n);
            Pstats.m "gc.alloc_words_per_op" "words/op" (d "alloc_words" /. ops_n);
            Pstats.m "proc.cpu_us_per_op" "us/op" (d "cpu_s" *. 1e6 /. ops_n);
            Pstats.m "e2e.p99_ms" "ms" (Pstats.percentile_sorted u.latency_ms 0.99);
            Pstats.m "compute.fib_us.p50" "us" t.fib_us;
            Pstats.m "gen.late_us.p99" "us" (Pstats.percentile late 0.99);
            Pstats.m "trace.overhead_share" "ratio" ((p50 t /. p50 u) -. 1.);
            Pstats.m "trace.layer_sum_err_us" "us" joined.Spans.max_err_us;
            Pstats.m "tracing.dropped" "count" dropped;
          ],
        layer_ok && dropped = 0. )
    end
  in
  let metrics =
    if traced then metrics
    else
      metrics
      @ [
          Pstats.m "ok_share" "ratio"
            (float_of_int (tally.attempted - tally.failed) /. float_of_int (max 1 tally.attempted));
        ]
  in
  Option.iter (Printf.eprintf "first failure: %s\n%!") tally.first_error;
  if tally.wrong > 0 then Printf.eprintf "%d responses had a wrong body\n%!" tally.wrong;
  Pstats.emit ~correct:(tally.wrong = 0 && layer_ok) ~attempted:tally.attempted
    ~failed:tally.failed metrics
