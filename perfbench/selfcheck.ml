(* Checks of the benchmark's own code: the response parser, the
   percentile code and the span join.  run.py runs this before every
   measurement; a failure stops the run. *)

module Pstats = Perfbench_util.Pstats
module Resp = Perfbench_util.Resp
module Spans = Perfbench_util.Spans

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.eprintf "selfcheck FAILED: %s\n%!" name
  end

(* Feeds [chunks] one at a time and collects every event but Need_more. *)
let parse chunks =
  let p = Resp.create_parser () in
  let out = ref [] in
  List.iter
    (fun chunk ->
      Resp.add_string p.Resp.pb chunk;
      let rec drain () =
        match Resp.next p with
        | Resp.Need_more -> ()
        | Resp.Response { status; body; body_off; body_len } ->
            out := `R (status, Bytes.sub_string body body_off body_len) :: !out;
            drain ()
        | Resp.Malformed why -> out := `M why :: !out
      in
      drain ())
    chunks;
  List.rev !out

let resp ?(status = "200 OK") ?(cl = "Content-Length") body =
  Printf.sprintf "HTTP/1.1 %s\r\nDate: x\r\n%s: %d\r\n\r\n%s" status cl (String.length body) body

let bytewise s = List.init (String.length s) (fun i -> String.make 1 s.[i])

let parser_checks () =
  let two = resp "Hello, World!" ^ resp ~status:"503 Service Unavailable" "overloaded\n" in
  let expect = [ `R (200, "Hello, World!"); `R (503, "overloaded\n") ] in
  check "two pipelined responses in one read" (parse [ two ] = expect);
  check "two responses byte at a time" (parse (bytewise two) = expect);
  check "split inside the terminator and the body"
    (parse [ String.sub two 0 40; String.sub two 40 (String.length two - 40) ] = expect);
  check "header names are case-insensitive" (parse [ resp ~cl:"content-LENGTH" "ab" ] = [ `R (200, "ab") ]);
  check "empty body" (parse [ resp "" ] = [ `R (200, "") ]);
  let big = String.init 200_000 (fun i -> Char.chr (97 + (i mod 26))) in
  check "body larger than the buffer" (parse [ resp big ] = [ `R (200, big) ]);
  check "incomplete body waits" (parse [ String.sub (resp "abcdef") 0 (String.length (resp "abcdef") - 2) ] = []);
  check "no content-length is malformed"
    (match parse [ "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" ] with
    | [ `M _ ] -> true
    | _ -> false);
  check "garbage status line is malformed"
    (match parse [ "HTTP/1.1 abc OK\r\nContent-Length: 0\r\n\r\n" ] with [ `M _ ] -> true | _ -> false);
  (* The buffer keeps bytes intact across compaction and growth. *)
  let b = Resp.create_buf 8 in
  let expected = Buffer.create 64 in
  for i = 0 to 99 do
    let s = String.make (1 + (i mod 7)) (Char.chr (65 + (i mod 26))) in
    Resp.add_string b s;
    Buffer.add_string expected s;
    if i mod 3 = 0 then begin
      let k = min b.Resp.len 5 in
      Resp.consume b k;
      let rest = Buffer.sub expected k (Buffer.length expected - k) in
      Buffer.clear expected;
      Buffer.add_string expected rest
    end
  done;
  check "buffer contents survive compaction"
    (Bytes.sub_string b.Resp.b b.Resp.off b.Resp.len = Buffer.contents expected)

let percentile_checks () =
  let a = Array.init 100 (fun i -> float_of_int (100 - i)) in
  check "p50 of 1..100 is 50" (Pstats.percentile a 0.5 = 50.);
  check "p99 of 1..100 is 99" (Pstats.percentile a 0.99 = 99.);
  check "p100 is the maximum" (Pstats.percentile a 1.0 = 100.);
  check "p0 is the minimum" (Pstats.percentile a 0. = 1.);
  check "percentile leaves its input unsorted" (a.(0) = 100.);
  check "one sample" (Pstats.percentile [| 7. |] 0.99 = 7.);
  check "empty sample is nan" (Float.is_nan (Pstats.percentile [||] 0.5));
  check "median of an even count takes the lower middle" (Pstats.median [| 4.; 1.; 3.; 2. |] = 2.);
  check "p99 of 1000 samples leaves ten above it"
    (Pstats.percentile (Array.init 1000 float_of_int) 0.99 = 989.)

let span_checks () =
  let t0 = 1.7e9 in
  let chain = [| t0; t0 +. 100e-6; t0 +. 150e-6; t0 +. 400e-6; t0 +. 500e-6 |] in
  (match Spans.layers chain ~e2e_us:500. with
  | Ok ls ->
      check "layers are the gaps"
        (Array.for_all2 (fun l e -> Float.abs (l -. e) < 1.) ls [| 100.; 50.; 250.; 100. |])
  | Error _ -> check "a consistent chain joins" false);
  (* A latency measured from the send time instead of the due time:
     the layers do not sum to it. *)
  check "layers that do not sum to the end-to-end time fail"
    (match Spans.layers chain ~e2e_us:380. with Error (Spans.Sum_mismatch _) -> true | _ -> false);
  check "a missing span fails"
    (match Spans.layers [| t0; nan; t0 +. 1e-4 |] ~e2e_us:100. with
    | Error (Spans.Missing 1) -> true
    | _ -> false);
  (* A span joined to another request's id puts a stamp out of order. *)
  let misjoined = [| t0; t0 +. 300e-6; t0 +. 150e-6; t0 +. 400e-6; t0 +. 500e-6 |] in
  check "an out-of-order stamp fails"
    (match Spans.layers misjoined ~e2e_us:500. with Error (Spans.Negative (1, _)) -> true | _ -> false);
  check "rounding within the tolerance passes"
    (Result.is_ok (Spans.layers chain ~e2e_us:(500. +. (Spans.tolerance_us /. 2.))));
  let j = Spans.join ~nlayers:4 [ (1, chain, 500.); (2, misjoined, 500.); (3, chain, 380.); (4, chain, 501.) ] in
  check "join keeps only operations that pass" (Array.length j.Spans.per_layer.(0) = 2);
  check "join counts every failure" (j.Spans.failures = 2);
  check "join reports the first failure by id"
    (match j.Spans.first_failure with
    | Some s -> String.length s > 12 && String.sub s 0 12 = "operation 2:"
    | None -> false);
  check "join reports the worst sum error" (Float.abs (j.Spans.max_err_us -. 1.) < 1.)

let () =
  parser_checks ();
  percentile_checks ();
  span_checks ();
  if !failures > 0 then begin
    Printf.eprintf "selfcheck: %d checks failed\n%!" !failures;
    exit 1
  end
  else print_endline "selfcheck: all checks passed"
