(* Order statistics and the result line shared by every benchmark program. *)

(* Wall-clock time, epoch seconds: the clock every process of a run
   shares, so stamps taken in different processes can be chained. *)
let now () = Unix.gettimeofday ()

(* Monotonic time, seconds: for intervals measured within one process. *)
external mono : unit -> (float[@unboxed]) = "perfbench_mono_byte" "perfbench_mono" [@@noalloc]

(* Reads both clocks into [m.(i)] and [w.(i)], less than 1 us apart:
   a thread interrupted between the reads reads again.  Latencies are
   timed on the monotonic clock and layers chained on the wall clock;
   this keeps the two comparable. *)
let rec stamp m w i =
  let m0 = mono () in
  let t = now () in
  if mono () -. m0 > 1e-6 then stamp m w i
  else begin
    Float.Array.set m i m0;
    Float.Array.set w i t
  end

(* Nearest-rank percentile of an already sorted array: the smallest
   sample with at least [p] of the samples at or below it.  [nan] on an
   empty sample, which [emit] refuses to print. *)
let percentile_sorted sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) k))

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

let percentile a p = percentile_sorted (sorted a) p

let median a = percentile a 0.5

let median_list l = median (Array.of_list l)

(* A metric value and its unit, in the order the program emits them. *)
type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* The last stdout line of every run: the result object run.py checks
   against BENCHMARK.json and passes on.  A value that is not finite
   cannot be printed as JSON; it marks the run incorrect instead. *)
let emit ~correct ~attempted ~failed metrics =
  let bad = List.filter (fun x -> not (Float.is_finite x.value)) metrics in
  List.iter (fun x -> Printf.eprintf "metric %s is not finite\n%!" x.name) bad;
  let correct = correct && bad = [] in
  let body =
    metrics
    |> List.map (fun x ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name
             (if Float.is_finite x.value then x.value else 0.)
             x.unit_)
    |> String.concat ", "
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body;
  correct
