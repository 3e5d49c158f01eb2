(* Joining the spans of one operation and checking that its layers
   account for its end-to-end time.

   An operation is a chain of boundary stamps on the wall clock, which
   all processes of a run share, e.g. for an HTTP request: due ->
   dispatch enqueue -> handler start -> handler end -> generator
   receipt.  Its layers are the gaps between consecutive stamps, so they
   always sum to last stamp - first stamp.  The end-to-end time is
   measured apart from the chain: by the process that owns the
   operation, on its monotonic clock.  So the check can fail three ways:
   a stamp missing (a span never recorded), a stamp out of order (a span
   joined to the wrong operation), or the chain's ends disagreeing with
   the measured latency (a wall-clock step during the run, or a chain
   that does not start and end where the latency does). *)

(* Wall-clock reads are doubles of epoch seconds: about 0.25 us of
   rounding each, so a few microseconds is far above representation
   error and far below any layer worth reporting. *)
let tolerance_us = 5.

type error = Missing of int | Negative of int * float | Sum_mismatch of float * float

let error_to_string = function
  | Missing i -> Printf.sprintf "stamp %d missing" i
  | Negative (i, us) -> Printf.sprintf "layer %d negative (%.1f us)" i us
  | Sum_mismatch (sum, e2e) ->
      Printf.sprintf "layers sum to %.1f us, end to end is %.1f us" sum e2e

(* [layers stamps ~e2e_us] is the layer durations in microseconds, or
   the first reason they cannot be trusted.  [stamps] are seconds, [nan]
   where a span is missing. *)
let layers stamps ~e2e_us =
  let k = Array.length stamps - 1 in
  match Array.find_index Float.is_nan stamps with
  | Some i -> Error (Missing i)
  | None -> (
      let ls = Array.init k (fun i -> (stamps.(i + 1) -. stamps.(i)) *. 1e6) in
      match Array.find_index (fun l -> l < -.tolerance_us) ls with
      | Some i -> Error (Negative (i, ls.(i)))
      | None ->
          let sum = Array.fold_left ( +. ) 0. ls in
          if Float.abs (sum -. e2e_us) > tolerance_us then Error (Sum_mismatch (sum, e2e_us))
          else Ok ls)

(* Per-layer samples for a set of operations, plus the worst sum error
   and the first failure seen (with how many failed). *)
type joined = {
  per_layer : float array array;  (** [per_layer.(l)] = samples of layer l, us *)
  max_err_us : float;
  failures : int;
  first_failure : string option;
}

let join ~nlayers ops =
  let acc = Array.init nlayers (fun _ -> ref []) in
  let max_err = ref 0. and failures = ref 0 and first = ref None in
  List.iter
    (fun (id, stamps, e2e_us) ->
      match layers stamps ~e2e_us with
      | Ok ls ->
          Array.iteri (fun i l -> acc.(i) := l :: !(acc.(i))) ls;
          let sum = Array.fold_left ( +. ) 0. ls in
          max_err := Float.max !max_err (Float.abs (sum -. e2e_us))
      | Error e ->
          incr failures;
          if !first = None then
            first := Some (Printf.sprintf "operation %d: %s" id (error_to_string e)))
    ops;
  {
    per_layer = Array.map (fun r -> Array.of_list !r) acc;
    max_err_us = !max_err;
    failures = !failures;
    first_failure = !first;
  }
