module CL = Lhws_deque.Chase_lev

let check_opt = Alcotest.(check (option int))

let test_sequential_lifo () =
  let d = CL.create () in
  List.iter (CL.push_bottom d) [ 1; 2; 3 ];
  check_opt "pop 3" (Some 3) (CL.pop_bottom d);
  check_opt "pop 2" (Some 2) (CL.pop_bottom d);
  check_opt "pop 1" (Some 1) (CL.pop_bottom d);
  check_opt "empty" None (CL.pop_bottom d)

let test_sequential_steal_fifo () =
  let d = CL.create () in
  List.iter (CL.push_bottom d) [ 1; 2; 3 ];
  check_opt "steal 1" (Some 1) (CL.steal d);
  check_opt "steal 2" (Some 2) (CL.steal d);
  check_opt "steal 3" (Some 3) (CL.steal d);
  check_opt "empty" None (CL.steal d)

let test_empty_after_mixed () =
  let d = CL.create () in
  List.iter (CL.push_bottom d) [ 1; 2 ];
  ignore (CL.steal d);
  ignore (CL.pop_bottom d);
  Alcotest.(check bool) "empty" true (CL.is_empty d);
  check_opt "pop none" None (CL.pop_bottom d);
  check_opt "steal none" None (CL.steal d);
  (* still usable *)
  CL.push_bottom d 9;
  check_opt "after reuse" (Some 9) (CL.pop_bottom d)

let test_growth () =
  let d = CL.create ~capacity:2 () in
  for i = 1 to 200 do
    CL.push_bottom d i
  done;
  Alcotest.(check int) "size" 200 (CL.size d);
  check_opt "steal oldest" (Some 1) (CL.steal d);
  check_opt "pop newest" (Some 200) (CL.pop_bottom d)

let test_interleaved_grow_steal () =
  let d = CL.create ~capacity:2 () in
  for i = 1 to 50 do
    CL.push_bottom d i;
    if i mod 3 = 0 then ignore (CL.steal d)
  done;
  (* drain and verify no element lost or duplicated *)
  let seen = Hashtbl.create 64 in
  let rec drain () =
    match CL.pop_bottom d with
    | Some x ->
        Alcotest.(check bool) "no dup" false (Hashtbl.mem seen x);
        Hashtbl.add seen x ();
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "drained the rest" (50 - 16) (Hashtbl.length seen)

(* Concurrency: one owner domain pushes/pops, several thieves steal; every
   element must be consumed exactly once across all parties. *)
let test_concurrent_owner_thieves () =
  let total = 20_000 in
  let nthieves = 3 in
  let d = CL.create () in
  let consumed = Array.make (total + 1) 0 in
  let consumed_mu = Mutex.create () in
  let record xs =
    Mutex.lock consumed_mu;
    List.iter (fun x -> consumed.(x) <- consumed.(x) + 1) xs;
    Mutex.unlock consumed_mu
  in
  let done_pushing = Atomic.make false in
  let thief () =
    let mine = ref [] in
    let rec go misses =
      match CL.steal d with
      | Some x ->
          mine := x :: !mine;
          go 0
      | None ->
          if Atomic.get done_pushing && misses > 100 then ()
          else begin
            Domain.cpu_relax ();
            go (misses + 1)
          end
    in
    go 0;
    record !mine
  in
  let thieves = Array.init nthieves (fun _ -> Domain.spawn thief) in
  let mine = ref [] in
  for i = 1 to total do
    CL.push_bottom d i;
    (* owner occasionally pops a few *)
    if i mod 7 = 0 then
      match CL.pop_bottom d with Some x -> mine := x :: !mine | None -> ()
  done;
  Atomic.set done_pushing true;
  (* owner drains what remains *)
  let rec drain () =
    match CL.pop_bottom d with
    | Some x ->
        mine := x :: !mine;
        drain ()
    | None -> ()
  in
  drain ();
  Array.iter Domain.join thieves;
  record !mine;
  let missing = ref 0 and dup = ref 0 in
  for i = 1 to total do
    if consumed.(i) = 0 then incr missing;
    if consumed.(i) > 1 then incr dup
  done;
  Alcotest.(check int) "no element lost" 0 !missing;
  Alcotest.(check int) "no element duplicated" 0 !dup

(* The grow path under fire: starting from the minimum capacity, the owner
   pushes enough to force many buffer doublings while three thieves drain
   concurrently, so grows race with in-flight steals of the old buffer.
   Every element must still be consumed exactly once. *)
let test_concurrent_grow () =
  let total = 50_000 in
  let nthieves = 3 in
  let d = CL.create ~capacity:2 () in
  let consumed = Array.make (total + 1) 0 in
  let consumed_mu = Mutex.create () in
  let record xs =
    Mutex.lock consumed_mu;
    List.iter (fun x -> consumed.(x) <- consumed.(x) + 1) xs;
    Mutex.unlock consumed_mu
  in
  let done_pushing = Atomic.make false in
  let thief () =
    let mine = ref [] in
    let rec go misses =
      match CL.steal d with
      | Some x ->
          mine := x :: !mine;
          go 0
      | None ->
          if Atomic.get done_pushing && misses > 100 then ()
          else begin
            Domain.cpu_relax ();
            go (misses + 1)
          end
    in
    go 0;
    record !mine
  in
  let thieves = Array.init nthieves (fun _ -> Domain.spawn thief) in
  for i = 1 to total do
    CL.push_bottom d i
  done;
  Atomic.set done_pushing true;
  let mine = ref [] in
  let rec drain () =
    match CL.pop_bottom d with
    | Some x ->
        mine := x :: !mine;
        drain ()
    | None -> ()
  in
  drain ();
  Array.iter Domain.join thieves;
  record !mine;
  let missing = ref 0 and dup = ref 0 in
  for i = 1 to total do
    if consumed.(i) = 0 then incr missing;
    if consumed.(i) > 1 then incr dup
  done;
  Alcotest.(check int) "no element lost" 0 !missing;
  Alcotest.(check int) "no element duplicated" 0 !dup

(* ---- steal_half ---- *)

let steal_half_list d =
  let got = ref [] in
  let k = CL.steal_half d (fun x -> got := x :: !got) in
  (k, List.rev !got)

(* Exact split arithmetic: a single steal_half on an n-element deque takes
   ceil(n/2) elements — the oldest, in push order — and the owner's drain
   gets exactly the newest floor(n/2) back. *)
let test_steal_half_split () =
  List.iter
    (fun n ->
      let d = CL.create ~capacity:2 () in
      for i = 1 to n do
        CL.push_bottom d i
      done;
      let expect = (n + 1) / 2 in
      let k, got = steal_half_list d in
      Alcotest.(check int) (Printf.sprintf "n=%d batch size" n) expect k;
      Alcotest.(check (list int))
        (Printf.sprintf "n=%d oldest first" n)
        (List.init expect (fun i -> i + 1))
        got;
      (* Owner pops newest-first; consing reverses back to push order. *)
      let rest = ref [] in
      let rec drain () =
        match CL.pop_bottom d with
        | Some x ->
            rest := x :: !rest;
            drain ()
        | None -> ()
      in
      drain ();
      Alcotest.(check (list int))
        (Printf.sprintf "n=%d remainder" n)
        (List.init (n - expect) (fun i -> expect + 1 + i))
        !rest)
    [ 0; 1; 2; 3; 4; 5; 6; 7; 64; 65 ]

(* The owner pops while a batch is in flight, made deterministic by
   popping from inside the thief's callback.  After the first element
   the owner takes 4 of the remaining 5 slots, so bottom falls to 2
   while top is 1: the thief may take slot 1 and must stop there.  A
   thief that trusts its one [bottom] read still wins the CAS 2 -> 3 and
   hands out slot 2, which the owner already took and reset to the
   deque's private sentinel.  Boxed elements make every legitimate value
   distinguishable from that sentinel by physical identity. *)
let test_steal_half_owner_pops_mid_batch () =
  let items = Array.init 6 (fun i -> ref i) in
  let d = CL.create () in
  Array.iter (CL.push_bottom d) items;
  let stolen = ref [] and popped = ref [] in
  let first = ref true in
  let k =
    CL.steal_half d (fun x ->
        stolen := x :: !stolen;
        if !first then begin
          first := false;
          for _ = 1 to 4 do
            match CL.pop_bottom d with Some y -> popped := y :: !popped | None -> ()
          done
        end)
  in
  let genuine x = Array.exists (fun y -> y == x) items in
  Alcotest.(check int) "stolen count" 2 k;
  Alcotest.(check int) "owner popped" 4 (List.length !popped);
  let all = !stolen @ !popped in
  Alcotest.(check bool) "every value is a pushed element" true (List.for_all genuine all);
  Alcotest.(check (list int))
    "each element exactly once"
    [ 0; 1; 2; 3; 4; 5 ]
    (List.sort compare (List.map ( ! ) all));
  Alcotest.(check bool) "deque empty" true (CL.is_empty d);
  Alcotest.(check (option int)) "nothing left to pop" None
    (Option.map ( ! ) (CL.pop_bottom d))

(* Steal-half racing the owner's pop for the boundary element: the owner
   pops right after every push, so the deque is never more than one
   element deep and every successful steal_half contends with pop_bottom
   for the same slot.  Exactly one side may win each element. *)
let test_steal_half_pop_boundary () =
  let items = 10_000 in
  let d = CL.create () in
  let done_pushing = Atomic.make false in
  let thief () =
    let mine = ref [] in
    let rec go misses =
      if CL.steal_half d (fun x -> mine := x :: !mine) > 0 then go 0
      else if Atomic.get done_pushing && misses > 200 then ()
      else begin
        Domain.cpu_relax ();
        go (misses + 1)
      end
    in
    go 0;
    !mine
  in
  let t = Domain.spawn thief in
  let mine = ref [] in
  for i = 1 to items do
    CL.push_bottom d i;
    (match CL.pop_bottom d with Some x -> mine := x :: !mine | None -> ());
    (* Real sleeps: on a single core the thief only runs when the owner
       yields the CPU. *)
    if i mod 50 = 0 then Unix.sleepf 1e-6
  done;
  Atomic.set done_pushing true;
  let rec drain () =
    match CL.pop_bottom d with
    | Some x ->
        mine := x :: !mine;
        drain ()
    | None -> ()
  in
  drain ();
  let stolen = Domain.join t in
  let consumed = Array.make (items + 1) 0 in
  List.iter (fun x -> consumed.(x) <- consumed.(x) + 1) !mine;
  List.iter (fun x -> consumed.(x) <- consumed.(x) + 1) stolen;
  let missing = ref 0 and dup = ref 0 in
  for i = 1 to items do
    if consumed.(i) = 0 then incr missing;
    if consumed.(i) > 1 then incr dup
  done;
  Alcotest.(check int) "no element lost" 0 !missing;
  Alcotest.(check int) "no element duplicated" 0 !dup;
  Alcotest.(check int) "all consumed" items (List.length !mine + List.length stolen)

(* Steal-half racing grow: from the minimum capacity the owner forces many
   buffer doublings while three thieves batch-steal, so steal_half's
   buffer re-reads race in-flight grows.  Exactly-once must still hold. *)
let test_steal_half_concurrent_grow () =
  let total = 50_000 in
  let nthieves = 3 in
  let d = CL.create ~capacity:2 () in
  let consumed = Array.make (total + 1) 0 in
  let consumed_mu = Mutex.create () in
  let record xs =
    Mutex.lock consumed_mu;
    List.iter (fun x -> consumed.(x) <- consumed.(x) + 1) xs;
    Mutex.unlock consumed_mu
  in
  let done_pushing = Atomic.make false in
  let thief () =
    let mine = ref [] in
    let rec go misses =
      if CL.steal_half d (fun x -> mine := x :: !mine) > 0 then go 0
      else if Atomic.get done_pushing && misses > 100 then ()
      else begin
        Domain.cpu_relax ();
        go (misses + 1)
      end
    in
    go 0;
    record !mine
  in
  let thieves = Array.init nthieves (fun _ -> Domain.spawn thief) in
  for i = 1 to total do
    CL.push_bottom d i;
    if i mod 1000 = 0 then Unix.sleepf 1e-6
  done;
  Atomic.set done_pushing true;
  let mine = ref [] in
  let rec drain () =
    match CL.pop_bottom d with
    | Some x ->
        mine := x :: !mine;
        drain ()
    | None -> ()
  in
  drain ();
  Array.iter Domain.join thieves;
  record !mine;
  let missing = ref 0 and dup = ref 0 in
  for i = 1 to total do
    if consumed.(i) = 0 then incr missing;
    if consumed.(i) > 1 then incr dup
  done;
  Alcotest.(check int) "no element lost" 0 !missing;
  Alcotest.(check int) "no element duplicated" 0 !dup

(* 3-thief steal_half storm via the shared stress harness; the paused
   owner gives the thieves CPU windows for consecutive batched steals. *)
let test_steal_half_storm () =
  let module Stress = Lhws_proptest.Stress in
  let r =
    Stress.hammer
      (module Stress.Chase_lev_deque)
      ~thieves:3 ~items:30_000 ~pop_every:5 ~owner_pause_every:40 ~steal:`Half ()
  in
  if not (Stress.ok r) then
    Alcotest.failf "steal-half storm flagged: %a" (fun ppf -> Stress.pp_report ppf) r;
  Alcotest.(check int) "all consumed" r.Stress.pushed (r.Stress.popped + r.Stress.stolen)

let () =
  Alcotest.run "chase_lev"
    [
      ( "sequential",
        [
          Alcotest.test_case "LIFO pop" `Quick test_sequential_lifo;
          Alcotest.test_case "FIFO steal" `Quick test_sequential_steal_fifo;
          Alcotest.test_case "empty after mixed" `Quick test_empty_after_mixed;
          Alcotest.test_case "growth" `Quick test_growth;
          Alcotest.test_case "interleaved grow/steal" `Quick test_interleaved_grow_steal;
          Alcotest.test_case "steal-half split arithmetic" `Quick test_steal_half_split;
          Alcotest.test_case "steal-half owner pops mid-batch" `Quick
            test_steal_half_owner_pops_mid_batch;
        ] );
      ( "concurrent",
        [
          Alcotest.test_case "owner vs thieves" `Slow test_concurrent_owner_thieves;
          Alcotest.test_case "grow under steals" `Slow test_concurrent_grow;
          Alcotest.test_case "steal-half vs owner pop at boundary" `Slow
            test_steal_half_pop_boundary;
          Alcotest.test_case "steal-half under concurrent grow" `Slow
            test_steal_half_concurrent_grow;
          Alcotest.test_case "steal-half 3-thief storm" `Slow test_steal_half_storm;
        ] );
    ]
