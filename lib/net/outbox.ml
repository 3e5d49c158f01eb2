(* Frames land in a slot table keyed by sequence number.  One writer at a
   time holds the flush claim and writes every {e consecutive} ready
   frame from [next_send] as one vectored write.  In the critical
   section that settles the batch it drops the claim and, if the next
   frame is already waiting, marks it [Flush] and wakes its writer: the
   first of that writer and any newly arriving one takes the claim.  A
   frame enqueued at any moment is therefore either written by the
   current batch, handed the claim, or finds the claim free: no frame
   waits for a flusher that has left.  No writer flushes more than one
   batch per claim; a flusher that looped until the table was empty,
   while the other worker kept enqueuing, would hold its own worker
   hostage to their output. *)

type fstate = Queued | Flush | Sent | Failed of exn

type frame = {
  iov : Bytes.t list;
  close_after : bool;
  mutable state : fstate;
  mutable resume : (unit -> unit) option;  (* the parked writer *)
}

type t = {
  mu : Mutex.t;  (* guards everything mutable here; never held across I/O *)
  slots : (int, frame) Hashtbl.t;
  mutable next_seq : int;
  mutable next_send : int;
  mutable flushing : bool;
  park : Gate.park;
}

let create park =
  {
    mu = Mutex.create ();
    slots = Hashtbl.create 16;
    next_seq = 0;
    next_send = 0;
    flushing = false;
    park;
  }

let take_seq ob =
  let s = ob.next_seq in
  ob.next_seq <- s + 1;
  s

let reserve ob =
  Mutex.lock ob.mu;
  let s = take_seq ob in
  Mutex.unlock ob.mu;
  s

(* Claim holder only.  A failed write closes the connection, so every
   later batch fails too (with Net.Closed) instead of waiting on a dead
   peer; [Connection: close] takes effect once its bytes are out. *)
let flush ob conn =
  Mutex.lock ob.mu;
  let rec collect acc n =
    match Hashtbl.find_opt ob.slots n with
    | Some f ->
        Hashtbl.remove ob.slots n;
        collect (f :: acc) (n + 1)
    | None ->
        ob.next_send <- n;
        List.rev acc
  in
  let batch = collect [] ob.next_send in
  Mutex.unlock ob.mu;
  let outcome =
    if batch = [] then Sent
    else
      match Conn.writev_all conn (List.concat_map (fun f -> f.iov) batch) with
      | () ->
          if List.exists (fun f -> f.close_after) batch then Conn.close conn;
          Sent
      | exception e ->
          Conn.close conn;
          Failed e
  in
  Mutex.lock ob.mu;
  List.iter (fun f -> f.state <- outcome) batch;
  ob.flushing <- false;
  let next = Hashtbl.find_opt ob.slots ob.next_send in
  Option.iter (fun f -> f.state <- Flush) next;
  let take_resume f =
    let r = f.resume in
    f.resume <- None;
    r
  in
  let wake = List.filter_map take_resume (Option.to_list next @ batch) in
  Mutex.unlock ob.mu;
  List.iter (fun resume -> resume ()) wake

(* A [Flush] writer takes the claim if it is free.  Its frame is then
   written by its own batch, unless a gap in the sequence holds it back,
   in which case it waits [Queued] like any other. *)
let rec settle ob conn f =
  Mutex.lock ob.mu;
  match f.state with
  | Sent -> Mutex.unlock ob.mu
  | Failed e ->
      Mutex.unlock ob.mu;
      raise e
  | Flush when not ob.flushing ->
      ob.flushing <- true;
      f.state <- Queued;
      Mutex.unlock ob.mu;
      flush ob conn;
      settle ob conn f
  | Flush | Queued ->
      f.state <- Queued;
      (* [register] runs on this thread before the writer parks, so the
         unlock pairs with the lock above. *)
      ob.park (fun resume ->
          f.resume <- Some resume;
          Mutex.unlock ob.mu);
      settle ob conn f

let send ob conn ?seq ?(close_after = false) iov =
  let f = { iov; close_after; state = Flush; resume = None } in
  Mutex.lock ob.mu;
  let seq = match seq with Some s -> s | None -> take_seq ob in
  Hashtbl.replace ob.slots seq f;
  Mutex.unlock ob.mu;
  settle ob conn f
