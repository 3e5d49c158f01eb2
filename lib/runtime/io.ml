(* Submission/completion reactor.

   Fibers no longer talk to the readiness backend directly: they enqueue
   *intents* (fd, direction, an optional kernel operation to run once
   the fd is ready, and a completion callback) into per-worker lock-free
   submission rings.  The CAS-elected pump worker drains every ring,
   registers the drained intents in its waiter table, issues one batched
   readiness pass over the incrementally-maintained fd sets, executes
   the ready operations directly, and delivers completions through the
   callbacks — which ride the pools' existing Treiber-stack MPSC resume
   channels back to each fiber's home deque.

   Exactly-once resumption survives the restructure.  An intent moves
   through three states under [t.mu]: [Armed] (submitted or re-armed,
   claimable), [Claimed] (the pump owns it and is running its op) and
   [Done] (its outcome is decided).  The three competitors — readiness,
   an fd error discovered during the readiness pass, and external
   cancellation (deadline timers, through {!cancel}) — each claim by
   flipping [Armed -> Done/Claimed] under the mutex.  The one subtle
   window: a cancel that arrives while the pump holds the intent
   [Claimed] cannot revoke the claim, so it records [cancel_requested]
   and returns [false]; if the pump's op then comes back would-block
   (which would normally re-arm the intent), the pump sees the flag and
   delivers a [Cancelled] completion instead of parking the fiber past
   its deadline.

   Submission takes no lock (one CAS on a ring plus two atomic bumps);
   the mutex now serializes only the pump, cancellation and the stall
   sweep. *)

(* What finally happened to an intent.  [Cancelled] is only delivered
   for intents whose {!cancel} lost the claim race as described above;
   a cancel that wins the race means no completion is ever delivered. *)
type outcome = Complete | Error of exn | Cancelled

type state = Armed | Claimed | Done

type intent = {
  ifd : Unix.file_descr;
  ikind : [ `R | `W ];
  (* The operation to run in the pump once the fd is ready.  [`Done]
     means the result was produced (stashed by the closure itself);
     [`Again] means the kernel said would-block after all — re-arm
     without waking the fiber.  Raising delivers [Error].  Plain
     readiness waits use a closure that just returns [`Done]. *)
  run : unit -> [ `Done | `Again ];
  notify : outcome -> unit;
  mutable istate : state;  (* guarded by [t.mu] *)
  mutable cancel_requested : bool;  (* guarded by [t.mu] *)
  isubmitted : float;  (* when the fiber parked; feeds the staleness gauge *)
  mutable iregistered : bool;
      (* guarded by [t.mu]: in the waiter tables right now.  An [Armed]
         intent that is neither registered nor sitting in a submission
         ring has lost its wakeup — the signature the stall sweep hunts. *)
  mutable iflagged : bool;  (* stall already counted (warn mode); sweep-only *)
  mutable iprobed : float;
      (* when the stall sweep last probed this fd (0. = never); sweep-only.
         Rate-limits per-intent probe syscalls so long-parked idle
         connections are not probed on every sweep. *)
}

(* The readiness backend seam.  [poll] is the one implementation; an
   epoll or io_uring backend slots in by implementing the same
   contract: [add]/[remove] maintain interest incrementally (no rebuild
   per pass), [wait] performs one batched readiness pass that blocks
   for at most its timeout, returning as soon as an fd turns ready. *)
module type BACKEND = sig
  type t

  val create : unit -> t
  val add : t -> [ `R | `W ] -> Unix.file_descr -> unit
  (** Called once when the first waiter for (fd, direction) registers. *)

  val remove : t -> [ `R | `W ] -> Unix.file_descr -> unit
  (** Called once when the last waiter for (fd, direction) leaves. *)

  val armed : t -> bool
  (** Whether any interest is registered at all. *)

  val size : t -> int
  (** Number of distinct descriptors registered — the cost driver of one
      batched pass, which the pump's pacing scales with. *)

  val wait : t -> timeout_us:int -> Unix.file_descr list * Unix.file_descr list
  (** One batched readiness pass (ready-to-read, ready-to-write),
      waiting up to [timeout_us] microseconds (0 = non-blocking) for
      the first fd to turn ready. *)

  val probe : [ `R | `W ] -> Unix.file_descr -> exn option
  (** One fd tested in isolation: [Some exn] when the descriptor is
      bad, [None] when it is merely not ready. *)
end

(* --- poll(2) stubs (see poll_stubs.c) ---

   [poll_raw] drives parallel int arrays: interest bit 1 = readable,
   2 = writable; result adds bit 4 for POLLNVAL.  The last argument is
   the timeout in microseconds (-1 = forever).  Returns the number of
   ready entries, or -1 for EINTR. *)
external poll_raw :
  Unix.file_descr array -> int array -> int array -> int -> int -> int
  = "lhws_poll_stub"

external raise_nofile_raw : int -> int = "lhws_raise_nofile_stub"

let raise_nofile want = raise_nofile_raw want

(* One descriptor, one direction, a millisecond timeout (-1 = forever):
   the single-fd wait used by blocking-mode reactors, with none of
   select's FD_SETSIZE ceiling.  [`Ready] covers error/hang-up too —
   the caller's own syscall surfaces whatever is wrong with the fd. *)
let poll_single kind fd ~timeout_ms =
  let fds = [| fd |] in
  let events = [| (match kind with `R -> 1 | `W -> 2) |] in
  let revents = [| 0 |] in
  let timeout_us = if timeout_ms < 0 then -1 else timeout_ms * 1000 in
  match poll_raw fds events revents 1 timeout_us with
  | 0 -> `Timeout
  | -1 -> `Interrupted
  | _ ->
      if revents.(0) land 4 <> 0 then
        raise (Unix.Unix_error (Unix.EBADF, "poll", ""))
      else `Ready

module Poll_backend : BACKEND = struct
  (* Incrementally maintained pollfd mirror: parallel growable arrays
     plus an fd -> slot index, so [add]/[remove] are O(1) (remove swaps
     the last entry down) and [wait] hands the arrays to poll(2) as-is.
     Both directions of one fd share a slot; interest is the bit mask
     the stub expects (1 = R, 2 = W). *)
  type t = {
    mutable fds : Unix.file_descr array;
    mutable events : int array;
    mutable revents : int array;
    mutable n : int;
    index : (Unix.file_descr, int) Hashtbl.t;
  }

  let create () =
    {
      fds = Array.make 64 Unix.stdin;
      events = Array.make 64 0;
      revents = Array.make 64 0;
      n = 0;
      index = Hashtbl.create 64;
    }

  let grow t =
    let cap = Array.length t.fds in
    if t.n = cap then begin
      let fds = Array.make (2 * cap) Unix.stdin in
      let events = Array.make (2 * cap) 0 in
      Array.blit t.fds 0 fds 0 cap;
      Array.blit t.events 0 events 0 cap;
      t.fds <- fds;
      t.events <- events;
      t.revents <- Array.make (2 * cap) 0
    end

  let bit = function `R -> 1 | `W -> 2

  let add t kind fd =
    match Hashtbl.find_opt t.index fd with
    | Some i -> t.events.(i) <- t.events.(i) lor bit kind
    | None ->
        grow t;
        t.fds.(t.n) <- fd;
        t.events.(t.n) <- bit kind;
        Hashtbl.replace t.index fd t.n;
        t.n <- t.n + 1

  let remove t kind fd =
    match Hashtbl.find_opt t.index fd with
    | None -> ()
    | Some i ->
        let ev = t.events.(i) land lnot (bit kind) in
        if ev <> 0 then t.events.(i) <- ev
        else begin
          let last = t.n - 1 in
          Hashtbl.remove t.index fd;
          if i < last then begin
            t.fds.(i) <- t.fds.(last);
            t.events.(i) <- t.events.(last);
            Hashtbl.replace t.index t.fds.(i) i
          end;
          t.n <- last
        end

  let armed t = t.n > 0
  let size t = t.n

  (* POLLNVAL entries are reported ready for whatever direction they
     registered: the pump then runs (or wakes) their operations, whose
     own syscall raises EBADF: a parked fiber fails loudly, without a
     second syscall to find the culprit. *)
  let wait t ~timeout_us =
    match poll_raw t.fds t.events t.revents t.n timeout_us with
    | 0 | -1 -> ([], [])
    | _ ->
        let r = ref [] and w = ref [] in
        for i = 0 to t.n - 1 do
          let re = t.revents.(i) in
          if re <> 0 then begin
            let interest = t.events.(i) in
            let nval = re land 4 <> 0 in
            if interest land 1 <> 0 && (re land 1 <> 0 || nval) then
              r := t.fds.(i) :: !r;
            if interest land 2 <> 0 && (re land 2 <> 0 || nval) then
              w := t.fds.(i) :: !w
          end
        done;
        (!r, !w)

  let probe kind fd =
    match poll_single kind fd ~timeout_ms:0 with
    | `Ready | `Timeout | `Interrupted -> None
    | exception (Unix.Unix_error _ as e) -> Some e
end

type waiters = (Unix.file_descr, intent list ref) Hashtbl.t

(* Keep readiness-pass frequency amortized: the pass is
   paced by wall clock, and the interval grows with the registered-set
   size.  Time-based pacing is sound because eager completion already
   ran every operation once before it parked — a parked fd only becomes
   ready when the peer acts, so there is never a correctness reason to
   re-poll immediately on submission; worst case a readiness edge is
   detected one interval late.  The size scaling is what makes c10k
   serving work: poll(2) walks every registered fd, so with 10k parked
   connections one pass costs hundreds of microseconds, and re-passing
   every 50 us (the old fixed interval, fired on every submission under
   load) burns the whole core in the kernel.  At 0.2 us per registered
   fd the steady-state polling duty cycle stays bounded regardless of
   scale, while small interest sets keep the 50 us floor. *)
let base_pacing_s = 0.00005
let per_fd_pacing_s = 2e-7

let ring_count = 8 (* power of two; rings are indexed by domain id *)

type t = {
  mu : Mutex.t;
  readers : waiters;
  writers : waiters;
  backend : Poll_backend.t;
  rings : intent list Atomic.t array;  (* per-worker submission rings *)
  npending : int Atomic.t;  (* intents submitted, not yet decided *)
  syscalls : int Atomic.t;  (* kernel I/O calls made through this reactor *)
  mutable last_pass : float;  (* pump-only: when the last readiness pass ran *)
  (* Test-only mutation hook: drop every [drop_every]-th completion on
     the floor (the fiber stays parked forever).  Exists so the chaos
     suite can prove it *detects* a lost completion — see
     [test/test_reactor.ml] — and is never set in production paths. *)
  drop_every : int Atomic.t;
  drop_tick : int Atomic.t;
  (* Census of every live intent, consed lock-free at submission and
     pruned of decided intents by the stall sweep.  Lets a watchdog ask
     two questions the waiter tables cannot answer: how old is the
     oldest parked fiber, and is any [Armed] intent tracked nowhere? *)
  tracked : intent list Atomic.t;
}

let create () =
  {
    mu = Mutex.create ();
    readers = Hashtbl.create 16;
    writers = Hashtbl.create 16;
    backend = Poll_backend.create ();
    rings = Array.init ring_count (fun _ -> Atomic.make []);
    npending = Atomic.make 0;
    syscalls = Atomic.make 0;
    last_pass = 0.;
    drop_every = Atomic.make 0;
    drop_tick = Atomic.make 0;
    tracked = Atomic.make [];
  }

let syscalls t = Atomic.get t.syscalls
let count_syscall t = Atomic.incr t.syscalls
let pending t = Atomic.get t.npending
let chaos_drop_completions t ~every = Atomic.set t.drop_every every

let tbl_of t = function `R -> t.readers | `W -> t.writers

(* --- registration table (pump + cancel only; guarded by [t.mu]) --- *)

let register_locked t w =
  w.iregistered <- true;
  let tbl = tbl_of t w.ikind in
  match Hashtbl.find_opt tbl w.ifd with
  | Some l -> l := w :: !l
  | None ->
      Hashtbl.add tbl w.ifd (ref [ w ]);
      Poll_backend.add t.backend w.ikind w.ifd

(* Detach every armed waiter on [fd], marking them [Claimed]: the caller
   (the pump) owns them and must decide each one.  Owner of [t.mu]. *)
let take_all_locked t kind fd =
  let tbl = tbl_of t kind in
  match Hashtbl.find_opt tbl fd with
  | None -> []
  | Some l ->
      let ws = List.filter (fun w -> w.istate = Armed) !l in
      List.iter
        (fun w ->
          w.istate <- Claimed;
          w.iregistered <- false)
        ws;
      Hashtbl.remove tbl fd;
      Poll_backend.remove t.backend kind fd;
      ws

(* --- submission: the lock-free fiber-side entry point --- *)

let rec ring_push r w =
  let old = Atomic.get r in
  if not (Atomic.compare_and_set r old (w :: old)) then ring_push r w

let submit t ~kind ~fd ~run notify =
  let w =
    {
      ifd = fd;
      ikind = kind;
      run;
      notify;
      istate = Armed;
      cancel_requested = false;
      isubmitted = Unix.gettimeofday ();
      iregistered = false;
      iflagged = false;
      iprobed = 0.;
    }
  in
  Atomic.incr t.npending;
  ring_push t.tracked w;
  let slot = (Domain.self () :> int) land (ring_count - 1) in
  ring_push t.rings.(slot) w;
  w

(* Remove one intent from the waiter table (it may not be there — e.g.
   still in a submission ring).  Owner of [t.mu]. *)
let detach_locked t w =
  w.iregistered <- false;
  let tbl = tbl_of t w.ikind in
  match Hashtbl.find_opt tbl w.ifd with
  | None -> ()
  | Some l -> (
      match List.filter (fun w' -> w' != w) !l with
      | [] ->
          Hashtbl.remove tbl w.ifd;
          Poll_backend.remove t.backend w.ikind w.ifd
      | rest -> l := rest)

let cancel t w =
  Mutex.lock t.mu;
  let claimed =
    match w.istate with
    | Armed ->
        w.istate <- Done;
        (* The intent may still sit in a submission ring (the pump
           discards [Done] intents when it drains) or in the table. *)
        detach_locked t w;
        true
    | Claimed ->
        (* The pump is mid-operation; it checks this flag before
           re-arming and completes with [Cancelled] instead. *)
        w.cancel_requested <- true;
        false
    | Done -> false
  in
  Mutex.unlock t.mu;
  if claimed then Atomic.decr t.npending;
  claimed

(* --- completion delivery (pump side) --- *)

(* The real completion path, immune to the chaos hook: the stall sweep
   uses it directly so a watchdog's loud failure cannot itself be
   "lost in transit" by the very fault it is reporting. *)
let deliver_direct t w outcome =
  Mutex.lock t.mu;
  w.istate <- Done;
  Mutex.unlock t.mu;
  Atomic.decr t.npending;
  w.notify outcome

let deliver t w outcome =
  let every = Atomic.get t.drop_every in
  if every > 0 && Atomic.fetch_and_add t.drop_tick 1 mod every = every - 1 then begin
    (* Chaos hook: the completion is lost in transit — exactly the bug
       being simulated.  The intent goes back to [Armed] but is NOT
       re-registered, so nothing will ever complete it: [npending] (the
       io_pending gauge) sticks, and a deadline's {!cancel} can still
       claim the intent and fail the fiber with a timeout.  That is the
       observable signature the mutation test asserts on, instead of a
       silent hang. *)
    Mutex.lock t.mu;
    w.istate <- Armed;
    Mutex.unlock t.mu
  end
  else deliver_direct t w outcome

(* Run a claimed intent's operation in the pump.  A would-block answer
   re-arms the intent (no completion, the fiber stays parked) unless a
   cancel arrived while we held the claim. *)
let execute t w =
  match w.run () with
  | `Done ->
      deliver t w Complete;
      1
  | `Again ->
      Mutex.lock t.mu;
      if w.cancel_requested then begin
        Mutex.unlock t.mu;
        deliver t w Cancelled;
        1
      end
      else begin
        w.istate <- Armed;
        register_locked t w;
        Mutex.unlock t.mu;
        0
      end
  | exception e ->
      deliver t w (Error e);
      1

(* --- the pump --- *)

let drain_rings_locked t =
  Array.iter
    (fun r ->
      if Atomic.get r != [] then
        List.iter
          (fun w -> if w.istate = Armed then register_locked t w)
          (Atomic.exchange r []))
    t.rings

let poll t ~budget_us =
  (* 1. Drain the submission rings into the registration table. *)
  let fresh = Array.exists (fun r -> Atomic.get r != []) t.rings in
  if fresh then begin
    Mutex.lock t.mu;
    drain_rings_locked t;
    Mutex.unlock t.mu
  end;
  if Atomic.get t.npending = 0 || not (Poll_backend.armed t.backend) then 0
  else begin
    (* 2. One batched readiness pass.  A non-blocking pass is paced by
       wall clock and scaled by the registered-set size, so neither an
       idle-spinning pump nor a saturated one burns a full-set walk per
       loop iteration.  A pass with a wait budget comes from an idle
       worker that would otherwise sleep: it runs at once and returns
       as soon as an fd turns ready. *)
    let now = Unix.gettimeofday () in
    let interval =
      base_pacing_s +. (float_of_int (Poll_backend.size t.backend) *. per_fd_pacing_s)
    in
    if budget_us = 0 && now -. t.last_pass < interval then 0
    else begin
      count_syscall t;
      let ready = Poll_backend.wait t.backend ~timeout_us:budget_us in
      (* A blocking pass has seen the fds up to the moment it returned. *)
      t.last_pass <- (if budget_us = 0 then now else Unix.gettimeofday ());
      match ready with
      | [], [] -> 0
      | ready_r, ready_w -> (
          Mutex.lock t.mu;
          let ws =
            List.concat_map (take_all_locked t `R) ready_r
            @ List.concat_map (take_all_locked t `W) ready_w
          in
          Mutex.unlock t.mu;
          (* 3. Execute the ready operations right here and deliver the
             completions; re-armed intents go back without a wake-up. *)
          List.fold_left (fun acc w -> acc + execute t w) 0 ws)
    end
  end

(* --- stall surveillance (the watchdog's view of the reactor) --- *)

let oldest_parked_ms t =
  let now = Unix.gettimeofday () in
  List.fold_left
    (fun acc w ->
      if w.istate = Armed then Float.max acc ((now -. w.isubmitted) *. 1e3)
      else acc)
    0. (Atomic.get t.tracked)

(* One stall sweep over the intent census.  Two signatures, both only
   checked for intents parked longer than [grace]:

   - {e lost wakeup}: [Armed] but in neither the waiter tables nor a
     submission ring (the rings are drained first, so "unregistered"
     is conclusive).  Nothing will ever complete such an intent — the
     exact state the [chaos_drop_completions] hook manufactures, and
     what a completion-dropping backend bug would leave behind.  With
     [fail = Some mk] the fiber is completed loudly with [Error (mk
     msg)] through the chaos-immune direct path; with [fail = None] it
     is counted once and left parked (warn mode).

   - {e stale registration}: [Armed], registered, but the backend's
     probe rejects the fd.  The batched pass protects against this for
     poll (POLLNVAL reported ready), but an epoll-style backend silently forgets closed fds —
     this age-gated probe keeps the parked-fiber-fails-loudly invariant
     backend-independent.  Always delivered (the real [Unix_error]),
     whatever [fail] says: a bad descriptor is an error, not a warning.
     Probes cost one syscall per intent, so each intent is probed at
     most once per [probe_every] — without that gate, every idle
     keep-alive connection parked past [grace] would be re-probed on
     every sweep, O(idle connections) syscalls at watchdog pace.

   Returns how many stalls were newly detected.  Intended to run from a
   registered poller at watchdog pace — every sweep walks the census,
   but probe syscalls touch only over-age registered intents whose last
   probe is older than [probe_every]. *)
let sweep_stalled t ~grace ?probe_every ~fail () =
  let probe_every =
    match probe_every with Some p -> p | None -> Float.max (10. *. grace) 1.
  in
  let now = Unix.gettimeofday () in
  Mutex.lock t.mu;
  drain_rings_locked t;
  let census = Atomic.exchange t.tracked [] in
  let keep = ref [] in
  let orphans = ref [] in
  let warned = ref 0 in
  let stale = ref [] in
  List.iter
    (fun w ->
      match w.istate with
      | Done -> ()  (* decided; falls out of the census *)
      | Claimed -> keep := w :: !keep
      | Armed ->
          if now -. w.isubmitted <= grace then keep := w :: !keep
          else if not w.iregistered then begin
            match fail with
            | Some _ ->
                w.istate <- Done;  (* claim: a racing deadline now loses *)
                orphans := w :: !orphans
            | None ->
                if not w.iflagged then begin
                  w.iflagged <- true;
                  incr warned
                end;
                keep := w :: !keep
          end
          else if now -. w.iprobed >= probe_every then begin
            w.iprobed <- now;
            stale := w :: !stale
          end
          else keep := w :: !keep)
    census;
  Mutex.unlock t.mu;
  let failed_orphans =
    match fail with
    | None -> 0
    | Some mk ->
        List.iter
          (fun w ->
            let age_ms = (now -. w.isubmitted) *. 1e3 in
            let dir = match w.ikind with `R -> "readable" | `W -> "writable" in
            Atomic.decr t.npending;
            w.notify
              (Error
                 (mk
                    (Printf.sprintf
                       "lost wakeup: fiber parked on %s fd for %.1f ms with no \
                        registration"
                       dir age_ms))))
          !orphans;
        List.length !orphans
  in
  (* Probe over-age registered intents outside the lock; deliver the
     descriptor error to any whose fd the backend can no longer serve. *)
  let stale_failures = ref 0 in
  List.iter
    (fun w ->
      count_syscall t;
      match Poll_backend.probe w.ikind w.ifd with
      | None -> keep := w :: !keep
      | Some e ->
          Mutex.lock t.mu;
          let ours = w.istate = Armed in
          if ours then begin
            w.istate <- Claimed;
            detach_locked t w
          end;
          Mutex.unlock t.mu;
          if ours then begin
            incr stale_failures;
            deliver_direct t w (Error e)
          end
          else
            (* The pump claimed it first; if it re-arms on would-block the
               intent is still live, so it must stay in the census (a Done
               intent is pruned on the next sweep anyway). *)
            keep := w :: !keep)
    !stale;
  List.iter (fun w -> ring_push t.tracked w) !keep;
  failed_orphans + !warned + !stale_failures

let wait_on t kind fd =
  let err = ref None in
  Fiber.suspend (fun resume ->
      ignore
        (submit t ~kind ~fd ~run:(fun () -> `Done) (function
          | Complete | Cancelled -> resume ()
          | Error e ->
              err := Some e;
              resume ())
          : intent));
  match !err with Some e -> raise e | None -> ()

let wait_readable t fd = wait_on t `R fd
let wait_writable t fd = wait_on t `W fd

(* --- vectored I/O shim ---

   ExtUnix-free: a single buffer goes straight through; several buffers
   are coalesced into one scratch write, so the whole vector still costs
   one kernel round trip (one copy stands in for the missing writev(2)
   binding — this, not the call sites, is where a C stub would slot
   in). *)

module Iov = struct
  let length iovs = List.fold_left (fun acc b -> acc + Bytes.length b) 0 iovs

  (* Drop the first [n] bytes: the remaining vector after a short write. *)
  let rec drop iovs n =
    if n <= 0 then iovs
    else
      match iovs with
      | [] -> []
      | b :: rest ->
          let len = Bytes.length b in
          if n >= len then drop rest (n - len)
          else [ Bytes.sub b n (len - n) ] @ rest

  (* Clamp the vector to its first [cap] bytes (injected short writes). *)
  let take iovs cap =
    let rec go acc left = function
      | [] -> List.rev acc
      | b :: rest ->
          let len = Bytes.length b in
          if len >= left then List.rev (Bytes.sub b 0 left :: acc)
          else go (b :: acc) (left - len) rest
    in
    if cap <= 0 then [] else go [] cap iovs

  let write fd iovs =
    match iovs with
    | [] -> 0
    | [ b ] -> Unix.write fd b 0 (Bytes.length b)
    | bs ->
        let total = length bs in
        let scratch = Bytes.create total in
        let _ =
          List.fold_left
            (fun pos b ->
              let len = Bytes.length b in
              Bytes.blit b 0 scratch pos len;
              pos + len)
            0 bs
        in
        Unix.write fd scratch 0 total

end

(* --- blocking helpers over the wait surface ---

   Wait-first on purpose: these serve descriptors that may still be in
   blocking mode (tests, pipes), where an eager kernel call could hold
   the worker.  The eager-completion fast path lives in
   [Reactor.run_io], which only sees non-blocking descriptors. *)

let read t fd buf pos len =
  wait_readable t fd;
  count_syscall t;
  Unix.read fd buf pos len

let write t fd buf pos len =
  wait_writable t fd;
  count_syscall t;
  Unix.write fd buf pos len

let read_exactly t fd buf len =
  let rec go pos =
    if pos < len then begin
      let n = read t fd buf pos (len - pos) in
      if n = 0 then raise End_of_file;
      go (pos + n)
    end
  in
  go 0

let write_all t fd buf =
  let len = Bytes.length buf in
  let rec go pos = if pos < len then go (pos + write t fd buf pos (len - pos)) in
  go 0
