type steal_mode = Steal_one | Steal_half

(* Where resumed continuations re-enter the scheduling order.
   [Newest_first] is the historical behaviour: resume batches are pushed
   onto their home deque (popped LIFO) and freshly notified deques are
   pushed onto the owner's ready stack — great locality, but under
   saturation the newest connections monopolize the workers and the
   oldest starve (ROADMAP item 2: c10k p99 ~ wall clock).  [Aged_fifo]
   routes resumed continuations through a per-worker FIFO lane in
   arrival order — oldest batch first — bounding staleness at the cost
   of the batch-unfolding parallelism. *)
type resume_order = Newest_first | Aged_fifo

let steal_hist_buckets = 8

type counters = {
  mutable tasks_run : int;
  mutable steals : int;
  mutable failed_steals : int;
  mutable steals_batched : int;
  mutable tasks_stolen : int;
  steal_hist : int array;  (* bucket i: steals that took i+1 tasks; last = larger *)
  mutable suspensions : int;
  mutable resumes : int;
  mutable max_owned : int;
  mutable scavenge_steals : int;
  mutable tasks_scavenged : int;
  mutable heartbeats : int;
      (* bumped once per scheduling-loop iteration; a stall watchdog reads
         it to tell a progressing worker from a stuck one *)
}

(* Record one successful steal that took [tasks] tasks (>= 1). *)
let count_steal c ~tasks =
  c.steals <- c.steals + 1;
  c.tasks_stolen <- c.tasks_stolen + tasks;
  if tasks > 1 then c.steals_batched <- c.steals_batched + 1;
  let bucket = min (tasks - 1) (steal_hist_buckets - 1) in
  c.steal_hist.(bucket) <- c.steal_hist.(bucket) + 1

(* Per-worker EWMA of steal success per victim slot.  Biases victim
   selection away from chronically empty deques via power-of-two-choices:
   draw two candidate victims uniformly (excluding self) and attack the one
   with the better observed hit rate.  Two-choice keeps the pick O(1) and
   retains enough exploration that a victim whose rate decayed to ~0 is
   still probed occasionally, so the estimate can recover when the load
   shifts.  The array is owner-written (the thief records its own
   hit/miss), so it is padded to keep it off other workers' lines. *)
module Victim_stats = struct
  (* The rate array is behind a mutable field so it can grow: a scavenger
     tracking a sibling pool may discover more victim slots than it was
     created with (sibling pools have independent worker counts).  Growth
     is owner-only (the thief resizes its own tracker), so no
     synchronization is needed. *)
  type t = { mutable rates : float array }

  let alpha = 0.125

  let create ~victims : t =
    { rates = Lhws_deque.Padding.copy_as_padded (Array.make (max victims 1) 0.5) }

  let capacity t = Array.length t.rates

  let ensure_capacity t n =
    if n > Array.length t.rates then begin
      let grown = Lhws_deque.Padding.copy_as_padded (Array.make n 0.5) in
      Array.blit t.rates 0 grown 0 (Array.length t.rates);
      t.rates <- grown
    end

  let record t v ~hit =
    let x = if hit then 1.0 else 0.0 in
    t.rates.(v) <- t.rates.(v) +. (alpha *. (x -. t.rates.(v)))

  let rate t v = t.rates.(v)

  (* Requires at least two workers (callers only steal when victims exist). *)
  let pick t rng ~self =
    let n = Array.length t.rates in
    let draw () =
      let v = Random.State.int rng (n - 1) in
      if v >= self then v + 1 else v
    in
    let a = draw () in
    let b = draw () in
    if t.rates.(b) > t.rates.(a) then b else a

  (* Two-choice over [0, n) with no self slot — cross-pool scavengers are
     never candidate victims of the pool they raid.  [n] may be smaller
     than capacity (the tracker is grown to the largest sibling seen). *)
  let pick_foreign t rng ~n =
    if n <= 1 then 0
    else begin
      let a = Random.State.int rng n in
      let b = Random.State.int rng n in
      if t.rates.(b) > t.rates.(a) then b else a
    end
end

type ctx = {
  wid : int;
  rng : Random.State.t;
  counters : counters;
  emit : Tracing.kind -> start_us:float -> dur_us:float -> unit;
  tracing : unit -> bool;
}

let mark ctx kind =
  if ctx.tracing () then ctx.emit kind ~start_us:(Tracing.now_us ()) ~dur_us:0.

type stats = {
  tasks_run : int;
  steals : int;
  failed_steals : int;
  steals_batched : int;
  tasks_stolen : int;
  tasks_per_steal_hist : int array;
  deques_allocated : int;
  suspensions : int;
  resumes : int;
  max_deques_per_worker : int;
  io_pending : int;
  io_syscalls : int;
  conns_shed : int;
  scavenge_steals : int;
  tasks_scavenged : int;
  tasks_donated : int;
  stalls_detected : int;
  oldest_parked_ms : float;
}

(* A pool's stealable surface, as seen by a sibling pool's idle workers.
   Deliberately first-class (a plain record, not a functor output) so a
   pool built from one policy can scavenge a pool built from another —
   the thief only ever sees portable thunks through [sink].  [src_steal]
   returns how many tasks it delivered; tasks that cannot run outside
   their home pool (captured continuations, internal batch re-injections)
   are never exported. *)
type scavenge_source = {
  src_name : string;  (* registry name of the donor pool *)
  src_workers : unit -> int;  (* victim slots to track *)
  src_steal :
    rng:Random.State.t ->
    tracker:Victim_stats.t ->
    mode:steal_mode ->
    sink:((unit -> unit) -> unit) ->
    int;
  src_donated : int Atomic.t;  (* total tasks this pool gave away *)
}

(* Process-level registry of live engine instances, so topologies,
   diagnostics and CLIs can enumerate every pool in the process.  CAS on
   an immutable list: registration is rare (pool create/shutdown). *)
type registry_entry = {
  reg_id : int;
  reg_name : string;
  reg_label : string;  (* policy label, e.g. "Lhws_pool" *)
  reg_workers : int;
  reg_stats : unit -> stats;
}

module Registry = struct
  let next_id = Atomic.make 0
  let table : registry_entry list Atomic.t = Atomic.make []

  let register ?name ~label ~workers ~stats () =
    let id = Atomic.fetch_and_add next_id 1 in
    let name =
      match name with Some n -> n | None -> label ^ "-" ^ string_of_int id
    in
    let e =
      { reg_id = id; reg_name = name; reg_label = label; reg_workers = workers;
        reg_stats = stats }
    in
    let rec push () =
      let old = Atomic.get table in
      if not (Atomic.compare_and_set table old (e :: old)) then push ()
    in
    push ();
    e

  let unregister e =
    let rec remove () =
      let old = Atomic.get table in
      let trimmed = List.filter (fun x -> x.reg_id <> e.reg_id) old in
      if not (Atomic.compare_and_set table old trimmed) then remove ()
    in
    remove ()

  let entries () = List.rev (Atomic.get table)
  let find name = List.find_opt (fun e -> e.reg_name = name) (entries ())
end

module type POLICY = sig
  val label : string
  val rng_salt : int

  type config

  val default_config : config

  type task
  type pool
  type wstate

  val make_pool : config -> ctxs:ctx array -> self_wid:(unit -> int) -> pool
  val worker : pool -> int -> wstate
  val expects_resumes : pool -> wstate -> bool
  val drain : pool -> wstate -> unit
  val next : pool -> wstate -> task option
  val exec : pool -> wstate -> task -> unit
  val inject : pool -> wstate -> pinned:bool -> (unit -> unit) -> unit
  val deques_allocated : pool -> int

  val export_steal :
    pool ->
    rng:Random.State.t ->
    tracker:Victim_stats.t ->
    mode:steal_mode ->
    sink:((unit -> unit) -> unit) ->
    int
  (* One cross-pool steal attempt against this pool: pick a victim via
     [tracker], steal per [mode], deliver only pool-portable thunks to
     [sink] and return how many were delivered.  Non-portable loot must
     be requeued locally, not dropped. *)
end

type poller = {
  poll_fn : int -> int;  (* wait budget in us (0 = non-blocking) -> events fired *)
  pending_fn : (unit -> int) option;  (* gauge: fibers parked in this source *)
  syscalls_fn : (unit -> int) option;  (* counter: kernel I/O calls issued *)
}

module Make (P : POLICY) = struct
  type t = {
    ctxs : ctx array;
    pool : P.pool;
    timer : Timer.t;
    tracer : Tracing.t option ref;
    mutable pollers : poller list;  (* extra event sources, e.g. I/O *)
    (* overload-shed counters published by serving layers (listeners);
       CAS-pushed because registration happens from worker tasks *)
    shed_fns : (unit -> int) list Atomic.t;
    (* stall-watchdog snapshots: each closure yields (stalls so far,
       oldest parked age in ms); same CAS-push discipline as [shed_fns] *)
    watchdog_fns : (unit -> int * float) list Atomic.t;
    pump_lock : bool Atomic.t;  (* elects the one worker pumping timer/pollers *)
    stop : bool Atomic.t;
    mutable domains : unit Domain.t array;
    mutable running : bool;
    (* External submission: per-worker Treiber-stack inboxes drained by the
       owning worker at the top of its scheduling loop, so [submit] is safe
       from any thread (including non-workers) and the thunk is pinned to
       this pool — it can only ever start on one of this pool's workers. *)
    submits : (unit -> unit) list Atomic.t array;
    submit_rr : int Atomic.t;
    (* Cross-pool scavenging: when set, idle workers raid the sibling after
       local steals fail and before climbing the deep-backoff ladder. *)
    scavenge : (scavenge_source * steal_mode) option Atomic.t;
    scav_trackers : Victim_stats.t array;  (* per-worker EWMA over sibling slots *)
    donated : int Atomic.t;  (* tasks exported from this pool via scavenging *)
    entry : registry_entry;
  }

  (* The worker currently executing on this domain; read by effect handlers,
     which may run on a different domain than the one that installed them. *)
  let current : (ctx * P.wstate) option ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref None)

  let self_opt () = !(Domain.DLS.get current)

  let self () =
    match self_opt () with
    | Some cw -> cw
    | None -> failwith (P.label ^ ": not running on a pool worker")

  let self_wid () = (fst (self ())).wid

  let backoff_base_us = 50
  let backoff_max_us = 1_000

  (* Pump event sources, decontended two ways.  First, the timer's earliest
     deadline is read from a lock-free mirror, so when nothing is registered
     the common case costs one atomic load — no heap mutex, no clock read.
     Second, at most one worker at a time pumps (CAS-elected): a losing
     worker skips rather than queueing on the timer's mutex, and the winner
     pays the single [Unix.gettimeofday] on everyone's behalf. *)
  let pump t =
    let hint = Timer.next_deadline_hint t.timer in
    if hint < infinity || t.pollers <> [] then
      if Atomic.compare_and_set t.pump_lock false true then
        Fun.protect
          ~finally:(fun () -> Atomic.set t.pump_lock false)
          (fun () ->
            if hint < infinity && hint <= Unix.gettimeofday () then
              ignore (Timer.poll t.timer : int);
            List.iter (fun p -> ignore (p.poll_fn 0 : int)) t.pollers)

  (* Spend an idle worker's backoff of [s] seconds.  The worker that
     wins the pump election hands up to [backoff_base_us] of it to the
     pollers as a wait budget, so an fd turning ready ends the wait at
     once and its completion is delivered straight away.  Only the part
     the pollers did not use is slept, with the election released: all
     of [s] when nothing is parked in any poller (they return at once),
     and none of it when a poller fired.  Capping the in-backend wait at
     the base interval bounds how long a sibling's submissions and the
     pool timer can sit behind a held [pump_lock]. *)
  let idle_wait t s =
    let rest =
      if t.pollers = [] || not (Atomic.compare_and_set t.pump_lock false true) then s
      else
        Fun.protect
          ~finally:(fun () -> Atomic.set t.pump_lock false)
          (fun () ->
            let start = Unix.gettimeofday () in
            let stop = start +. Float.min s (float_of_int backoff_base_us /. 1e6) in
            let fired =
              List.fold_left
                (fun acc p ->
                  let left_us = int_of_float ((stop -. Unix.gettimeofday ()) *. 1e6) in
                  acc + p.poll_fn (max 0 left_us))
                0 t.pollers
            in
            if fired > 0 then 0. else s -. (Unix.gettimeofday () -. start))
    in
    if rest > 0. then Unix.sleepf rest

  (* Move externally submitted thunks into the worker's local queue.
     Exchange empties the Treiber stack in one atomic op; the reverse
     restores submission order. *)
  let drain_submits t ctx w =
    let inbox = t.submits.(ctx.wid) in
    if Atomic.get inbox != [] then
      List.iter
        (fun f -> P.inject t.pool w ~pinned:false f)
        (List.rev (Atomic.exchange inbox []))

  (* One cross-pool steal attempt.  The loot arrives through [P.inject] on
     this worker, becoming native local tasks of the thief's pool — so a
     scavenged thunk's children, suspensions and resumes all live here. *)
  let try_scavenge t ctx w =
    match Atomic.get t.scavenge with
    | None -> false
    | Some (src, mode) ->
        let tracker = t.scav_trackers.(ctx.wid) in
        Victim_stats.ensure_capacity tracker (src.src_workers ());
        let got =
          src.src_steal ~rng:ctx.rng ~tracker ~mode
            ~sink:(fun f -> P.inject t.pool w ~pinned:false f)
        in
        if got > 0 then begin
          ctx.counters.scavenge_steals <- ctx.counters.scavenge_steals + 1;
          ctx.counters.tasks_scavenged <- ctx.counters.tasks_scavenged + got;
          ignore (Atomic.fetch_and_add src.src_donated got : int);
          mark ctx Tracing.Scavenge;
          true
        end
        else false

  (* Idle iterations of pure local spinning before an idle worker starts
     raiding its scavenge sibling: local steals get first refusal, and the
     first raid lands before the backoff ladder (spins >= 16) starts. *)
  let scavenge_after_spins = 8

  (* The engine's inner loop: pump event sources, re-inject resumed work,
     pick a task, run it (traced), back off when idle.  Reentrant — a
     blocking join may call [help] from inside a running task. *)
  let help t ~until =
    let ctx, w = self () in
    let rec loop idle_spins =
      if Atomic.get t.stop || until () then ()
      else begin
        ctx.counters.heartbeats <- ctx.counters.heartbeats + 1;
        pump t;
        drain_submits t ctx w;
        P.drain t.pool w;
        match P.next t.pool w with
        | Some task ->
            ctx.counters.tasks_run <- ctx.counters.tasks_run + 1;
            (match !(t.tracer) with
            | None -> P.exec t.pool w task
            | Some tr ->
                let start_us = Tracing.now_us () in
                P.exec t.pool w task;
                Tracing.record tr ~worker:ctx.wid Tracing.Task_run ~start_us
                  ~dur_us:(Tracing.now_us () -. start_us));
            loop 0
        | None when idle_spins >= scavenge_after_spins && try_scavenge t ctx w ->
            loop 0
        | None ->
            (* Nothing runnable: spin briefly, then back off exponentially
               (capped) to avoid burning the core — we may be
               oversubscribed — clamping the backoff to the next timer
               deadline so expiry is never overslept.  The backoff is
               spent waiting in the pollers where possible (see
               [idle_wait]), so a ready fd ends it early. *)
            if idle_spins < 16 then Domain.cpu_relax ()
            else begin
              (* A worker that owns suspended fibers may be handed a resume
                 from another domain at any moment.  Only an fd turning
                 ready in the pollers this worker waits in ends its wait
                 early; a resume pushed by another domain (a sibling's pump,
                 a channel send) waits out the backoff — so such workers
                 stay at the base poll interval and only truly-idle ones
                 climb to the cap.

                 Deliberate tradeoff: nothing wakes a truly-idle worker when
                 fresh tasks are pushed elsewhere either, so pickup of newly
                 injected work via stealing can lag by up to [backoff_max_us]
                 (vs. [backoff_base_us] before backoff existed).  We accept
                 that: a worker only reaches the cap after the pool has been
                 drained for ~30 poll intervals, and the alternative — the
                 push path signalling sleepers — would put a syscall or a
                 contended atomic on the spawn hot path this engine exists to
                 keep lean.  If sub-millisecond cold-start injection latency
                 ever matters, lower [backoff_max_us] rather than touching
                 the push path. *)
              let cap =
                if P.expects_resumes t.pool w then backoff_base_us else backoff_max_us
              in
              let shift = min (idle_spins - 16) 5 in
              let us = min cap (backoff_base_us lsl shift) in
              let s = float_of_int us /. 1e6 in
              let s =
                let hint = Timer.next_deadline_hint t.timer in
                if hint < infinity then min s (hint -. Unix.gettimeofday ()) else s
              in
              if s > 0. then idle_wait t s else Domain.cpu_relax ()
            end;
            loop (idle_spins + 1)
      end
    in
    loop 0

  let worker_loop t wid ~until =
    let dls = Domain.DLS.get current in
    let saved = !dls in
    dls := Some (t.ctxs.(wid), P.worker t.pool wid);
    Fun.protect ~finally:(fun () -> dls := saved) (fun () -> help t ~until)

  let stats t =
    let sum f = Array.fold_left (fun acc c -> acc + f c.counters) 0 t.ctxs in
    let hist = Array.make steal_hist_buckets 0 in
    Array.iter
      (fun c ->
        Array.iteri (fun i v -> hist.(i) <- hist.(i) + v) c.counters.steal_hist)
      t.ctxs;
    let wd_stalls, wd_oldest =
      List.fold_left
        (fun (s, o) f ->
          let s', o' = f () in
          (s + s', Float.max o o'))
        (0, 0.) (Atomic.get t.watchdog_fns)
    in
    {
      tasks_run = sum (fun c -> c.tasks_run);
      steals = sum (fun c -> c.steals);
      failed_steals = sum (fun c -> c.failed_steals);
      steals_batched = sum (fun c -> c.steals_batched);
      tasks_stolen = sum (fun c -> c.tasks_stolen);
      tasks_per_steal_hist = hist;
      deques_allocated = P.deques_allocated t.pool;
      suspensions = sum (fun c -> c.suspensions);
      resumes = sum (fun c -> c.resumes);
      max_deques_per_worker =
        Array.fold_left (fun acc c -> max acc c.counters.max_owned) 0 t.ctxs;
      io_pending =
        List.fold_left
          (fun acc p -> match p.pending_fn with Some f -> acc + f () | None -> acc)
          0 t.pollers;
      io_syscalls =
        List.fold_left
          (fun acc p -> match p.syscalls_fn with Some f -> acc + f () | None -> acc)
          0 t.pollers;
      conns_shed = List.fold_left (fun acc f -> acc + f ()) 0 (Atomic.get t.shed_fns);
      scavenge_steals = sum (fun c -> c.scavenge_steals);
      tasks_scavenged = sum (fun c -> c.tasks_scavenged);
      tasks_donated = Atomic.get t.donated;
      stalls_detected = wd_stalls;
      oldest_parked_ms = wd_oldest;
    }

  let create ?name ?(workers = 2) ?(config = P.default_config) () =
    if workers < 1 then invalid_arg (P.label ^ ".create: workers must be >= 1");
    let tracer = ref None in
    let ctxs =
      Array.init workers (fun wid ->
          {
            wid;
            rng = Random.State.make [| P.rng_salt; wid |];
            counters =
              {
                tasks_run = 0;
                steals = 0;
                failed_steals = 0;
                steals_batched = 0;
                tasks_stolen = 0;
                steal_hist = Array.make steal_hist_buckets 0;
                suspensions = 0;
                resumes = 0;
                max_owned = 0;
                scavenge_steals = 0;
                tasks_scavenged = 0;
                heartbeats = 0;
              };
            emit =
              (fun kind ~start_us ~dur_us ->
                match !tracer with
                | Some tr -> Tracing.record tr ~worker:wid kind ~start_us ~dur_us
                | None -> ());
            tracing = (fun () -> !tracer <> None);
          })
    in
    (* The registry entry needs the stats closure, which needs [t]; tie the
       knot through a forward ref. *)
    let stats_fwd = ref (fun () -> failwith "stats before init") in
    let entry =
      Registry.register ?name ~label:P.label ~workers
        ~stats:(fun () -> !stats_fwd ()) ()
    in
    let t =
      {
        ctxs;
        pool = P.make_pool config ~ctxs ~self_wid;
        timer = Timer.create ();
        tracer;
        pollers = [];
        shed_fns = Atomic.make [];
        watchdog_fns = Atomic.make [];
        pump_lock = Lhws_deque.Padding.make_atomic false;
        stop = Atomic.make false;
        domains = [||];
        running = false;
        submits = Array.init workers (fun _ -> Atomic.make []);
        submit_rr = Atomic.make 0;
        scavenge = Atomic.make None;
        scav_trackers = Array.init workers (fun _ -> Victim_stats.create ~victims:1);
        donated = Atomic.make 0;
        entry;
      }
    in
    stats_fwd := (fun () -> stats t);
    t.domains <-
      Array.init (workers - 1) (fun i ->
          Domain.spawn (fun () -> worker_loop t (i + 1) ~until:(fun () -> false)));
    t

  let shutdown t =
    Atomic.set t.stop true;
    Array.iter Domain.join t.domains;
    t.domains <- [||];
    Registry.unregister t.entry

  let with_pool ?name ?workers ?config f =
    let t = create ?name ?workers ?config () in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

  let run t f =
    if Atomic.get t.stop then invalid_arg (P.label ^ ".run: pool is shut down");
    if t.running then invalid_arg (P.label ^ ".run: already running");
    t.running <- true;
    Fun.protect
      ~finally:(fun () -> t.running <- false)
      (fun () ->
        let p = Promise.create () in
        (* Pinned: a scavenging sibling must never steal the root task —
           the caller joins on its completion, and a root carried into a
           pool that shuts down first can never fulfill [p]. *)
        P.inject t.pool (P.worker t.pool 0) ~pinned:true
          (fun () -> Promise.fulfill p (try Ok (f ()) with e -> Error e));
        worker_loop t 0 ~until:(fun () -> Promise.is_resolved p);
        Promise.get_exn p)

  let pool t = t.pool
  let timer t = t.timer
  let workers t = Array.length t.ctxs
  let set_tracer t tracer = t.tracer := Some tracer
  let register_poller t ?pending ?syscalls poll =
    t.pollers <- { poll_fn = poll; pending_fn = pending; syscalls_fn = syscalls } :: t.pollers

  let register_shed_counter t f =
    let rec push () =
      let old = Atomic.get t.shed_fns in
      if not (Atomic.compare_and_set t.shed_fns old (f :: old)) then push ()
    in
    push ()

  let register_watchdog_stats t f =
    let rec push () =
      let old = Atomic.get t.watchdog_fns in
      if not (Atomic.compare_and_set t.watchdog_fns old (f :: old)) then push ()
    in
    push ()

  let heartbeats t = Array.map (fun c -> c.counters.heartbeats) t.ctxs

  (* Emit a [Stalled] tracing event from a registered poller: the pump
     runs on a worker domain, whose per-worker trace buffer is safe to
     write from here (single writer).  Dropped when the caller is not a
     worker of this pool (e.g. stats readers probing from outside). *)
  let mark_stall t =
    ignore t;
    match self_opt () with Some (ctx, _) -> mark ctx Tracing.Stalled | None -> ()

  (* Full pool-side watchdog wiring in one call: the sweep rides this
     pool's pump, detections land in this pool's stats and trace, and
     this pool's workers come under heartbeat surveillance.  The
     reactor side ([Watchdog.attach_io]) is wired by whoever owns the
     reactor (e.g. [Reactor.fibers ~watchdog]). *)
  let register_watchdog t wd =
    Watchdog.add_on_stall wd (fun _msg -> mark_stall t);
    Watchdog.attach_heartbeats wd ~name:t.entry.reg_name (fun () -> heartbeats t);
    register_poller t (fun _budget_us -> Watchdog.poll wd);
    register_watchdog_stats t (fun () -> Watchdog.snapshot wd)

  let name t = t.entry.reg_name
  let registry_entry t = t.entry

  (* Pool-pinned submission: the thunk lands in one worker's inbox (round
     robin) and can only ever start on this pool.  Safe from any thread.
     A sleeping worker picks its inbox up at its next poll — worst case
     the idle-backoff cap (see [help]); submitters needing lower cold-start
     latency should keep the pool warm. *)
  let submit t f =
    if Atomic.get t.stop then invalid_arg (P.label ^ ".submit: pool is shut down");
    let wid = Atomic.fetch_and_add t.submit_rr 1 mod Array.length t.submits in
    let inbox = t.submits.(wid) in
    let rec push () =
      let old = Atomic.get inbox in
      if not (Atomic.compare_and_set inbox old (f :: old)) then push ()
    in
    push ()

  let scavenge_source t =
    {
      src_name = t.entry.reg_name;
      src_workers = (fun () -> Array.length t.ctxs);
      src_steal =
        (fun ~rng ~tracker ~mode ~sink ->
          P.export_steal t.pool ~rng ~tracker ~mode ~sink);
      src_donated = t.donated;
    }

  let set_scavenge t ?(mode = Steal_one) src =
    if src.src_donated == t.donated then
      invalid_arg (P.label ^ ".set_scavenge: a pool cannot scavenge itself");
    Atomic.set t.scavenge (Some (src, mode))

  let clear_scavenge t = Atomic.set t.scavenge None
end
