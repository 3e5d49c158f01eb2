module Promise = Lhws_runtime.Promise

type park = ((unit -> unit) -> unit) -> unit

let await park p =
  if not (Promise.is_resolved p) then
    park (fun resume -> if not (Promise.add_waiter p resume) then resume ())

(* A counter and its parked waiters, under [mu].  The mutex is never
   held across a park or any I/O, so a holder that resumes on another
   worker never unlocks it from the wrong thread: the lock a caller
   holds is the count, not the mutex. *)
type t = {
  mu : Mutex.t;
  mutable count : int;
  mutable waiters : (unit -> unit) list;
  park : park;
}

let create park = { mu = Mutex.create (); count = 0; waiters = []; park }

let rec wait g ~below ~take =
  Mutex.lock g.mu;
  if g.count < below then begin
    if take then g.count <- g.count + 1;
    Mutex.unlock g.mu
  end
  else begin
    (* [register] runs on this thread before the caller parks, so the
       unlock pairs with the lock above. *)
    g.park (fun resume ->
        g.waiters <- resume :: g.waiters;
        Mutex.unlock g.mu);
    wait g ~below ~take
  end

let enter ?(below = max_int) g = wait g ~below ~take:true
let wait_below g n = wait g ~below:n ~take:false

(* Every waiter re-checks the count for itself.  They are few: a
   connection's decode loop, or the handful of tasks contending for one
   connection's lock. *)
let leave g =
  Mutex.lock g.mu;
  g.count <- g.count - 1;
  let waiters = g.waiters in
  g.waiters <- [];
  Mutex.unlock g.mu;
  List.iter (fun resume -> resume ()) waiters

let with_lock g f =
  enter ~below:1 g;
  Fun.protect ~finally:(fun () -> leave g) f

let count g = g.count
