type _ Effect.t += Suspend : ((unit -> unit) -> unit) -> unit Effect.t

let suspend register = Effect.perform (Suspend register)

let yield () = suspend (fun resume -> resume ())

let block register =
  let mu = Mutex.create () and cond = Condition.create () in
  let ready = ref false in
  register (fun () ->
      Mutex.lock mu;
      ready := true;
      Condition.signal cond;
      Mutex.unlock mu);
  Mutex.lock mu;
  while not !ready do
    Condition.wait cond mu
  done;
  Mutex.unlock mu
