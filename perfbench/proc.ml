(* Command lines, CPU pinning and the child processes of the benchmark
   (the delta remote, the HTTP server). *)

(* The value after [name] in an argument list of [--name value] pairs. *)
let arg args name =
  let rec go = function
    | k :: v :: _ when k = name -> v
    | _ :: rest -> go rest
    | [] -> failwith ("missing argument " ^ name)
  in
  go args

(* Pins the calling thread, and threads it creates later, to one CPU;
   false if the kernel refused. *)
external pin_cpu : int -> bool = "perfbench_pin_cpu"

(* A child that announces "PORT <n>" as its first stdout line, reads
   commands on its stdin, and ends when its stdin closes. *)
type child = { pid : int; to_child : Unix.file_descr; from_child : in_channel; port : int }

let spawn exe args =
  (* cloexec on every end: the child must inherit nothing but the dups
     create_process makes, or it holds its own stdin open. *)
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.append [| exe |] args) in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  let from_child = Unix.in_channel_of_descr out_r in
  match input_line from_child with
  | line -> { pid; to_child = in_w; from_child; port = Scanf.sscanf line "PORT %d" Fun.id }
  | exception End_of_file ->
      ignore (Unix.waitpid [] pid);
      failwith (exe ^ " exited before announcing its port")

(* One command line to the child, one line back. *)
let command c cmd =
  ignore (Unix.write_substring c.to_child (cmd ^ "\n") 0 (String.length cmd + 1) : int);
  input_line c.from_child

(* Closes the child's stdin and waits for it; one that has not exited
   after 10 s is killed, so no run leaves a process behind.  True when
   it exited cleanly. *)
let stop c =
  (try Unix.close c.to_child with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] c.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        Unix.kill c.pid Sys.sigkill;
        ignore (Unix.waitpid [] c.pid);
        false
    | _, status -> status = Unix.WEXITED 0
  in
  let clean = wait () in
  close_in c.from_child;
  clean
