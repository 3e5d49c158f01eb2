(* The load side of the benchmark, linked against no lhws code:

     gen.exe remote      the map-reduce workload's delta remote
     gen.exe http ARGS   the HTTP load generator *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Array.to_list Sys.argv with
  | [ _; "remote" ] -> Remote.main ()
  | _ :: "http" :: args -> exit (if Loadgen.main args then 0 else 1)
  | _ ->
      prerr_endline "usage: gen.exe (remote | http ARGS)";
      exit 2
