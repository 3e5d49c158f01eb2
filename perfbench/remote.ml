(* The delta remote of the map-reduce workload: the data store every map
   input is fetched from, with a fixed per-fetch latency delta.

   One thread, one select loop, no lhws code: a remote that spends a
   thread per request inside the measured process (as
   [Net_map_reduce.start_data_server] does) puts its own cost into the
   job it serves.  Requests are answered at arrival + delta; because
   delta is constant, arrival order is reply order and one FIFO holds
   every pending reply.

   Wire format: the lhws [Rpc] framing.  A request's payload is the
   8-byte key; a reply's payload is value, arrival stamp and send stamp
   (8 bytes each, stamps as IEEE doubles of epoch seconds), so the
   client can split a fetch into its layers. *)

module Resp = Perfbench_util.Resp

(* The paper's per-fetch latency for Figure 11. *)
let delta = 0.005

let value_of key = (key * 2654435761) land 0xFFFF

type conn = { fd : Unix.file_descr; inb : Resp.buf; outb : Resp.buf; mutable dead : bool }

type pending = { c : conn; id : int64; key : int; arrival : float }

let reply_len = 13 + 24

let add_reply p ~send =
  let o = p.c.outb in
  Resp.reserve o reply_len;
  let b = o.Resp.b and at = o.Resp.off + o.Resp.len in
  Bytes.set_int32_be b at 24l;
  Bytes.set_int64_be b (at + 4) p.id;
  Bytes.set_uint8 b (at + 12) 0;
  Bytes.set_int64_be b (at + 13) (Int64.of_int (value_of p.key));
  Bytes.set_int64_be b (at + 21) (Int64.bits_of_float p.arrival);
  Bytes.set_int64_be b (at + 29) (Int64.bits_of_float send);
  o.Resp.len <- o.Resp.len + reply_len

(* Complete request frames in the connection's input, in order. *)
let drain_frames c ~arrival q =
  let i = c.inb in
  let rec go () =
    if i.Resp.len >= 12 then begin
      let plen = Int32.to_int (Bytes.get_int32_be i.Resp.b i.Resp.off) in
      if plen <> 8 then failwith "remote: request payload is not an 8-byte key";
      if i.Resp.len >= 12 + plen then begin
        let id = Bytes.get_int64_be i.Resp.b (i.Resp.off + 4) in
        let key = Int64.to_int (Bytes.get_int64_be i.Resp.b (i.Resp.off + 12)) in
        Queue.push { c; id; key; arrival } q;
        Resp.consume i (12 + plen);
        go ()
      end
    end
  in
  go ()

let close c =
  if not c.dead then begin
    c.dead <- true;
    Unix.close c.fd
  end

let write c = if not c.dead then try Resp.write_fd c.outb c.fd with Unix.Unix_error _ -> close c

let main () =
  let lfd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 64;
  Unix.set_nonblock lfd;
  (match Unix.getsockname lfd with
  | Unix.ADDR_INET (_, port) -> Printf.printf "PORT %d\n%!" port
  | Unix.ADDR_UNIX _ -> assert false);
  let conns = ref [] in
  let q = Queue.create () in
  let running = ref true in
  while !running do
    let now = Unix.gettimeofday () in
    if (not (Queue.is_empty q)) && (Queue.peek q).arrival +. delta <= now then begin
      (* Everything due goes out now, stamped with one send time. *)
      let send = Unix.gettimeofday () in
      while (not (Queue.is_empty q)) && (Queue.peek q).arrival +. delta <= send do
        let p = Queue.pop q in
        if not p.c.dead then add_reply p ~send
      done;
      List.iter write !conns
    end;
    let live = List.filter (fun c -> not c.dead) !conns in
    conns := live;
    let rd = Unix.stdin :: lfd :: List.map (fun c -> c.fd) live in
    let wr = List.filter_map (fun c -> if c.outb.Resp.len > 0 then Some c.fd else None) live in
    let timeout =
      if Queue.is_empty q then 1.0
      else Float.max 0. ((Queue.peek q).arrival +. delta -. Unix.gettimeofday ())
    in
    let r, w, _ =
      try Unix.select rd wr [] timeout with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        if fd = Unix.stdin then begin
          (* The parent closes our stdin when the job is over. *)
          let b = Bytes.create 64 in
          match Unix.read Unix.stdin b 0 64 with
          | 0 -> running := false
          | _ -> ()
          | exception Unix.Unix_error _ -> running := false
        end
        else if fd = lfd then begin
          match Unix.accept ~cloexec:true lfd with
          | cfd, _ ->
              Unix.set_nonblock cfd;
              Unix.setsockopt cfd Unix.TCP_NODELAY true;
              conns :=
                { fd = cfd; inb = Resp.create_buf 65536; outb = Resp.create_buf 65536; dead = false }
                :: !conns
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
        end
        else
          match List.find_opt (fun c -> c.fd = fd) !conns with
          | None -> ()
          | Some c -> (
              match Resp.read_fd c.inb c.fd with
              | `Eof -> close c
              | `Again -> ()
              | `Read _ -> drain_frames c ~arrival:(Unix.gettimeofday ()) q
              | exception Unix.Unix_error _ -> close c))
      r;
    List.iter (fun fd -> Option.iter write (List.find_opt (fun c -> c.fd = fd) !conns)) w
  done;
  List.iter close !conns;
  Unix.close lfd
