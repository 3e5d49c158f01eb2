(** A connection's combining outbox: concurrent writers' frames leave
    atomically, in sequence order, and a burst of ready frames costs one
    vectored write.

    Each frame carries a sequence number.  {!Rpc} takes the next number
    when the frame is enqueued (arrival order: request ids let its
    client demultiplex).  {!Http} {!reserve}s the number when it decodes
    the request, so pipelined responses leave in request order however
    their handlers finish.  A frame whose predecessors are not all
    enqueued waits in the slot table until the gap fills.

    One writer at a time flushes: it writes every consecutive ready
    frame as one batch, then drops the flush and wakes the writer of the
    next ready frame, if any, to take it.  Every other writer parks
    until its frame is on the wire or its batch failed.  A failed write raises in exactly the writers whose frames
    were in that batch, and closes the connection, so later frames fail
    with [Net.Closed] rather than wait.  No enqueued frame is
    abandoned. *)

type t

val create : Gate.park -> t

val reserve : t -> int
(** The next sequence number, for a caller that {!send}s it later.
    Every reserved number must be sent, or the frames after it never
    leave. *)

val send :
  t -> Conn.t -> ?seq:int -> ?close_after:bool -> Bytes.t list -> unit
(** Enqueues one frame (an iov, not copied) under [seq] (default: the
    next number) and returns once it is written.  [close_after] closes
    the connection after the batch that carries the frame.
    @raise exn the write's exception when its batch failed. *)
