(* Byte buffers and the HTTP/1.1 response parser of the load generator.

   Both buffers keep their live bytes in [buf.[off, off+len)] and only
   move them when space runs out, so appending, consuming and parsing
   cost O(1) amortized per byte however long the peer pushes back. *)

type buf = { mutable b : Bytes.t; mutable off : int; mutable len : int }

let create_buf n = { b = Bytes.create n; off = 0; len = 0 }

(* Make room for [n] more bytes at the end. *)
let reserve t n =
  if t.off + t.len + n > Bytes.length t.b then begin
    if t.len + n <= Bytes.length t.b / 2 then Bytes.blit t.b t.off t.b 0 t.len
    else begin
      let nb = Bytes.create (max (2 * Bytes.length t.b) (t.len + n)) in
      Bytes.blit t.b t.off nb 0 t.len;
      t.b <- nb
    end;
    t.off <- 0
  end

let add_string t s =
  let n = String.length s in
  reserve t n;
  Bytes.blit_string s 0 t.b (t.off + t.len) n;
  t.len <- t.len + n

let add_subbytes t src pos n =
  reserve t n;
  Bytes.blit src pos t.b (t.off + t.len) n;
  t.len <- t.len + n

let consume t n =
  t.off <- t.off + n;
  t.len <- t.len - n;
  if t.len = 0 then t.off <- 0

(* Reads what the descriptor has into the buffer: [`Eof], [`Read n], or
   [`Again] when a non-blocking read would block. *)
let read_fd t fd =
  reserve t 65536;
  match Unix.read fd t.b (t.off + t.len) (Bytes.length t.b - t.off - t.len) with
  | 0 -> `Eof
  | n ->
      t.len <- t.len + n;
      `Read n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> `Again

(* Writes as much of the buffer as the descriptor takes. *)
let write_fd t fd =
  if t.len > 0 then
    match Unix.single_write fd t.b t.off t.len with
    | n -> consume t n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

(* --- responses --- *)

type parser = { pb : buf; mutable scanned : int  (** head bytes known to hold no CRLFCRLF *) }

let create_parser () = { pb = create_buf 65536; scanned = 0 }

type event =
  | Need_more
  | Response of { status : int; body : Bytes.t; body_off : int; body_len : int }
      (** the body is a view into the parser's buffer, valid until more
          bytes are added to it *)
  | Malformed of string

let lowercase_equal b off s =
  let n = String.length s in
  let rec go i = i >= n || (Char.lowercase_ascii (Bytes.get b (off + i)) = s.[i] && go (i + 1)) in
  off + n <= Bytes.length b && go 0

(* The end of the head: index just past CRLFCRLF, searching only bytes
   not already searched. *)
let find_head_end p =
  let t = p.pb in
  let stop = t.off + t.len in
  let rec go i =
    if i + 4 > stop then begin
      p.scanned <- max 0 (i - t.off);
      None
    end
    else if
      Bytes.get t.b i = '\r'
      && Bytes.get t.b (i + 1) = '\n'
      && Bytes.get t.b (i + 2) = '\r'
      && Bytes.get t.b (i + 3) = '\n'
    then Some (i + 4)
    else go (i + 1)
  in
  go (t.off + p.scanned)

let parse_int b off stop =
  let rec skip i = if i < stop && (Bytes.get b i = ' ' || Bytes.get b i = '\t') then skip (i + 1) else i in
  let rec digits i acc =
    if i < stop && Bytes.get b i >= '0' && Bytes.get b i <= '9' then
      digits (i + 1) ((acc * 10) + Char.code (Bytes.get b i) - 48)
    else (i, acc)
  in
  let start = skip off in
  let i, v = digits start 0 in
  if i = start || i - start > 9 then None else Some (v, i)

(* Content-Length of the head in [b.[off, head_end)]; the server always
   frames with it, so its absence is malformed here. *)
let content_length b off head_end =
  let rec line i =
    if i >= head_end then None
    else
      let eol =
        let rec f j = if j + 1 >= head_end || (Bytes.get b j = '\r' && Bytes.get b (j + 1) = '\n') then j else f (j + 1) in
        f i
      in
      if lowercase_equal b i "content-length:" then
        match parse_int b (i + 15) eol with Some (v, _) -> Some v | None -> None
      else line (eol + 2)
  in
  line off

let next p =
  let t = p.pb in
  match find_head_end p with
  | None -> Need_more
  | Some head_end -> (
      let b = t.b and off = t.off in
      if not (t.len >= 12 && Bytes.sub_string b off 5 = "HTTP/" && Bytes.get b (off + 8) = ' ')
      then Malformed "bad status line"
      else
        match parse_int b (off + 9) head_end with
        | None -> Malformed "bad status code"
        | Some (status, _) -> (
            match content_length b off head_end with
            | None -> Malformed "no content-length"
            | Some clen ->
                if head_end + clen > off + t.len then begin
                  p.scanned <- head_end - 4 - off;
                  Need_more
                end
                else begin
                  consume t (head_end + clen - off);
                  p.scanned <- 0;
                  Response { status; body = b; body_off = head_end; body_len = clen }
                end))
