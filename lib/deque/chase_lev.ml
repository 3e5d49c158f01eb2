(* The classical Chase-Lev deque with a growable circular buffer.  [top] is
   the steal end, [bottom] the owner's end; both are monotonically
   increasing absolute indices.  OCaml's [Atomic] gives sequentially
   consistent reads/writes, which subsumes the fences of the C11 version
   (Le et al., PPoPP 2013).

   Three deviations from the textbook layout, all for the hot paths:

   - Slots hold the elements directly, with a private sentinel standing in
     for "empty", instead of ['a option] — a push is then a plain array
     store, not a [Some] allocation per element.  The sentinel is a block
     allocated once below, so no legitimate element can alias it, and slots
     are reset to it after a pop so the deque never retains dead values.

   - The owner keeps a non-atomic [top_cache], a lower bound on [top]
     ([top] is monotone, so any stale read underestimates the free space
     and never overestimates it).  [push_bottom] consults the atomic [top]
     only when the cached bound says the buffer might be full, removing an
     atomic load (a guaranteed cache miss under active stealing) from the
     common push.

   - [top], [bottom] and the buffer pointer live on separate cache lines
     (see {!Padding}): thieves hammer [top] with CASes while the owner
     writes [bottom] on every push/pop, and sharing a line would make each
     side's writes invalidate the other's reads.

   Grow publishes a new buffer via an atomic reference.  A thief may read
   an element from a stale buffer; this is safe because grow copies the
   live range [top, bottom) and the owner never overwrites live slots of
   the old buffer afterwards (it writes only to the new buffer), so the
   stale slot still holds the element the thief's successful CAS on [top]
   entitles it to. *)

type 'a buffer = { mask : int; slots : 'a array }

type 'a t = {
  top : int Atomic.t;
  bottom : int Atomic.t;
  buf : 'a buffer Atomic.t;
  mutable top_cache : int;  (* owner only: lower bound on [top] *)
}

(* A unique block no caller can ever push (the ref is never exported).
   [Obj.magic] at the element type is safe because every slot holding the
   sentinel is, by the index arithmetic, never returned as an element.

   Because the sentinel is a non-float block, [Array.make] below builds a
   boxed array even at element type [float] — never a flat float array.
   That is sound only while every slot access in this file stays
   polymorphic (generic array primitives dispatch on the array tag at
   runtime); do not monomorphise this module at [float] or add
   float-array-specialised unsafe accesses (see the .mli). *)
let sentinel : Obj.t = Obj.repr (ref ())

let dummy () : 'a = Obj.magic sentinel

let make_buffer capacity = { mask = capacity - 1; slots = Array.make capacity (dummy ()) }

let round_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create ?(capacity = 16) () =
  let capacity = round_pow2 (max capacity 2) in
  Padding.copy_as_padded
    {
      top = Padding.make_atomic 0;
      bottom = Padding.make_atomic 0;
      buf = Padding.make_atomic (make_buffer capacity);
      top_cache = 0;
    }

let buffer_get buf i = buf.slots.(i land buf.mask)
let buffer_set buf i x = buf.slots.(i land buf.mask) <- x

let grow d top bottom =
  let old = Atomic.get d.buf in
  let nbuf = make_buffer (2 * (old.mask + 1)) in
  for i = top to bottom - 1 do
    buffer_set nbuf i (buffer_get old i)
  done;
  Atomic.set d.buf nbuf;
  nbuf

let push_bottom d x =
  let b = Atomic.get d.bottom in
  let buf = Atomic.get d.buf in
  let buf =
    (* Fast path: the cached lower bound on [top] already proves there is
       room, so the atomic [top] is not read at all. *)
    if b - d.top_cache <= buf.mask then buf
    else begin
      let t = Atomic.get d.top in
      d.top_cache <- t;
      if b - t > buf.mask then grow d t b else buf
    end
  in
  buffer_set buf b x;
  Atomic.set d.bottom (b + 1)

let pop_bottom d =
  let b = Atomic.get d.bottom - 1 in
  Atomic.set d.bottom b;
  let t = Atomic.get d.top in
  d.top_cache <- t;
  if b < t then begin
    (* Empty: restore bottom. *)
    Atomic.set d.bottom t;
    None
  end
  else begin
    let buf = Atomic.get d.buf in
    let x = buffer_get buf b in
    if b > t then begin
      buffer_set buf b (dummy ());
      Some x
    end
    else begin
      (* Last element: race thieves for it by advancing top. *)
      let won = Atomic.compare_and_set d.top t (t + 1) in
      Atomic.set d.bottom (t + 1);
      d.top_cache <- t + 1;
      if won then begin
        buffer_set buf b (dummy ());
        Some x
      end
      else None
    end
  end

let steal d =
  (* [top] before [bottom]: the SC argument for pop/steal non-duplication
     depends on this read order. *)
  let t = Atomic.get d.top in
  let b = Atomic.get d.bottom in
  if t >= b then None
  else begin
    let buf = Atomic.get d.buf in
    let x = buffer_get buf t in
    if Atomic.compare_and_set d.top t (t + 1) then Some x else None
  end

(* Batched steal: take up to half of the visible [top, bottom) range in
   one call, oldest first, one CAS per element.

   Why not one CAS reserving the whole range (top: t -> t + k)?  Because
   the owner's [pop_bottom] plain-takes any slot strictly above the [top]
   it read, with no synchronization.  A thief that read (t, b), stalled,
   and then range-CASed t -> t+k can succeed even though the owner has
   meanwhile popped (and reset to the sentinel, or reused for later
   pushes) slots inside [t, t+k): elements get lost and duplicated.  The
   classical Chase-Lev steal is safe precisely because its CAS protects
   only index [t] — the one slot the owner can never plain-take.  So a
   correct batch over this deque reserves each element with its own CAS
   (as crossbeam's steal_batch does for LIFO workers); the win over k
   calls to [steal] is one victim scan and no re-entry into victim
   selection between elements, not fewer CASes.
   The broken single-CAS variant is kept in the mutation suite
   (test/prop/test_stress.ml) as proof the stress battery catches it.

   The split is ceil(n/2) of the observed size: a victim observed with
   1 task still yields that task (degenerating to [steal]), and the
   owner is always left the newer half, preserving its LIFO locality.
   The batch aborts at the first lost CAS race; elements already handed
   to [f] are validly owned.  Each element is read from the current
   buffer before its CAS, under the same stale-buffer argument as
   [steal] (grow copies the live range; a successful CAS on [top]
   entitles the thief to the value it read).

   Every element after the first re-reads [bottom] before touching its
   slot, so each one is a classical steal: [top] (known, the thief's
   own last CAS set it) read before [bottom].  The first read of
   [bottom] only sizes the batch.  Trusting it for slot [t + i] is
   unsound: while [top] was still [t + i - 1] the owner may have
   plain-popped slot [t + i] (and reset it to the sentinel), and the
   CAS [t + i -> t + i + 1] still succeeds, returning a taken element
   or the sentinel and leaving [top] above [bottom]. *)
let steal_half d f =
  let t = Atomic.get d.top in
  let b = Atomic.get d.bottom in
  let n = b - t in
  if n <= 0 then 0
  else begin
    let want = (n + 1) / 2 in
    let rec go i =
      if i >= want || (i > 0 && t + i >= Atomic.get d.bottom) then i
      else begin
        let buf = Atomic.get d.buf in
        let x = buffer_get buf (t + i) in
        if Atomic.compare_and_set d.top (t + i) (t + i + 1) then begin
          f x;
          go (i + 1)
        end
        else i
      end
    in
    go 0
  end

let size d =
  let b = Atomic.get d.bottom in
  let t = Atomic.get d.top in
  max 0 (b - t)

let is_empty d = size d = 0
