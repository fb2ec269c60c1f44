(* Array-backed binary min-heap.  The element order is given by the
   [cmp] closure captured at creation; with a *total* order (no two
   distinct elements comparing equal) the pop sequence is exactly the
   sorted sequence, independent of push order — the property the event
   queues built on it rely on for reproducibility. *)

type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a array; (* slots >= size are stale padding *)
  mutable size : int;
}

let create ~cmp () = { cmp; data = [||]; size = 0 }

let length h = h.size
let is_empty h = h.size = 0

let swap data i j =
  let tmp = data.(i) in
  data.(i) <- data.(j);
  data.(j) <- tmp

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.cmp h.data.(i) h.data.(parent) < 0 then begin
      swap h.data i parent;
      sift_up h parent
    end
  end

let push h x =
  if h.size = Array.length h.data then begin
    (* Grow by doubling; [x] is a safe filler for the fresh slots. *)
    let cap = max 8 (2 * h.size) in
    let data = Array.make cap x in
    Array.blit h.data 0 data 0 h.size;
    h.data <- data
  end;
  h.data.(h.size) <- x;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let peek h = if h.size = 0 then None else Some h.data.(0)

let pop h =
  if h.size = 0 then None
  else begin
    let top = h.data.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      (* Bottom-up deletion: pull the smaller child into the hole all the
         way down (one compare per level instead of two), then sift the
         displaced last element up from there — it came from the bottom
         layer, so the sift-up almost always stops immediately. *)
      let x = h.data.(h.size) in
      let i = ref 0 in
      let descending = ref true in
      while !descending do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        if l >= h.size then descending := false
        else begin
          let c =
            if r < h.size && h.cmp h.data.(r) h.data.(l) < 0 then r else l
          in
          h.data.(!i) <- h.data.(c);
          i := c
        end
      done;
      h.data.(!i) <- x;
      sift_up h !i
    end;
    Some top
  end

(* ------------------------------------------------------------------ *)
(* Flat heap: a (floatarray, int array) pair ordered lexicographically
   by (key, payload).  No element is ever boxed — the keys live in an
   unboxed float array and the payloads are immediate ints — so pushes
   and pops allocate nothing beyond the two backing arrays.  Payloads
   double as tie-breakers: with distinct payloads the order is total
   and the pop sequence is the sorted sequence, exactly like the
   generic heap above. *)

module Flat = struct
  type t = {
    mutable keys : floatarray;
    mutable payloads : int array;
    mutable size : int;
  }

  let create () =
    { keys = Float.Array.create 0; payloads = [||]; size = 0 }

  let length t = t.size
  let is_empty t = t.size = 0

  (* Strict lexicographic less-than between slots [i] and [j].  Keys are
     required finite, so the primitive float compares below are total. *)
  let lt keys payloads i j =
    let ki = Float.Array.get keys i and kj = Float.Array.get keys j in
    if ki < kj then true
    else if kj < ki then false
    else Array.unsafe_get payloads i < Array.unsafe_get payloads j

  let swap t i j =
    let k = Float.Array.get t.keys i in
    Float.Array.set t.keys i (Float.Array.get t.keys j);
    Float.Array.set t.keys j k;
    let p = t.payloads.(i) in
    t.payloads.(i) <- t.payloads.(j);
    t.payloads.(j) <- p

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if lt t.keys t.payloads i parent then begin
        swap t i parent;
        sift_up t parent
      end
    end

  let push t ~key ~payload =
    if not (Float.is_finite key) then invalid_arg "Heap.Flat.push: key not finite";
    if t.size = Float.Array.length t.keys then begin
      let cap = max 8 (2 * t.size) in
      let keys = Float.Array.make cap 0. in
      let payloads = Array.make cap 0 in
      Float.Array.blit t.keys 0 keys 0 t.size;
      Array.blit t.payloads 0 payloads 0 t.size;
      t.keys <- keys;
      t.payloads <- payloads
    end;
    Float.Array.set t.keys t.size key;
    t.payloads.(t.size) <- payload;
    t.size <- t.size + 1;
    sift_up t (t.size - 1)

  let min_key t =
    if t.size = 0 then invalid_arg "Heap.Flat.min_key: empty";
    Float.Array.get t.keys 0

  let min_payload t =
    if t.size = 0 then invalid_arg "Heap.Flat.min_payload: empty";
    t.payloads.(0)

  let remove_min t =
    if t.size = 0 then invalid_arg "Heap.Flat.remove_min: empty";
    t.size <- t.size - 1;
    if t.size > 0 then begin
      (* Bottom-up deletion, mirroring [pop] above: pull the smaller
         child into the hole down to the bottom layer, then sift the
         displaced last element up from there. *)
      let key = Float.Array.get t.keys t.size in
      let payload = t.payloads.(t.size) in
      let i = ref 0 in
      let descending = ref true in
      while !descending do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        if l >= t.size then descending := false
        else begin
          let c =
            if r < t.size && lt t.keys t.payloads r l then r else l
          in
          Float.Array.set t.keys !i (Float.Array.get t.keys c);
          t.payloads.(!i) <- t.payloads.(c);
          i := c
        end
      done;
      Float.Array.set t.keys !i key;
      t.payloads.(!i) <- payload;
      sift_up t !i
    end
end
