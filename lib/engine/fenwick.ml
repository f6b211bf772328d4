(* Growable Fenwick (binary indexed) tree over non-negative integer
   weights. The count engine keeps one per degree class, indexed by the
   class-local slot of each (state, class) cell and weighted by the cell's
   agent count, so drawing a uniformly random agent of a class is a
   single O(log d) descent instead of an O(d) scan.

   A plain per-slot weight array is kept alongside the partial sums: it
   makes growth a simple rebuild and [weight] an O(1) read. *)

type t = {
  mutable weights : int array;  (* slot -> weight *)
  mutable tree : int array;  (* 1-based Fenwick partial sums *)
  mutable len : int;  (* slots in use *)
  mutable total : int;
}

let create () = { weights = Array.make 16 0; tree = Array.make 17 0; len = 0; total = 0 }

let length t = t.len

let total t = t.total

let weight t i =
  if i < 0 || i >= t.len then invalid_arg "Fenwick.weight: slot out of range";
  t.weights.(i)

let rebuild t =
  let cap = Array.length t.weights in
  let tree = Array.make (cap + 1) 0 in
  for i = 0 to t.len - 1 do
    let idx = ref (i + 1) in
    let w = t.weights.(i) in
    while !idx <= cap do
      tree.(!idx) <- tree.(!idx) + w;
      idx := !idx + (!idx land - !idx)
    done
  done;
  t.tree <- tree

(* Append a new slot with weight 0; O(cap) on capacity doubling,
   amortized O(1). *)
let append t =
  let cap = Array.length t.weights in
  if t.len = cap then begin
    let weights = Array.make (2 * cap) 0 in
    Array.blit t.weights 0 weights 0 t.len;
    t.weights <- weights;
    rebuild t
  end;
  t.len <- t.len + 1

let add t i delta =
  if i < 0 || i >= t.len then invalid_arg "Fenwick.add: slot out of range";
  t.weights.(i) <- t.weights.(i) + delta;
  let cap = Array.length t.weights in
  let idx = ref (i + 1) in
  while !idx <= cap do
    t.tree.(!idx) <- t.tree.(!idx) + delta;
    idx := !idx + (!idx land - !idx)
  done;
  t.total <- t.total + delta

(* Sum of the weights of slots [0..i]. O(log capacity). *)
let prefix t i =
  if i < 0 || i >= t.len then invalid_arg "Fenwick.prefix: slot out of range";
  let acc = ref 0 in
  let idx = ref (i + 1) in
  while !idx > 0 do
    acc := !acc + t.tree.(!idx);
    idx := !idx - (!idx land - !idx)
  done;
  !acc

(* [find t target] with [0 <= target < total t] returns the slot [i] such
   that the cumulative weight of slots [< i] is <= target < cumulative
   weight of slots [<= i] — i.e. slot chosen proportionally to weight when
   [target] is uniform. Standard Fenwick descent, O(log capacity). The
   capacity is always a power of two (16, doubled on growth), so the
   descent starts at it and every probed node [pos + bit] is in range. *)
let find t target =
  if target < 0 || target >= t.total then invalid_arg "Fenwick.find: target out of range";
  let pos = ref 0 in
  let remaining = ref target in
  let bit = ref (Array.length t.weights) in
  while !bit > 0 do
    let next = !pos + !bit in
    if t.tree.(next) <= !remaining then begin
      remaining := !remaining - t.tree.(next);
      pos := next
    end;
    bit := !bit / 2
  done;
  if !pos >= t.len then invalid_arg "Fenwick.find: weight accounting broke";
  !pos
