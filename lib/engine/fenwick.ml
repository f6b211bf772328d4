(* Growable Fenwick (binary indexed) tree over non-negative integer
   weights. The count engine keeps one per degree class, indexed by the
   class-local slot of each (state, class) cell and weighted by the cell's
   agent count, so drawing a uniformly random agent of a class is a
   single O(log d) descent instead of an O(d) scan; and one per class
   pair over its recorded productive pairs, weighted by pair mass.

   Only the partial sums are stored. Growth doubles the capacity by
   copying them: the nodes past the old capacity cover only new, empty
   slots, except the new root, which covers everything. *)

type t = {
  mutable tree : int array;  (* 1-based Fenwick partial sums; the capacity is its length - 1 *)
  mutable len : int;  (* slots in use *)
  mutable total : int;
}

let create () = { tree = Array.make 17 0; len = 0; total = 0 }

let length t = t.len

let total t = t.total

let capacity t = Array.length t.tree - 1

(* Append a new slot with weight 0; O(cap) on capacity doubling,
   amortized O(1). *)
let append t =
  let cap = capacity t in
  if t.len = cap then begin
    let tree = Array.make ((2 * cap) + 1) 0 in
    Array.blit t.tree 1 tree 1 cap;
    tree.(2 * cap) <- t.total;
    t.tree <- tree
  end;
  t.len <- t.len + 1

let add t i delta =
  if i < 0 || i >= t.len then invalid_arg "Fenwick.add: slot out of range";
  let cap = capacity t in
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

(* Trees of at most this capacity are descended without a branch. Past
   it, at 2^19 slots (4 MB) and more, the branchy descent is faster: its
   predicted branch lets the next level's load start before the current
   one resolves, while the sign mask makes every level's address wait for
   the previous load, and a tree that large misses cache at most levels
   (the crossover Khuong & Morin report for branch-free binary search,
   arXiv 1509.05053). Measured on a 2-CPU Xeon with 2 MB of L2 per core,
   2·10^6 uniform finds: branchless 75–96 ns against branchy 119–153 ns
   at 10^4 slots, 191–205 against 214–229 at 2^18, 421–452 against
   296–320 at 2^19 and 657–785 against 387–396 at 10^6. *)
let branchless_cap = 1 lsl 18

(* [find t target] with [0 <= target < total t] returns the slot [i] such
   that the cumulative weight of slots [< i] is <= target < cumulative
   weight of slots [<= i] — i.e. slot chosen proportionally to weight when
   [target] is uniform. Standard Fenwick descent, O(log capacity). The
   capacity is always a power of two (16, doubled on growth), so the
   descent starts at it and every probed node [pos + bit] is in range:
   node [cap] holds [total > target] and is never taken, so [pos] stays
   below [cap] and is a multiple of [2 * bit]. The reads are therefore
   unchecked. Up to [branchless_cap] each step takes its node by a sign
   mask rather than a branch: a uniform target makes that branch a coin
   flip the predictor cannot learn. Both descents take the same node at
   every level, so they return the same slot. *)
let find t target =
  if target < 0 || target >= t.total then invalid_arg "Fenwick.find: target out of range";
  let tree = t.tree in
  let pos = ref 0 in
  let remaining = ref target in
  let bit = ref (capacity t) in
  if !bit <= branchless_cap then
    while !bit > 0 do
      let node = Array.unsafe_get tree (!pos + !bit) in
      (* all ones when node <= remaining, else zero *)
      let take = lnot ((!remaining - node) asr (Sys.int_size - 1)) in
      remaining := !remaining - (node land take);
      pos := !pos + (!bit land take);
      bit := !bit lsr 1
    done
  else
    while !bit > 0 do
      let node = Array.unsafe_get tree (!pos + !bit) in
      if node <= !remaining then begin
        remaining := !remaining - node;
        pos := !pos + !bit
      end;
      bit := !bit lsr 1
    done;
  if !pos >= t.len then invalid_arg "Fenwick.find: weight accounting broke";
  !pos
