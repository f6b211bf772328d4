(* Deterministic open-addressing cache from packed ordered cell pairs to
   probed transition outcomes.

   The lazy count engine probes ordered (state, degree-class) cell pairs
   on demand and must remember the outcomes. A [Stdlib.Hashtbl] would work
   — the engine never iterates the table, so iteration-order
   nondeterminism cannot leak — but a flat int->int open-addressing table
   keeps the hot-path lookup allocation-free, gives exact control over the
   memory ceiling (two int arrays, no boxed buckets), and makes the
   determinism argument for detlint a one-liner: the hash is a fixed
   splitmix64-style finalizer of the key itself, so layout is a pure
   function of the insertion sequence, which is PRNG-driven and hence
   identical for every --jobs value.

   Keys are non-negative packed pairs; values are any int except the
   reserved {!absent}. Null outcomes are capped: once the null budget is
   used up, further {!add_null} calls are refused (the engine then simply
   re-probes such pairs — exactness does not depend on caching). The
   engine also offers only the nulls that can pay for a slot: the budget
   B doubles as its admission scale, so a null is offered when every live
   pair needing an entry fits in B, or when the pair alone carries at
   least 1/B of the scheduler (see the "Knowledge about pairs" section of
   count_sim.ml). Productive outcomes always insert, so the productive
   adjacency the engine builds next to this cache can never disagree
   with it. *)

type t = {
  mutable keys : int array;  (* -1 = empty slot *)
  mutable data : int array;
  mutable mask : int;  (* capacity - 1; capacity a power of two *)
  mutable size : int;
  null_limit : int;
  mutable nulls : int;
}

let absent = min_int

let initial_capacity = 1024

let create ?(null_limit = 1 lsl 21) () =
  {
    keys = Array.make initial_capacity (-1);
    data = Array.make initial_capacity 0;
    mask = initial_capacity - 1;
    size = 0;
    null_limit;
    nulls = 0;
  }

let size t = t.size

let nulls t = t.nulls

let null_limit t = t.null_limit

(* splitmix64-style finalizer over the key: fixed, seedless, well-mixed.
   Plain native-int xor-shift-multiply (62-bit odd constants) so the hot
   path allocates nothing. *)
let hash key =
  let h = key lxor (key lsr 31) in
  let h = h * 0x2545F4914F6CDD1D in
  let h = h lxor (h lsr 29) in
  let h = h * 0x27BB2EE687B0B0FD in
  (h lxor (h lsr 31)) land max_int

let find t key =
  let mask = t.mask in
  let i = ref (hash key land mask) in
  let result = ref absent in
  let continue = ref true in
  while !continue do
    let k = t.keys.(!i) in
    if k = -1 then continue := false
    else if k = key then begin
      result := t.data.(!i);
      continue := false
    end
    else i := (!i + 1) land mask
  done;
  !result

let insert_raw t key v =
  let mask = t.mask in
  let i = ref (hash key land mask) in
  while t.keys.(!i) <> -1 && t.keys.(!i) <> key do
    i := (!i + 1) land mask
  done;
  if t.keys.(!i) = -1 then begin
    t.keys.(!i) <- key;
    t.size <- t.size + 1
  end;
  t.data.(!i) <- v

let grow t =
  let old_keys = t.keys and old_data = t.data in
  let cap = 2 * (t.mask + 1) in
  t.keys <- Array.make cap (-1);
  t.data <- Array.make cap 0;
  t.mask <- cap - 1;
  t.size <- 0;
  Array.iteri (fun i k -> if k <> -1 then insert_raw t k old_data.(i)) old_keys

let add t key v =
  if key < 0 then invalid_arg "Paircache.add: negative key";
  if v = absent then invalid_arg "Paircache.add: reserved value";
  if 2 * (t.size + 1) > t.mask + 1 then grow t;
  insert_raw t key v

let add_null t key v =
  if t.nulls >= t.null_limit then false
  else begin
    add t key v;
    t.nulls <- t.nulls + 1;
    true
  end
