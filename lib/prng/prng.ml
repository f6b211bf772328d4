(* xoshiro256** 1.0 (Blackman & Vigna, public domain reference
   implementation), ported to OCaml Int64. State must never be all zero;
   splitmix64 seeding guarantees that.

   The four state words live unboxed in a 32-byte [Bytes.t] and are read
   and written with the unchecked 64-bit bytes primitives. The xoshiro
   step is inlined into each draw, so its int64 temporaries stay in
   registers: [int], [int_in], [bits], [bool], [shuffle] and [pick]
   allocate nothing, and [float] and [bits64] allocate only the boxed
   value they return.

   A generator can alternatively run in *scripted* mode: every bounded
   primitive draw ([int], [bool], [bits], ...) is then served from a
   prescribed list of choices instead of the xoshiro stream, and the
   (choice, bound) pairs actually drawn are recorded. Static analysis uses
   this to enumerate every synthetic-coin outcome of a randomized
   transition exactly (see [Analysis.Coins]); the unbounded primitives
   ([bits64], [float], [split]) have no finite choice space and raise in
   scripted mode. *)

type script = {
  mutable pending : int list;  (* prescribed upcoming choices, in draw order *)
  mutable trace : (int * int) list;  (* (choice, bound) drawn so far, newest first *)
}

type t = {
  state : Bytes.t;  (* s0, s1, s2, s3 at byte offsets 0, 8, 16, 24 *)
  script : script option;
}

(* Native-endian and unchecked: the state is only ever read back through
   these two, and every offset below is a constant inside its 32 bytes. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256** step: advance [st] and return the output word. *)
let[@inline] next st =
  let s0 = get64 st 0 and s1 = get64 st 8 and s2 = get64 st 16 and s3 = get64 st 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let t = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  set64 st 0 s0;
  set64 st 8 s1;
  set64 st 16 (Int64.logxor s2 t);
  set64 st 24 (rotl s3 45);
  result

(* splitmix64: used only to expand a seed into four state words. *)
let splitmix_next state =
  let z = Int64.add !state 0x9E3779B97F4A7C15L in
  state := z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_seed64 seed64 =
  let seed = ref seed64 in
  let state = Bytes.create 32 in
  for w = 0 to 3 do
    set64 state (8 * w) (splitmix_next seed)
  done;
  { state; script = None }

let create ~seed = of_seed64 (Int64.of_int seed)

let scripted choices =
  let g = of_seed64 0L in
  { g with script = Some { pending = choices; trace = [] } }

let is_scripted g = g.script <> None

let script_trace g =
  match g.script with
  | None -> invalid_arg "Prng.script_trace: generator is not scripted"
  | Some s -> List.rev s.trace

let script_draw s bound =
  let choice =
    match s.pending with
    | [] -> 0
    | c :: rest ->
        s.pending <- rest;
        if c < 0 || c >= bound then
          invalid_arg
            (Printf.sprintf "Prng: scripted choice %d outside [0, %d)" c bound);
        c
  in
  s.trace <- (choice, bound) :: s.trace;
  choice

let copy g =
  let script =
    match g.script with
    | None -> None
    | Some s -> Some { pending = s.pending; trace = s.trace }
  in
  { state = Bytes.copy g.state; script }

let[@inline] bits64 g =
  match g.script with
  | None -> next g.state
  | Some _ -> invalid_arg "Prng.bits64: unbounded draw on a scripted generator"

let split g = of_seed64 (bits64 g)

let split_many g k = Array.init k (fun _ -> split g)

(* Uniform int in [0, bound) by rejection on the low 62 bits of each
   output (the non-negative OCaml int range). *)
let int g bound =
  assert (bound > 0);
  match g.script with
  | Some s -> script_draw s bound
  | None ->
      (* r is uniform on [0, 2^62). Reject the tail to avoid modulo bias. *)
      let limit = (max_int / bound) * bound in
      let r = ref limit in
      while !r >= limit do
        r := Int64.to_int (next g.state) land max_int
      done;
      !r mod bound

let int_in g lo hi =
  assert (lo <= hi);
  lo + int g (hi - lo + 1)

let bool g =
  match g.script with
  | Some s -> script_draw s 2 = 1
  | None -> Int64.to_int (next g.state) land 1 = 1

let float g =
  (* 53 random bits into [0,1). *)
  let r = Int64.to_float (Int64.shift_right_logical (bits64 g) 11) in
  r *. 0x1p-53

let bernoulli g ~p = float g < p

(* A pair of agent indices below 2^31 packed into one immediate int, so
   the per-interaction sampler returns it without allocating. *)
let pack_pair i j = (i lsl 31) lor j

let pair_fst p = p lsr 31

let pair_snd p = p land 0x7FFF_FFFF

let distinct_pair_packed g n =
  assert (n >= 2 && n <= 1 lsl 31);
  let i = int g n in
  let j = int g (n - 1) in
  pack_pair i (if j >= i then j + 1 else j)

let distinct_pair g n =
  let p = distinct_pair_packed g n in
  (pair_fst p, pair_snd p)

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation g n =
  let a = Array.init n (fun i -> i) in
  shuffle g a;
  a

let pick g a =
  assert (Array.length a > 0);
  a.(int g (Array.length a))

(* Cap on enumerable bit widths in scripted mode: the choice space of a
   [bits] draw is 2^width and the analyzer visits all of it. *)
let max_scripted_width = 20

let bits g ~width =
  assert (width >= 0 && width <= 62);
  if width = 0 then 0
  else
    match g.script with
    | Some s ->
        if width > max_scripted_width then
          invalid_arg "Prng.bits: width too large to enumerate on a scripted generator";
        script_draw s (1 lsl width)
    | None -> Int64.to_int (Int64.shift_right_logical (next g.state) (64 - width))
