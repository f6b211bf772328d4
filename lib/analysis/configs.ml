(* C(m, k); ascending numerators keep every intermediate value integral:
   after step i the accumulator is exactly C(m - k + i, i) *)
let binomial m k =
  let c = ref 1 in
  for i = 1 to k do
    c := !c * (m - k + i) / i
  done;
  !c

let count ~states ~n =
  (* C(states + n - 1, n), with a float guard against overflow *)
  let estimate =
    let rec go acc k =
      if k > n then acc
      else go (acc *. float_of_int (states + n - k) /. float_of_int k) (k + 1)
    in
    go 1.0 1
  in
  if estimate > 1e15 then None else Some (binomial (states + n - 1) n)

(* The configurations that agree with [config] before position [pos] and
   hold a smaller state there all come first in [iter]'s order; those
   holding a state in [lo, c), for [lo] the state at [pos - 1], number
   tails(k, lo) - tails(k, c), where tails(k, v) = C(states - v + k - 1, k)
   counts the sorted configurations of the k = n - pos agents left over
   the states [v .. states - 1]. *)
let key ~states ~n =
  let tails =
    Array.init (n + 1) (fun k -> Array.init (states + 1) (fun v -> binomial (states - v + k - 1) k))
  in
  fun config ->
    let key = ref 0 and lo = ref 0 in
    Array.iteri
      (fun pos c ->
        let tails = tails.(n - pos) in
        key := !key + tails.(!lo) - tails.(c);
        lo := c)
      config;
    !key

let iter ~states ~n f =
  let config = Array.make n 0 in
  let rec go pos lo =
    if pos = n then f config
    else
      for i = lo to states - 1 do
        config.(pos) <- i;
        go (pos + 1) i
      done
  in
  if n > 0 && states > 0 then go 0 0

let multiplicities config =
  let n = Array.length config in
  let acc = ref [] in
  let i = ref 0 in
  while !i < n do
    let s = config.(!i) in
    let j = ref !i in
    while !j < n && config.(!j) = s do
      incr j
    done;
    acc := (s, !j - !i) :: !acc;
    i := !j
  done;
  List.rev !acc

let replace_pair config ~a ~b ~a' ~b' =
  let n = Array.length config in
  let out = Array.make n 0 in
  Array.blit config 0 out 0 n;
  let swap_one v v' =
    let rec find i = if out.(i) = v then i else find (i + 1) in
    out.(find 0) <- v'
  in
  swap_one a a';
  swap_one b b';
  Array.sort compare out;
  out
