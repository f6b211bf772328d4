let default_max_cells = 1 lsl 22

(* One probe per ordered pair: run the transition under an empty scripted
   stream. A transition that completes without drawing is static — by the
   Prng.scripted contract its control flow depends only on its inputs, so
   the recorded outputs are the outputs. A transition that draws (which
   under an empty script raises before any randomness is consumed) is
   dynamic and must be interpreted at run time with the real rng. *)
let probe transition a b =
  match
    let rng = Prng.scripted [] in
    let out = transition rng a b in
    (out, Prng.script_trace rng)
  with
  | out, [] -> `Static out
  | _, _ :: _ -> `Dynamic
  | exception _ -> `Dynamic

let memoize ?(max_cells = default_max_cells) (ir : 'a Repr.t) =
  let m = Repr.size ir in
  if m > max_cells / m then
    Repr.logged ir
      (Printf.sprintf "memoize: skipped, %d^2 cells exceed budget %d" m max_cells)
  else begin
    let p = ir.Repr.enumerable.Engine.Enumerable.protocol in
    let out_i = Array.make (m * m) (-1) in
    let out_j = Array.make (m * m) (-1) in
    let static = ref 0 and dynamic = ref 0 in
    let exact = ref true in
    for ci = 0 to m - 1 do
      let a = Repr.decode ir ci in
      for cj = 0 to m - 1 do
        let b = Repr.decode ir cj in
        match probe p.Engine.Protocol.transition a b with
        | `Dynamic -> incr dynamic
        | `Static (a', b') ->
            let ci' = Repr.encode ir a' and cj' = Repr.encode ir b' in
            incr static;
            exact :=
              !exact
              && p.Engine.Protocol.equal a' (Repr.decode ir ci')
              && p.Engine.Protocol.equal b' (Repr.decode ir cj');
            out_i.((ci * m) + cj) <- ci';
            out_j.((ci * m) + cj) <- cj'
      done
    done;
    Repr.logged
      {
        ir with
        Repr.table = Some { Repr.out_i; out_j };
        static_pairs = !static;
        dynamic_pairs = !dynamic;
        exact = Some !exact;
      }
      (Printf.sprintf "memoize: %d pairs (%d static, %d dynamic), %s" (m * m) !static
         !dynamic
         (if !exact then "exact" else "quotient"))
  end

let pipeline ?max_cells e = Repr.of_enumerable e |> memoize ?max_cells
