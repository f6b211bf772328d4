type 'a t = {
  ir : 'a Repr.t;
  source : 'a Engine.Protocol.t;
  compiled : int Engine.Protocol.t;
  compile_s : float;
  memo_hits : int ref;
  dynamic_steps : int ref;
}

let states k = Repr.size k.ir
let encode k st = Repr.encode k.ir st
let decode k code = Repr.decode k.ir code
let step k rng ci cj = k.compiled.Engine.Protocol.transition rng ci cj
let exact k = k.ir.Repr.exact = Some true

let of_ir_timed ~t0 (ir : 'a Repr.t) =
  let source = ir.Repr.enumerable.Engine.Enumerable.protocol in
  let m = Repr.size ir in
  (* Precompute per-code observations so the compiled protocol's monitor
     reads are array lookups, not decode + source observation. *)
  let rank_tbl = Array.init m (fun c -> source.Engine.Protocol.rank (Repr.decode ir c)) in
  let leader_tbl =
    Array.init m (fun c -> source.Engine.Protocol.is_leader (Repr.decode ir c))
  in
  let memo_hits = ref 0 and dynamic_steps = ref 0 in
  let dynamic rng ci cj =
    incr dynamic_steps;
    let a', b' = source.Engine.Protocol.transition rng (Repr.decode ir ci) (Repr.decode ir cj) in
    (Repr.encode ir a', Repr.encode ir b')
  in
  let transition =
    match ir.Repr.table with
    | None -> dynamic
    | Some { Repr.out_i; out_j } ->
        fun rng ci cj ->
          let cell = (ci * m) + cj in
          let i' = Array.unsafe_get out_i cell in
          if i' >= 0 then begin
            incr memo_hits;
            (i', Array.unsafe_get out_j cell)
          end
          else dynamic rng ci cj
  in
  let compiled =
    {
      Engine.Protocol.name = source.Engine.Protocol.name;
      n = source.Engine.Protocol.n;
      transition;
      deterministic = source.Engine.Protocol.deterministic;
      equal = Int.equal;
      pp = (fun fmt c -> source.Engine.Protocol.pp fmt (Repr.decode ir c));
      rank = (fun c -> rank_tbl.(c));
      is_leader = (fun c -> leader_tbl.(c));
    }
  in
  { ir; source; compiled; compile_s = Unix.gettimeofday () -. t0; memo_hits; dynamic_steps }

let of_ir ir = of_ir_timed ~t0:(Unix.gettimeofday ()) ir

let compile ?max_cells e =
  let t0 = Unix.gettimeofday () in
  of_ir_timed ~t0 (Passes.pipeline ?max_cells e)

let stats k =
  let ir = k.ir in
  let m = Repr.size ir in
  [
    ("kernel.states", float_of_int m);
    ("kernel.packed_codes", float_of_int ir.Repr.packed_codes);
    ("kernel.dead_codes", float_of_int (ir.Repr.packed_codes - m));
    ("kernel.table_cells", match ir.Repr.table with Some _ -> float_of_int (m * m) | None -> 0.);
    ("kernel.static_pairs", float_of_int ir.Repr.static_pairs);
    ("kernel.dynamic_pairs", float_of_int ir.Repr.dynamic_pairs);
    ("kernel.compile_s", k.compile_s);
    ("kernel.memo_hits", float_of_int !(k.memo_hits));
    ("kernel.dynamic_steps", float_of_int !(k.dynamic_steps));
    ("kernel.exact", if exact k then 1. else 0.);
  ]

let exec (type s) ?topology ~kind (k : s t) ~(init : s array) ~rng : s Engine.Exec.t =
  let inner =
    Engine.Exec.make ?topology ~kind ~protocol:k.compiled ~init:(Array.map (encode k) init) ~rng ()
  in
  let module Inner = (val inner) in
  (module struct
    type state = s

    let protocol = k.source
    let advance = Inner.advance
    let interactions = Inner.interactions
    let events = Inner.events
    let parallel_time = Inner.parallel_time
    let ranking_correct = Inner.ranking_correct
    let leader_correct = Inner.leader_correct
    let leader_count = Inner.leader_count
    let ranked_agents = Inner.ranked_agents
    let silent = Inner.silent
    let state i = decode k (Inner.state i)
    let snapshot () = Array.map (decode k) (Inner.snapshot ())
    let inject i st = Inner.inject i (encode k st)
    let corrupt ~rng ~fraction gen = Inner.corrupt ~rng ~fraction (fun g -> encode k (gen g))
    let on = Inner.on
    let emit = Inner.emit
    let stats () = Inner.stats () @ stats k
  end)
