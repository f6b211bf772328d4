(* Lazy count-engine core: configurations as per-(state, degree-class)
   counts, with exact null-interaction skipping and on-demand pair
   probing.

   == Representation ==

   A "cell" is an interned (state, degree-class) pair; the configuration
   is the vector of cell counts. On the complete graph there is a single
   class and cells are just distinct states — the classic count engine.
   With a {!Topology.classes} lumping, agents of one degree class are
   exchangeable, and when every class-pair subgraph is empty or complete
   the lumped chain is *exactly* the agent chain projected onto counts
   (otherwise it is the annealed approximation; see [lumping_exact]).

   == Knowledge about pairs ==

   The engine's job is to know, for ordered cell pairs, whether the
   deterministic transition is null. Knowledge lives in two tiers:

   - a *probed set* P of cells such that every ordered pair within P has
     been probed. Pairs in P x P not recorded as productive are null
     *implicitly* — no per-pair storage. P starts as the initially live
     cells (when there are at most [auto_init_probe] of them) and grows
     by probing each cell the moment it first becomes live, against all
     of P. Crucially, cells that are merely *discovered* (as transition
     outcomes) but never live are never probed — this is what kept the
     old engine's eager closure quadratic in the discovered state count
     and is the reason counter-carrying protocols exploded there.
     While every live cell is in P the engine is *drained*: silence is
     the O(1) observation "no productive pair carries weight".

   - a *pair cache* ({!Paircache}) of individually probed pairs, used
     once P stops growing (too many cells, or too many productive pairs
     to keep probing eagerly — the engine then drops to *lazy* mode,
     permanently). Pairs are probed when the scheduler actually draws
     them; productive outcomes are always cached, null outcomes only when
     they can pay for their slot. With B the cache's null budget, L the
     live cells and X the live cells outside P, a null pair (i, j) of
     class pair (a, b) is admitted when
       (1) X (2L - X) <= B: every live pair outside P x P fits in the
           budget, so silence stays provable wherever caching could prove
           it; or
       (2) q_ab w_ij / T_ab >= 1/B (w_ij the pair's current agent mass):
           the pair alone carries at least a 1/B share of the scheduler.
     Any other null is left unknown and simply re-probed if drawn again.
     Up to n = 1448, n^2 <= B at the default budget, so every null
     qualifies by rule (1) alone (X (2L - X) <= L^2 <= n^2). At large n
     with mostly distinct states (Optimal-silent's correct configuration
     at n = 10^4 and beyond) none does: each would cost a hash insert,
     two adjacency conses and a share of the cache budget, for a pair
     the scheduler almost never draws again. With nothing cached there,
     the hit probability stays exactly 1 and each tick of a confirmation
     window is a single probe.

   == Exact skipping ==

   Let T_ab = n_a (n_b - [a=b]) be the ordered agent-pair mass of class
   pair (a, b), q_ab = mix_ab / 2E the scheduler's class-pair law, and
   K_ab the mass of pairs currently *known null*:

     K_ab = ps_a ps_b - [a=b] ps_a - wp_ab + kn_ab

   (ps = probed live mass per class, wp = productive mass with both ends
   in P, kn = explicitly cached null mass; the three terms are the
   implicit-null mass of P x P plus the explicit nulls). Skipping the
   interactions that land in the known-null set is exact for *any* such
   set: the scheduler is i.i.d. per tick, so ticks are split by a fixed
   thinning into "guaranteed null" (probability 1 - p where
   p = sum_ab q_ab (T_ab - K_ab)/T_ab) and "possibly interesting"; the
   count of skipped ticks before the next interesting one is geometric
   in p, sampled exactly like the old engine's W/(n(n-1)) skip — which
   is the special case where everything is probed and K = T - W.

   A hit is then drawn from the complement of the known-null set,
   weighted by pair mass: with avail = W + U (W productive mass, U
   unknown mass), an integer target below W selects a productive pair by
   the usual weighted scan; otherwise a pair with at least one endpoint
   outside P is drawn by Fenwick descent over the probed/unprobed class
   masses and rejected while already known — the remaining law is
   uniform over unknown pairs, as required. An unknown pair is probed on
   the spot: a productive outcome is applied as the event; a null
   outcome *is* the consumed interaction (no event) and, when admitted
   to the cache, makes the skip stronger. In drained mode U = 0 and the
   selection degenerates to the old engine's scan.

   == Silence ==

   The configuration is provably silent iff K_ab = T_ab for every
   scheduled class pair. In drained mode this is exactly W = 0 (the old
   oracle); in lazy mode it can still become provable when the live mass
   returns into P with no productive pair left (e.g. after recovery from
   a fault that interned new states) — and when it is not provable the
   oracle answers "unknown" rather than guessing, so measurement layers
   fall back to their confirmation windows. *)

(* Cells are packed two-per-int for pair keys; 2^25 cells bound the
   closure (a full table at that size would be astronomically beyond the
   cache budget anyway). *)
let cell_bits = 25
let cell_limit = 1 lsl cell_bits

(* Auto-drain threshold: probe the initial live cells eagerly when there
   are at most this many (the historical engine behavior, and what keeps
   the exact oracle for every small-closure run). 4096 covers the scale
   experiments' worst cases. *)
let auto_init_probe = 4096

(* P stops growing past this many cells, or this many productive pairs;
   the engine then runs lazily forever. The pair cap is the density
   guard: a protocol whose cells almost all interact productively (e.g.
   Optimal-silent's counter states, where ~every ordered pair propagates
   a max) makes both the fold probes and the per-event adjacency walks
   quadratic in P, so the engine must bail out to lazy probing while P
   is still small. Sparse protocols (Silent-n-state's diagonal, the
   epidemic) never approach it and keep the exact drained oracle. *)
let probe_cell_cap = 8192
let padj_cap = 1 lsl 16

(* Growable int vector (adjacency arrays, probe order, class cells). *)
type veci = { mutable buf : int array; mutable len : int }

let veci_make () = { buf = Array.make 8 0; len = 0 }

let veci_push v x =
  if v.len = Array.length v.buf then begin
    let b = Array.make (2 * v.len) 0 in
    Array.blit v.buf 0 b 0 v.len;
    v.buf <- b
  end;
  v.buf.(v.len) <- x;
  v.len <- v.len + 1

type 'a t = {
  protocol : 'a Protocol.t;
  rng : Prng.t;
  n : int;
  (* degree classes *)
  nc : int;
  class_sizes : int array;
  class_of_agent : int array;
  members : int array array;
  rank_in_class : int array;
  qmix : float array;  (* nc*nc row-major: mix_ab / 2E *)
  tmass : int array;  (* nc*nc: n_a (n_b - [a=b]) *)
  lumping_exact : bool;
  null_budget : int;  (* B: the cache's null limit, also the admission scale *)
  (* cells *)
  mutable states : 'a array;
  mutable cls : int array;
  mutable counts : int array;
  mutable slot : int array;  (* slot within fenp/fenx of the cell's class *)
  mutable in_p : bool array;  (* member of the probed set *)
  mutable d : int;
  buckets : (int, int list) Hashtbl.t;  (* Hashtbl.hash state -> cells *)
  (* per-class agent mass, split probed/unprobed for restricted draws *)
  fenp : Fenwick.t array;
  fenx : Fenwick.t array;
  cell_of_slot_p : veci array;  (* class -> slot -> cell *)
  cell_of_slot_x : veci array;
  (* pair knowledge *)
  cache : Paircache.t;
  probe_order : veci;  (* cells of P, insertion order *)
  mutable drained : bool;
  (* productive adjacency: per-cell lists for incremental mass updates,
     per-class-pair packed pair vectors for the selection scan *)
  mutable p_out : int list array;
  mutable p_in : int list array;
  plist : veci array;  (* nc*nc *)
  mutable productive_pairs : int;
  wp : int array;  (* nc*nc: productive mass, both endpoints in P *)
  wx : int array;  (* nc*nc: productive mass, not both in P *)
  (* explicit null adjacency (lazy probes only) *)
  mutable n_out : int list array;
  mutable n_in : int list array;
  kn : int array;  (* nc*nc: explicitly cached null mass *)
  (* counters *)
  mutable live_cells : int;
  mutable live_unprobed : int;  (* live cells outside P *)
  mutable interactions : int;
  mutable events : int;
  mutable pairs_probed : int;
  monitor : 'a Monitor.t;
}

let protocol t = t.protocol

let n t = t.n

let interactions t = t.interactions

let parallel_time t = float_of_int t.interactions /. float_of_int t.n

let events t = t.events

let leader_count t = Monitor.leader_count t.monitor

let leader_correct t = Monitor.leader_correct t.monitor

let ranking_correct t = Monitor.ranking_correct t.monitor

let ranked_agents t = Monitor.ranked_agents t.monitor

let monitor_updates t = Monitor.updates t.monitor

let closure_size t = t.d

let pairs_probed t = t.pairs_probed

let pairs_cached t = Paircache.size t.cache

let classes_live t = t.live_cells

let live_unprobed t = t.live_unprobed

let productive_pairs t = t.productive_pairs

let drained t = t.drained

let lumping_exact t = t.lumping_exact

let null_skipped t = t.interactions - t.events

let pair_key i j = (i lsl cell_bits) lor j

let pack_outcome i j = (i lsl cell_bits) lor j

let outcome_fst v = v lsr cell_bits

let outcome_snd v = v land (cell_limit - 1)

let null_outcome = -1

let idx t a b = (a * t.nc) + b

(* probed live mass of class a *)
let ps t a = Fenwick.total t.fenp.(a)

(* unprobed live mass of class a *)
let xs t a = Fenwick.total t.fenx.(a)

(* mass of ordered pairs currently known to be null in class pair (a,b) *)
let known_null t a b =
  let p_a = ps t a and p_b = ps t b in
  let self = if a = b then p_a else 0 in
  (p_a * p_b) - self - t.wp.(idx t a b) + t.kn.(idx t a b)

(* mass of pairs that could still do something: productive + unknown *)
let avail t a b = t.tmass.(idx t a b) - known_null t a b

let productive_weight t =
  let acc = ref 0 in
  for a = 0 to t.nc - 1 do
    for b = 0 to t.nc - 1 do
      if t.qmix.(idx t a b) > 0.0 then acc := !acc + avail t a b
    done
  done;
  !acc

let is_silent t = productive_weight t = 0

let silent t = if is_silent t then Some true else if t.drained then Some false else None

(* ---------- cells ---------- *)

let grow t =
  let cap = Array.length t.states in
  if t.d = cap then begin
    let new_cap = max 16 (2 * cap) in
    let states = Array.make new_cap t.states.(0) in
    Array.blit t.states 0 states 0 t.d;
    let copy_int a = let b = Array.make new_cap 0 in Array.blit a 0 b 0 t.d; b in
    let copy_bool a = let b = Array.make new_cap false in Array.blit a 0 b 0 t.d; b in
    let copy_list a = let b = Array.make new_cap [] in Array.blit a 0 b 0 t.d; b in
    t.states <- states;
    t.cls <- copy_int t.cls;
    t.counts <- copy_int t.counts;
    t.slot <- copy_int t.slot;
    t.in_p <- copy_bool t.in_p;
    t.p_out <- copy_list t.p_out;
    t.p_in <- copy_list t.p_in;
    t.n_out <- copy_list t.n_out;
    t.n_in <- copy_list t.n_in
  end

(* Interning is bucketed by the polymorphic hash: the engine requires
   that the protocol's [equal] coincides with structural equality (true
   for the plain-data states of the deterministic protocols it targets).
   The hash only routes equality lookups — nothing ever iterates the
   buckets, so results cannot depend on hash values. *)
let intern t state cls_id =
  let equal = t.protocol.Protocol.equal in
  let h = Hashtbl.hash state in
  let bucket = match Hashtbl.find_opt t.buckets h with Some b -> b | None -> [] in
  match
    List.find_opt (fun i -> t.cls.(i) = cls_id && equal t.states.(i) state) bucket
  with
  | Some i -> i
  | None ->
      if t.d >= cell_limit then
        invalid_arg "Count_sim: cell space exhausted (2^25 interned (state, class) cells)";
      grow t;
      let i = t.d in
      t.states.(i) <- state;
      t.cls.(i) <- cls_id;
      t.counts.(i) <- 0;
      t.in_p.(i) <- false;
      (* new cells start on the unprobed side *)
      t.slot.(i) <- Fenwick.length t.fenx.(cls_id);
      Fenwick.append t.fenx.(cls_id);
      veci_push t.cell_of_slot_x.(cls_id) i;
      t.p_out.(i) <- [];
      t.p_in.(i) <- [];
      t.n_out.(i) <- [];
      t.n_in.(i) <- [];
      t.d <- t.d + 1;
      Hashtbl.replace t.buckets h (i :: bucket);
      i

(* Directed mass of pair (i, j) under current counts. *)
let pair_weight t i j =
  if i = j then t.counts.(i) * (t.counts.(i) - 1) else t.counts.(i) * t.counts.(j)

(* Both-endpoints-probed is stable per pair: P only grows while drained,
   and in drained mode every probed pair has both endpoints in P; lazy
   probes only happen after P is frozen. So evaluating it at walk time
   always matches the insert-time classification. *)
let pair_in_p t i j = t.in_p.(i) && t.in_p.(j)

(* Add [sign] times the current mass of every known pair touching [k]
   into the class-pair accumulators. O(degree of k). *)
let accumulate_contribution t k sign =
  let touch_productive i j =
    let w = pair_weight t i j in
    if w <> 0 then begin
      let cp = idx t t.cls.(i) t.cls.(j) in
      if pair_in_p t i j then t.wp.(cp) <- t.wp.(cp) + (sign * w)
      else t.wx.(cp) <- t.wx.(cp) + (sign * w)
    end
  in
  let touch_null i j =
    let w = pair_weight t i j in
    if w <> 0 then begin
      let cp = idx t t.cls.(i) t.cls.(j) in
      t.kn.(cp) <- t.kn.(cp) + (sign * w)
    end
  in
  List.iter (fun j -> touch_productive k j) t.p_out.(k);
  List.iter (fun i -> touch_productive i k) t.p_in.(k);
  List.iter (fun j -> touch_null k j) t.n_out.(k);
  List.iter (fun i -> touch_null i k) t.n_in.(k)

let has_known_pair t k =
  t.p_out.(k) <> [] || t.p_in.(k) <> [] || t.n_out.(k) <> [] || t.n_in.(k) <> []

(* The null-admission rule (see "Knowledge about pairs"): every live pair
   outside P x P fits in the budget, or this pair carries at least 1/B of
   the scheduler. *)
let worth_caching t i j =
  let l = t.live_cells and x = t.live_unprobed in
  x * ((2 * l) - x) <= t.null_budget
  ||
  let cp = idx t t.cls.(i) t.cls.(j) in
  t.qmix.(cp) *. float_of_int (pair_weight t i j) *. float_of_int t.null_budget
  >= float_of_int t.tmass.(cp)

(* Probe one ordered pair, record the outcome, and account its mass.
   The pair must be unknown. Returns the productive outcome, if any. *)
let probe t i j =
  t.pairs_probed <- t.pairs_probed + 1;
  let si = t.states.(i) and sj = t.states.(j) in
  let si', sj' = t.protocol.Protocol.transition t.rng si sj in
  let equal = t.protocol.Protocol.equal in
  if equal si si' && equal sj sj' then begin
    (* Null. Within P it is implicit; otherwise cache it explicitly when
       admitted (and the budget permits) so its mass strengthens the skip. *)
    if (not (pair_in_p t i j)) && worth_caching t i j then begin
      if Paircache.add_null t.cache (pair_key i j) null_outcome then begin
        t.n_out.(i) <- j :: t.n_out.(i);
        if i <> j then t.n_in.(j) <- i :: t.n_in.(j);
        let cp = idx t t.cls.(i) t.cls.(j) in
        t.kn.(cp) <- t.kn.(cp) + pair_weight t i j
      end
    end;
    None
  end
  else begin
    let i' = intern t si' t.cls.(i) and j' = intern t sj' t.cls.(j) in
    Paircache.add t.cache (pair_key i j) (pack_outcome i' j');
    t.p_out.(i) <- j :: t.p_out.(i);
    if i <> j then t.p_in.(j) <- i :: t.p_in.(j);
    veci_push t.plist.(idx t t.cls.(i) t.cls.(j)) (pair_key i j);
    t.productive_pairs <- t.productive_pairs + 1;
    let cp = idx t t.cls.(i) t.cls.(j) in
    let w = pair_weight t i j in
    if pair_in_p t i j then t.wp.(cp) <- t.wp.(cp) + w else t.wx.(cp) <- t.wx.(cp) + w;
    Some (i', j')
  end

(* Move a cell to the probed side: its agent mass migrates from fenx to
   fenp (the fenx slot stays as a permanent zero — P never shrinks). *)
let mark_probed t k =
  Fenwick.add t.fenx.(t.cls.(k)) t.slot.(k) (-t.counts.(k));
  t.in_p.(k) <- true;
  (* only live cells are ever admitted *)
  t.live_unprobed <- t.live_unprobed - 1;
  t.slot.(k) <- Fenwick.length t.fenp.(t.cls.(k));
  Fenwick.append t.fenp.(t.cls.(k));
  Fenwick.add t.fenp.(t.cls.(k)) t.slot.(k) t.counts.(k);
  veci_push t.cell_of_slot_p.(t.cls.(k)) k;
  veci_push t.probe_order k

(* A cell just became live. While drained, fold it into P by probing it
   against all of P (both orders, including itself) — unless P or the
   productive adjacency would outgrow its cap, in which case the engine
   goes lazy, permanently. *)
let on_liveness_gain t k =
  if t.drained && not t.in_p.(k) then begin
    if t.probe_order.len >= probe_cell_cap || t.productive_pairs >= padj_cap then
      t.drained <- false
    else begin
      mark_probed t k;
      ignore (probe t k k);
      for q_idx = 0 to t.probe_order.len - 2 do
        let q = t.probe_order.buf.(q_idx) in
        ignore (probe t k q);
        ignore (probe t q k)
      done
    end
  end

let change_count t k delta =
  (* a cell with no known pair contributes no mass: skip both walks *)
  let known = has_known_pair t k in
  if known then accumulate_contribution t k (-1);
  let was = t.counts.(k) in
  t.counts.(k) <- was + delta;
  if known then accumulate_contribution t k 1;
  let f = if t.in_p.(k) then t.fenp else t.fenx in
  Fenwick.add f.(t.cls.(k)) t.slot.(k) delta;
  if delta > 0 then
    for _ = 1 to delta do Monitor.add t.monitor t.states.(k) done
  else
    for _ = 1 to -delta do Monitor.remove t.monitor t.states.(k) done;
  if was = 0 && delta > 0 then begin
    t.live_cells <- t.live_cells + 1;
    if not t.in_p.(k) then t.live_unprobed <- t.live_unprobed + 1;
    on_liveness_gain t k
  end
  else if was > 0 && was + delta = 0 then begin
    t.live_cells <- t.live_cells - 1;
    if not t.in_p.(k) then t.live_unprobed <- t.live_unprobed - 1
  end

let make ?classes ?init_probe ?null_budget ~protocol ~init ~rng () =
  if not protocol.Protocol.deterministic then
    invalid_arg "Count_sim.make: protocol is randomized";
  if Array.length init <> protocol.Protocol.n then
    invalid_arg "Count_sim.make: initial configuration size differs from protocol.n";
  Protocol.validate ~config:init protocol;
  let n = protocol.Protocol.n in
  let classes =
    match classes with Some c -> c | None -> Topology.complete_classes ~n
  in
  if classes.Topology.agents <> n then
    invalid_arg "Count_sim.make: degree classes cover a different population";
  let nc = classes.Topology.nc in
  let rank_in_class = Array.make n 0 in
  Array.iter
    (fun mem -> Array.iteri (fun pos agent -> rank_in_class.(agent) <- pos) mem)
    classes.Topology.members;
  let total_mix =
    Array.fold_left (fun acc row -> Array.fold_left ( + ) acc row) 0 classes.Topology.mix
  in
  if total_mix = 0 then invalid_arg "Count_sim.make: topology has no edges";
  let qmix = Array.make (nc * nc) 0.0 in
  let tmass = Array.make (nc * nc) 0 in
  for a = 0 to nc - 1 do
    for b = 0 to nc - 1 do
      let na = classes.Topology.sizes.(a) and nb = classes.Topology.sizes.(b) in
      qmix.((a * nc) + b) <-
        float_of_int classes.Topology.mix.(a).(b) /. float_of_int total_mix;
      tmass.((a * nc) + b) <- na * (nb - if a = b then 1 else 0)
    done
  done;
  let cache = Paircache.create ?null_limit:null_budget () in
  let t =
    {
      protocol;
      rng;
      n;
      nc;
      class_sizes = classes.Topology.sizes;
      class_of_agent = classes.Topology.class_of;
      members = classes.Topology.members;
      rank_in_class;
      qmix;
      tmass;
      lumping_exact = classes.Topology.exact;
      null_budget = Paircache.null_limit cache;
      states = Array.make 16 init.(0);
      cls = Array.make 16 0;
      counts = Array.make 16 0;
      slot = Array.make 16 0;
      in_p = Array.make 16 false;
      d = 0;
      (* sized to the population, so a start with mostly distinct states
         (Optimal-silent's correct configuration has n) interns without
         rehashing; the floor of 1024 buckets is for small n, where the
         discovered outcome cells outnumber the population many times
         over (~1300 cells at n = 48 from a uniform Optimal-silent start)
         and a table sized to n would rehash its way up to them *)
      buckets = Hashtbl.create (max 1024 n);
      fenp = Array.init nc (fun _ -> Fenwick.create ());
      fenx = Array.init nc (fun _ -> Fenwick.create ());
      cell_of_slot_p = Array.init nc (fun _ -> veci_make ());
      cell_of_slot_x = Array.init nc (fun _ -> veci_make ());
      cache;
      probe_order = veci_make ();
      drained = false;
      p_out = Array.make 16 [];
      p_in = Array.make 16 [];
      plist = Array.init (nc * nc) (fun _ -> veci_make ());
      productive_pairs = 0;
      wp = Array.make (nc * nc) 0;
      wx = Array.make (nc * nc) 0;
      n_out = Array.make 16 [];
      n_in = Array.make 16 [];
      kn = Array.make (nc * nc) 0;
      live_cells = 0;
      live_unprobed = 0;
      interactions = 0;
      events = 0;
      pairs_probed = 0;
      monitor = Monitor.create protocol [||];
    }
  in
  Array.iteri
    (fun agent s ->
      let k = intern t s t.class_of_agent.(agent) in
      change_count t k 1)
    init;
  let eager =
    match init_probe with Some b -> b | None -> t.live_cells <= auto_init_probe
  in
  if eager then begin
    (* Drain the initial configuration by admitting the live cells into P
       one at a time, exactly as later liveness gains do (outcome cells
       are interned yet not probed until they actually become live). Each
       admission re-checks the caps, so a protocol too dense to drain
       demotes to lazy mid-sweep with the P-pairs-all-probed invariant
       intact — the cells never admitted simply stay on the unprobed
       side. *)
    t.drained <- true;
    for k = 0 to t.d - 1 do
      if t.counts.(k) > 0 then on_liveness_gain t k
    done
  end;
  t

(* ---------- event execution ---------- *)

let apply_event t i j i' j' =
  change_count t i (-1);
  change_count t j (-1);
  change_count t i' 1;
  change_count t j' 1;
  t.events <- t.events + 1

(* Probability that one scheduler tick is *not* known-null. *)
let hit_prob t =
  if t.nc = 1 then float_of_int (avail t 0 0) /. float_of_int t.tmass.(0)
  else begin
    let acc = ref 0.0 in
    for a = 0 to t.nc - 1 do
      for b = 0 to t.nc - 1 do
        let q = t.qmix.(idx t a b) in
        if q > 0.0 then
          acc := !acc +. (q *. float_of_int (avail t a b) /. float_of_int t.tmass.(idx t a b))
      done
    done;
    !acc
  end

(* Null interactions before the next possibly-interesting one: geometric
   with success probability [hit_prob]. Same sampling as the historical
   W/(n(n-1)) skip, of which this is the generalization. *)
let sample_skip t =
  let p = hit_prob t in
  if p >= 1.0 then 0
  else begin
    let u = Prng.float t.rng in
    int_of_float (Float.floor (log1p (-.u) /. log1p (-.p)))
  end

(* The class pair the hit lands in, proportional to q_ab·avail_ab/T_ab. *)
let select_class_pair t =
  if t.nc = 1 then (0, 0)
  else begin
    let weight a b =
      let q = t.qmix.(idx t a b) in
      if q <= 0.0 then 0.0
      else q *. float_of_int (avail t a b) /. float_of_int t.tmass.(idx t a b)
    in
    let total = ref 0.0 in
    for a = 0 to t.nc - 1 do
      for b = 0 to t.nc - 1 do
        total := !total +. weight a b
      done
    done;
    let target = Prng.float t.rng *. !total in
    let acc = ref 0.0 in
    let chosen = ref None in
    (try
       for a = 0 to t.nc - 1 do
         for b = 0 to t.nc - 1 do
           let w = weight a b in
           if w > 0.0 then begin
             acc := !acc +. w;
             if !acc > target then begin
               chosen := Some (a, b);
               raise Exit
             end
           end
         done
       done
     with Exit -> ());
    match !chosen with
    | Some ab -> ab
    | None ->
        (* float rounding pushed the target past the sum: take the last
           positive-weight pair *)
        let last = ref (0, 0) in
        for a = 0 to t.nc - 1 do
          for b = 0 to t.nc - 1 do
            if weight a b > 0.0 then last := (a, b)
          done
        done;
        !last
  end

(* Weighted scan over the recorded productive pairs of a class pair:
   integer [target] uniform below their total mass selects a pair
   proportionally to c_i (c_j - [i=j]). *)
let select_productive t a b target =
  let v = t.plist.(idx t a b) in
  let acc = ref 0 in
  let found = ref (-1) in
  (try
     for u = 0 to v.len - 1 do
       let key = v.buf.(u) in
       let i = outcome_fst key and j = outcome_snd key in
       let w = pair_weight t i j in
       if w > 0 then begin
         acc := !acc + w;
         if !acc > target then begin
           found := key;
           raise Exit
         end
       end
     done
   with Exit -> ());
  if !found < 0 then invalid_arg "Count_sim: productive mass accounting broke";
  (outcome_fst !found, outcome_snd !found)

(* The cell of the [target]-th agent of class [a], probed agents first. *)
let cell_at t a target =
  let p_mass = ps t a in
  if target < p_mass then t.cell_of_slot_p.(a).buf.(Fenwick.find t.fenp.(a) target)
  else t.cell_of_slot_x.(a).buf.(Fenwick.find t.fenx.(a) (target - p_mass))

(* Draw a uniform agent of class [a]; returns its cell. *)
let draw_cell t a = cell_at t a (Prng.int t.rng (ps t a + xs t a))

(* Draw a uniform agent of class [a] other than one agent of the unprobed
   cell [k] (of class [a]). The excluded agent is taken to be the last
   position of [k]'s slot; targets at or past it shift up by one. This
   is the same draw, for every RNG value, as subtracting the agent from
   its tree, calling [draw_cell] and adding it back — without touching
   the tree. *)
let draw_cell_except t a k =
  let p_mass = ps t a in
  let target = Prng.int t.rng (p_mass + xs t a - 1) in
  let excluded = p_mass + Fenwick.prefix t.fenx.(a) t.slot.(k) - 1 in
  cell_at t a (if target >= excluded then target + 1 else target)

let draw_cell_unprobed t a =
  t.cell_of_slot_x.(a).buf.(Fenwick.find t.fenx.(a) (Prng.int t.rng (xs t a)))

let draw_cell_probed t a =
  t.cell_of_slot_p.(a).buf.(Fenwick.find t.fenp.(a) (Prng.int t.rng (ps t a)))

(* Draw a uniform ordered agent pair among those with at least one
   endpoint outside P in class pair (a, b); reject while the drawn cell
   pair is already cached (explicitly null or productive); probe the
   first unknown pair. Every draw is mass-weighted through the Fenwick
   trees, so each *agent* pair of the set is equally likely, which makes
   the accepted pair uniform over the unknown mass — the law the skip
   conditioned on. Termination: the unknown mass is positive (the caller
   checked avail > W), and each round hits it with probability at least
   unknown/(m1 + m2). *)
let rec draw_unknown_and_resolve t a b =
  let x_a = xs t a and x_b = xs t b in
  let m1 = x_a * (t.class_sizes.(b) - if a = b then 1 else 0) in
  let m2 = ps t a * x_b in
  let target = Prng.int t.rng (m1 + m2) in
  let i, j =
    if target < m1 then begin
      let i = draw_cell_unprobed t a in
      (* second endpoint: any agent of b except the drawn one *)
      let j = if a = b then draw_cell_except t a i else draw_cell t b in
      (i, j)
    end
    else begin
      let i = draw_cell_probed t a in
      (* second endpoint: unprobed, so never the same agent *)
      let j = draw_cell_unprobed t b in
      (i, j)
    end
  in
  let v = Paircache.find t.cache (pair_key i j) in
  if v <> Paircache.absent then
    (* already known (explicit null or productive): not an unknown pair *)
    draw_unknown_and_resolve t a b
  else begin
    match probe t i j with
    | Some (i', j') -> apply_event t i j i' j'
    | None -> ()  (* the consumed interaction was null; no event *)
  end

(* Execute the hit the skip stopped at: a productive pair with
   probability W/avail (served from the recorded adjacency, possibly
   through the cache), otherwise a uniformly random unknown pair, probed
   on the spot. *)
let hit t =
  let a, b = select_class_pair t in
  let cp = idx t a b in
  let w = t.wp.(cp) + t.wx.(cp) in
  let av = avail t a b in
  let target = Prng.int t.rng av in
  if target < w then begin
    let i, j = select_productive t a b target in
    match Paircache.find t.cache (pair_key i j) with
    | v when v <> Paircache.absent && v <> null_outcome ->
        apply_event t i j (outcome_fst v) (outcome_snd v)
    | _ -> invalid_arg "Count_sim: productive pair missing from cache"
  end
  else draw_unknown_and_resolve t a b

let step_event t =
  if not (is_silent t) then begin
    let skip = sample_skip t in
    t.interactions <- t.interactions + skip + 1;
    hit t
  end

let advance t ~until =
  if is_silent t then begin
    (* Every remaining interaction is null: fast-forward the clock. *)
    if t.interactions < until then t.interactions <- until;
    false
  end
  else begin
    let skip = sample_skip t in
    let next = t.interactions + skip + 1 in
    if next > until then
      (* The sampled hit lands beyond [until]. Stop the clock there and
         discard the sample: the geometric skip is memoryless, so
         resampling from [until] later is distributed identically. *)
      t.interactions <- until
    else begin
      t.interactions <- next;
      hit t
    end;
    true
  end

(* ---------- configuration access and fault injection ----------

   Agent identities are a view over the multiset: agent [i] belongs to
   its topology degree class, and holds the [r]-th state of that class's
   configuration enumerated in cell-interning order, where [r] is [i]'s
   rank among the class members (the same order [snapshot] uses). Under
   the class-uniform scheduler agents of one class are exchangeable, so
   this fixed enumeration gives [inject] and [corrupt] the same
   distributional semantics as on the agent engine. *)

let cells_in_order t a f =
  let vp = t.cell_of_slot_p.(a) and vx = t.cell_of_slot_x.(a) in
  for u = 0 to vp.len - 1 do f vp.buf.(u) done;
  (* cells that migrated into P stay in the x-list as zero-weight
     orphans: skip them, they were enumerated above *)
  for u = 0 to vx.len - 1 do
    let k = vx.buf.(u) in
    if not t.in_p.(k) then f k
  done

let owner_of_agent t i =
  if i < 0 || i >= t.n then invalid_arg "Count_sim: agent index out of range";
  let a = t.class_of_agent.(i) in
  let r = t.rank_in_class.(i) in
  let acc = ref 0 in
  let result = ref (-1) in
  (try
     cells_in_order t a (fun k ->
         acc := !acc + t.counts.(k);
         if !acc > r && !result < 0 then begin
           result := k;
           raise Exit
         end)
   with Exit -> ());
  if !result < 0 then invalid_arg "Count_sim: count accounting broke";
  !result

let state t i = t.states.(owner_of_agent t i)

let snapshot t =
  let out = Array.make t.n t.states.(0) in
  for a = 0 to t.nc - 1 do
    let mem = t.members.(a) in
    let pos = ref 0 in
    cells_in_order t a (fun k ->
        for _ = 1 to t.counts.(k) do
          out.(mem.(!pos)) <- t.states.(k);
          incr pos
        done)
  done;
  out

let replace t ~old_cell ~new_state ~cls_id =
  let k_new = intern t new_state cls_id in
  change_count t old_cell (-1);
  change_count t k_new 1

let inject t i s =
  let a = t.class_of_agent.(i) in
  let k_old = owner_of_agent t i in
  replace t ~old_cell:k_old ~new_state:s ~cls_id:a

let corrupt t ~rng ~fraction gen =
  if not (fraction >= 0.0 && fraction <= 1.0) then
    invalid_arg "Count_sim.corrupt: fraction outside [0,1]";
  let count =
    if fraction = 0.0 then 0
    else max 1 (int_of_float (Float.round (fraction *. float_of_int t.n)))
  in
  let victims = Prng.permutation rng t.n in
  (* resolve all victims against the pre-corruption configuration: the
     indices are distinct, so each removal is backed by the old multiset *)
  let before = snapshot t in
  for k = 0 to count - 1 do
    let agent = victims.(k) in
    let a = t.class_of_agent.(agent) in
    let old_cell = intern t before.(agent) a in
    replace t ~old_cell ~new_state:(gen rng) ~cls_id:a
  done;
  count

let distinct_states t =
  if t.nc = 1 then begin
    let acc = ref [] in
    for i = t.d - 1 downto 0 do
      if t.counts.(i) > 0 then acc := (t.states.(i), t.counts.(i)) :: !acc
    done;
    !acc
  end
  else begin
    (* cells of one state may exist in several classes: merge by state *)
    let equal = t.protocol.Protocol.equal in
    let acc = ref [] in
    for i = t.d - 1 downto 0 do
      if t.counts.(i) > 0 then begin
        let rec bump = function
          | [] -> [ (t.states.(i), t.counts.(i)) ]
          | (s, c) :: rest ->
              if equal s t.states.(i) then (s, c + t.counts.(i)) :: rest
              else (s, c) :: bump rest
        in
        acc := bump !acc
      end
    done;
    !acc
  end

type outcome = {
  silent : bool;
  correct : bool;
  stabilization_time : float;
  events : int;
  interactions : int;
}

let run_to_silence ?max_events t =
  let max_events = match max_events with Some m -> m | None -> 100 * t.n * t.n in
  let budget = ref max_events in
  while (not (is_silent t)) && !budget > 0 do
    step_event t;
    decr budget
  done;
  {
    silent = is_silent t;
    correct = ranking_correct t;
    stabilization_time = parallel_time t;
    events = t.events;
    interactions = t.interactions;
  }
