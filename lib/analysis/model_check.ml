(* Iterative Tarjan over the configuration graph; returns the component id
   of every node and the component count. *)
let tarjan succs =
  let n = Array.length succs in
  let index = Array.make n (-1) in
  let low = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = Stack.create () in
  let comp = Array.make n (-1) in
  let ncomp = ref 0 in
  let next_index = ref 0 in
  let visit v =
    index.(v) <- !next_index;
    low.(v) <- !next_index;
    incr next_index;
    Stack.push v stack;
    on_stack.(v) <- true
  in
  let dfs = Stack.create () in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      visit root;
      Stack.push (root, 0) dfs;
      while not (Stack.is_empty dfs) do
        let u, ci = Stack.pop dfs in
        if ci < Array.length succs.(u) then begin
          Stack.push (u, ci + 1) dfs;
          let v = succs.(u).(ci) in
          if index.(v) < 0 then begin
            visit v;
            Stack.push (v, 0) dfs
          end
          else if on_stack.(v) then low.(u) <- min low.(u) index.(v)
        end
        else begin
          if low.(u) = index.(u) then begin
            let rec pop_component () =
              let w = Stack.pop stack in
              on_stack.(w) <- false;
              comp.(w) <- !ncomp;
              if w <> u then pop_component ()
            in
            pop_component ();
            incr ncomp
          end;
          match Stack.top_opt dfs with
          | Some (parent, _) -> low.(parent) <- min low.(parent) low.(u)
          | None -> ()
        end
      done
    end
  done;
  (comp, !ncomp)

(* Weighted successors of one configuration, from the pair-outcome table.
   An interaction draws an ordered pair of distinct agents uniformly, so
   the state pair (a, b) comes up with probability w / (n(n-1)), where w
   is m_a·m_b, or m_a·(m_a - 1) for a = b; each of its outcomes then
   follows with the outcome's own probability. Returns the destination
   ids in increasing order (the configuration itself included when some
   interaction leaves it unchanged) with their summed probabilities,
   whether some interaction changes an agent's state (a swap of distinct
   states does, though it maps the multiset to itself), and the key
   misses, which mean the admissible region is not transition-closed (the
   enumeration covers every configuration over the declared states). *)
let successors ~states ~pair_rows ~key_to_id idx =
  let mults = Configs.multiplicities idx in
  let n = Array.length idx in
  let pairs = float_of_int (n * (n - 1)) in
  let out = ref [] in
  let moves = ref false in
  let misses = ref [] in
  List.iter
    (fun (a, ma) ->
      List.iter
        (fun (b, mb) ->
          let w = if a = b then ma * (ma - 1) else ma * mb in
          if w > 0 then
            List.iter
              (fun ((a', b'), p) ->
                if a' <> a || b' <> b then moves := true;
                let next = Configs.replace_pair idx ~a ~b ~a' ~b' in
                match Hashtbl.find_opt key_to_id (Configs.key ~states next) with
                | Some id' -> out := (id', float_of_int w /. pairs *. p) :: !out
                | None -> misses := next :: !misses)
              pair_rows.(a).(b))
        mults)
    mults;
  (Relation.sum_by_key (List.rev !out), !moves, !misses)

(* Budget gate, separated from the check so the driver can decide whether
   the shared pair-outcome relation ({!Relation}) must retain its Θ(s²)
   index table before running the scan. *)
let gate ~max_configs (e : _ Engine.Enumerable.t) space =
  let n = e.Engine.Enumerable.protocol.Engine.Protocol.n in
  let s = Statespace.size space in
  match Configs.count ~states:s ~n with
  | None ->
      `Skip
        (Report.skip ~reason:(Printf.sprintf "configuration count overflows (%d states)" s)
           "model-check")
  | Some unrestricted when unrestricted > max_configs || not (Configs.keyable ~states:s ~n) ->
      `Skip
        (Report.skip
           ~reason:
             (Printf.sprintf "%d configurations exceed budget %d (raise with --max-configs)"
                unrestricted max_configs)
           "model-check")
  | Some _ -> `Run

type 'a chain = {
  n : int;
  space : 'a Statespace.t;
  configs : int array array;  (* sorted state indices, in Configs.iter order *)
  key_to_id : (int, int) Hashtbl.t;
  correct : bool array;
  moves : bool array;  (* some interaction changes an agent's state *)
  verdict : Report.stage;
  times : float array Lazy.t;  (* expected interactions to the target set *)
}

let max_sweeps = 10_000

(* Expected interactions to reach the target set: x = 0 on it, and
   x_c = (1 + Σ_{c' ≠ c} P(c, c')·x_c') / (1 - P(c, c)) elsewhere — the
   system (I - Q)x = 1 — by Gauss–Seidel sweeps. Tarjan numbers the
   components in reverse topological order, so sweeping by increasing
   component visits successors first and the acyclic part of the chain
   is exact after one sweep. Stops once every row's residual is below
   1e-13·max(1, |x|∞), which bounds the relative error by about
   1e-13·max(1, |x|∞) since |(I - Q)^-1|∞ = |x|∞; raises past
   [max_sweeps] rather than return a value whose residual is above the
   bound. Every non-target configuration must reach the target, which a
   passing verdict guarantees. *)
let solve ~succ ~prob ~comp ~target =
  let total = Array.length succ in
  let rows =
    List.init total Fun.id
    |> List.filter (fun id -> not target.(id))
    |> List.stable_sort (fun u v -> compare comp.(u) comp.(v))
    |> Array.of_list
  in
  let x = Array.make total 0.0 in
  (* 1 + Σ_{c' ≠ c} P(c, c')·x_c' *)
  let gather id =
    let succ = succ.(id) and prob = prob.(id) in
    let acc = ref 1.0 in
    Array.iteri (fun k v -> if v <> id then acc := !acc +. (prob.(k) *. x.(v))) succ;
    !acc
  in
  (* 1 - P(c, c), summed from the escaping edges for accuracy *)
  let escape =
    Array.map
      (fun id ->
        let mass = ref 0.0 in
        Array.iteri (fun k v -> if v <> id then mass := !mass +. prob.(id).(k)) succ.(id);
        !mass)
      rows
  in
  let rec sweep k =
    if k > max_sweeps then
      failwith (Printf.sprintf "Model_check: hitting times did not converge in %d sweeps" max_sweeps);
    Array.iteri (fun i id -> x.(id) <- gather id /. escape.(i)) rows;
    let scale = Array.fold_left Float.max 1.0 x in
    let residual = ref 0.0 in
    Array.iteri
      (fun i id -> residual := Float.max !residual (Float.abs (gather id -. (escape.(i) *. x.(id)))))
      rows;
    if !residual > 1e-13 *. scale then sweep (k + 1)
  in
  sweep 1;
  x

(* The weighted chain and its verdict, from an already scanned relation;
   [Error stage] when the chain cannot be built. The hitting times are
   solved on their first query, so [check] never pays for them. *)
let build ~pool ~relation (e : _ Engine.Enumerable.t) space =
  let p = e.Engine.Enumerable.protocol in
  let n = p.Engine.Protocol.n in
  let s = Statespace.size space in
  (* The pair-outcome table comes from the shared relation scan. An escape
     from the declared space is closure's to report in detail, but model
     checking is only sound without it, so bail out. *)
  match (Relation.escape_pair relation, Relation.tables relation) with
  | Some pair, _ ->
      Error
        (Report.finish
           ~findings:[ "state-space escape at " ^ pair ^ " (see closure stage)" ]
           ~total:1 "model-check")
  | None, None -> invalid_arg "Model_check.check: relation was scanned without keep_tables"
  | None, Some pair_rows -> begin
      (* Enumerate admissible configurations and intern them by key. *)
      let rev_configs = ref [] and count = ref 0 in
      let key_to_id = Hashtbl.create 1024 in
      Configs.iter ~states:s ~n (fun idx ->
          let config = Array.map (Statespace.state space) idx in
          if e.Engine.Enumerable.admissible config then begin
            let idx = Array.copy idx in
            Hashtbl.replace key_to_id (Configs.key ~states:s idx) !count;
            rev_configs := idx :: !rev_configs;
            incr count
          end);
      let configs = Array.of_list (List.rev !rev_configs) in
      let total = Array.length configs in
      let materialize id = Array.map (Statespace.state space) configs.(id) in
      let pp_cfg id = Format.asprintf "%a" (Silence_scan.pp_config p) (materialize id) in
      let correct =
        Engine.Pool.init pool total (fun id -> e.Engine.Enumerable.correct (materialize id))
      in
      let succ_results =
        Engine.Pool.init pool total (fun id ->
            successors ~states:s ~pair_rows ~key_to_id configs.(id))
      in
      let succ = Array.map (fun (out, _, _) -> Array.of_list (List.map fst out)) succ_results in
      let prob = Array.map (fun (out, _, _) -> Array.of_list (List.map snd out)) succ_results in
      let moves = Array.map (fun (_, moves, _) -> moves) succ_results in
      let inadmissible = Array.to_list succ_results |> List.concat_map (fun (_, _, m) -> m) in
      if inadmissible <> [] then
        Error
          (Report.finish
             ~metrics:[ ("configs", string_of_int total) ]
             ~findings:
               [
                 Printf.sprintf
                   "admissible region is not transition-closed (%d escaping edges), e.g. -> %s"
                   (List.length inadmissible)
                   (Format.asprintf "%a" (Silence_scan.pp_config p)
                      (Array.map (Statespace.state space) (List.hd inadmissible)));
               ]
             ~total:1 "model-check")
      else begin
        let comp, ncomp = tarjan succ in
        let bottom = Array.make ncomp true in
        let comp_size = Array.make ncomp 0 in
        let comp_correct = Array.make ncomp false in
        Array.iteri
          (fun u vs ->
            comp_size.(comp.(u)) <- comp_size.(comp.(u)) + 1;
            if correct.(u) then comp_correct.(comp.(u)) <- true;
            Array.iter (fun v -> if comp.(v) <> comp.(u) then bottom.(comp.(u)) <- false) vs)
          succ;
        let bottom_count = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 bottom in
        let findings = ref [] and total_findings = ref 0 in
        let record msg =
          incr total_findings;
          if List.length !findings < Report.max_findings then findings := msg () :: !findings
        in
        let reported = Array.make ncomp false in
        Array.iteri
          (fun u _ ->
            let c = comp.(u) in
            if bottom.(c) then
              match e.Engine.Enumerable.expectation with
              | Engine.Enumerable.Silent_stabilizing ->
                  (* a larger bottom SCC keeps moving forever; a singleton
                     one is silent unless some interaction changes agents'
                     states without changing the multiset (a swap) *)
                  if comp_size.(c) > 1 then begin
                    if not reported.(c) then begin
                      reported.(c) <- true;
                      record (fun () ->
                          Printf.sprintf "bottom SCC of %d configurations is not silent, e.g. %s"
                            comp_size.(c) (pp_cfg u))
                    end
                  end
                  else if moves.(u) then
                    record (fun () ->
                        "bottom configuration is not silent (an interaction swaps states): "
                        ^ pp_cfg u)
                  else if not correct.(u) then
                    record (fun () -> "silent bottom configuration is incorrect: " ^ pp_cfg u)
              | Engine.Enumerable.Stabilizing ->
                  if not correct.(u) then
                    record (fun () -> "incorrect configuration recurs forever: " ^ pp_cfg u)
              | Engine.Enumerable.Loosely_stabilizing ->
                  if (not comp_correct.(c)) && not reported.(c) then begin
                    reported.(c) <- true;
                    record (fun () ->
                        Printf.sprintf "bottom SCC of %d configurations never correct, e.g. %s"
                          comp_size.(c) (pp_cfg u))
                  end)
          succ;
        let correct_count = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 correct in
        let verdict =
          Report.finish
            ~metrics:
              [
                ("configs", string_of_int total);
                ("sccs", string_of_int ncomp);
                ("bottom", string_of_int bottom_count);
                ("correct", string_of_int correct_count);
              ]
            ~findings:(List.rev !findings) ~total:!total_findings "model-check"
        in
        (* the target: correct configurations of bottom SCCs — for a
           silent protocol, the silent correct ones *)
        let target = Array.mapi (fun id ok -> ok && bottom.(comp.(id))) correct in
        Ok
          {
            n;
            space;
            configs;
            key_to_id;
            correct;
            moves;
            verdict;
            times = lazy (solve ~succ ~prob ~comp ~target);
          }
      end
    end

let check ~pool ~relation e space =
  match build ~pool ~relation e space with Error stage -> stage | Ok chain -> chain.verdict

let chain ~pool (e : _ Engine.Enumerable.t) =
  let space = Statespace.of_enumerable e in
  let relation = Relation.scan ~pool ~keep_tables:true e space in
  match build ~pool ~relation e space with
  | Error stage -> failwith ("Model_check.chain: " ^ String.concat "; " stage.Report.findings)
  | Ok chain -> chain

let configurations t = Array.length t.configs

let absorbing_ids t = List.filter (fun id -> not t.moves.(id)) (List.init (configurations t) Fun.id)

let absorbing t = List.length (absorbing_ids t)

let all_absorbing_correct t = List.for_all (fun id -> t.correct.(id)) (absorbing_ids t)

(* A failed verdict (a bottom SCC without a correct configuration) keeps
   the solver away: some configuration never reaches the target. *)
let times t =
  if t.verdict.Report.status = Report.Fail then
    failwith ("Model_check: no hitting times: " ^ String.concat "; " t.verdict.Report.findings);
  Lazy.force t.times

let expected_time t config =
  if Array.length config <> t.n then
    invalid_arg "Model_check.expected_time: configuration size differs from n";
  let idx =
    Array.map
      (fun st ->
        let i = Statespace.index t.space st in
        if i < 0 then invalid_arg "Model_check.expected_time: undeclared state";
        i)
      config
  in
  Array.sort compare idx;
  match Hashtbl.find_opt t.key_to_id (Configs.key ~states:(Statespace.size t.space) idx) with
  | Some id -> (times t).(id) /. float_of_int t.n
  | None -> invalid_arg "Model_check.expected_time: inadmissible configuration"

(* The first configuration in enumeration order within relative 1e-9 of the
   maximum, so that exact ties (symmetric configurations) do not hang on
   the solve's last bits. *)
let worst_expected_time t =
  let x = times t in
  let worst = Array.fold_left Float.max 0.0 x in
  let rec first id = if worst -. x.(id) <= 1e-9 *. worst then id else first (id + 1) in
  let id = first 0 in
  (x.(id) /. float_of_int t.n, Array.map (Statespace.state t.space) t.configs.(id))

let mean_expected_time t =
  let x = times t in
  Array.fold_left ( +. ) 0.0 x /. float_of_int (Array.length x) /. float_of_int t.n
