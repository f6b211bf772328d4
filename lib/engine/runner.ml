type task = Ranking | Leader

type outcome = {
  converged : bool;
  convergence_interactions : int;
  convergence_time : float;
  total_interactions : int;
  violations : int;
}

let is_correct ~task exec =
  match task with
  | Ranking -> Exec.ranking_correct exec
  | Leader -> Exec.leader_correct exec

let run_while (type a) ((module E : Exec.INSTANCE with type state = a) : a Exec.t)
    ~max_interactions continue =
  while E.interactions () < max_interactions && continue () && E.advance ~until:max_interactions do
    ()
  done

let ceil_log2 n =
  let rec loop p k = if p >= n then k else loop (p * 2) (k + 1) in
  loop 1 0

let default_confirm ~n = max (8 * n) (4 * n * max 1 (ceil_log2 n))

let default_horizon ~n ~expected_time =
  let budget = 20.0 *. expected_time *. float_of_int n in
  let confirm = default_confirm ~n in
  if budget >= Float.of_int max_int || int_of_float budget > max_int - confirm then max_int
  else max (1000 * n) (int_of_float budget + confirm)

let run_to_stability (type a) ?(silence_oracle = true) ~task ~max_interactions
    ~confirm_interactions ((module E : Exec.INSTANCE with type state = a) as exec : a Exec.t)
    =
  let n = Exec.n exec in
  let entered_at = ref None in
  let violations = ref 0 in
  (* Mirrors the engine's interaction counter; refreshed after each
     [advance] so the (hot) loop conditions read a local instead of
     calling back into the executor. *)
  let interactions = ref (E.interactions ()) in
  (* Earliest point where the run could end: the end of the confirmation
     window once correctness has been entered, the horizon otherwise.
     Caps the count engine's clock fast-forward; cached here and updated
     only on correctness transitions to keep it off the hot loop. *)
  let deadline = ref max_interactions in
  let observe () =
    let correct =
      match task with Ranking -> E.ranking_correct () | Leader -> E.leader_correct ()
    in
    match !entered_at with
    | None when correct ->
        let at = !interactions in
        entered_at := Some at;
        deadline := min max_interactions (at + confirm_interactions);
        E.emit (Instrument.Correct_entered { interactions = at; time = E.parallel_time () })
    | Some _ when not correct ->
        entered_at := None;
        deadline := max_interactions;
        incr violations;
        E.emit
          (Instrument.Correct_lost
             { interactions = !interactions; time = E.parallel_time () })
    | None | Some _ -> ()
  in
  let finished () =
    match !entered_at with
    | None -> false
    | Some t0 -> !interactions - t0 >= confirm_interactions
  in
  let stopped_silent = ref false in
  (* The initial configuration may already be correct; routing the check
     through [observe] publishes the entry on the event stream too. *)
  observe ();
  while
    (not !stopped_silent) && (not (finished ())) && !interactions < max_interactions
  do
    (* The oracle is re-consulted every iteration (an O(1) counter read):
       on the lazy count engine it is not a static capability — it answers
       [None] until silence becomes provable and [Some true] after. *)
    if silence_oracle && (match E.silent () with Some true -> true | _ -> false) then
      (* Exact-silence shortcut: no transition is ever applicable again, so
         the current correctness status is final — the confirmation window
         (W = 0 means it would pass vacuously) is skipped. *)
      stopped_silent := true
    else begin
      let (_ : bool) = E.advance ~until:!deadline in
      interactions := E.interactions ();
      observe ()
    end
  done;
  let converged = finished () || (!stopped_silent && !entered_at <> None) in
  let total_interactions = !interactions in
  (* When converged: the final entry into correctness. When not converged:
     the pending (unconfirmed) entry if the run ended while correct, else
     the full horizon — so that treating it as a censored observation is
     conservative. *)
  let convergence_interactions =
    match !entered_at with Some t0 -> t0 | None -> total_interactions
  in
  {
    converged;
    convergence_interactions;
    convergence_time = float_of_int convergence_interactions /. float_of_int n;
    total_interactions;
    violations = !violations;
  }
