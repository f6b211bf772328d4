let name = "loose"

let description = "Loosely-stabilizing leader election: convergence with only an upper bound, finite holding time"

let converge_from ~protocol ~init ~rng ~horizon =
  let exec = Engine.Exec.make ~kind:Engine.Exec.Agent ~protocol ~init ~rng () in
  Engine.Runner.run_while exec ~max_interactions:horizon (fun () ->
      not (Engine.Exec.leader_correct exec));
  (exec, Engine.Exec.leader_correct exec, Engine.Exec.parallel_time exec)

(* Holding time: from a converged single-leader configuration, parallel
   time until the leader count leaves 1. Capped. *)
let holding_time exec ~cap =
  let start = Engine.Exec.interactions exec in
  Engine.Runner.run_while exec ~max_interactions:(start + cap) (fun () ->
      Engine.Exec.leader_correct exec);
  let held = Engine.Exec.interactions exec - start in
  (float_of_int held /. float_of_int (Engine.Exec.n exec), held >= cap)

let run ~mode ~seed ~jobs =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "== Experiment LS: loose stabilization ==\n\n";
  let trials = Exp_common.trials_of_mode mode ~base:15 in
  (* One transition table (fixed t_max from the upper bound N) reused for
     several population sizes n <= N. *)
  let upper_bound = 64 in
  let t_max = 4 * upper_bound in
  let table =
    Stats.Table.create ~header:[ "n (N=64 fixed)"; "scenario"; "trials"; "mean convergence"; "p95"; "fail" ]
  in
  List.iter
    (fun n ->
      let protocol = Core.Loose.protocol ~n ~t_max in
      List.iter
        (fun (scenario, make_init) ->
          let outcomes =
            Fleet.Run.run_trials ~jobs ~trials ~seed (fun _ rng ->
                let _, ok, time =
                  converge_from ~protocol ~init:(make_init rng) ~rng ~horizon:(100 * t_max * n)
                in
                if ok then Some time else None)
          in
          let times = Array.to_list outcomes |> List.filter_map Fun.id in
          let failures = trials - List.length times in
          let row =
            if times = [] then
              [ string_of_int n; scenario; string_of_int trials; "-"; "-"; string_of_int failures ]
            else begin
              let s = Stats.Summary.of_list times in
              [
                string_of_int n;
                scenario;
                string_of_int trials;
                Stats.Table.cell_float s.Stats.Summary.mean;
                Stats.Table.cell_float s.Stats.Summary.p95;
                string_of_int failures;
              ]
            end
          in
          Stats.Table.add_row table row)
        [
          ("all-followers", fun _ -> Core.Loose.all_followers ~n ~t_max);
          ("uniform", fun rng -> Core.Loose.uniform rng ~n ~t_max);
        ])
    (match mode with Exp_common.Quick -> [ 16; 64 ] | Exp_common.Full -> [ 16; 32; 64 ]);
  Buffer.add_string buf
    "Convergence with one transition table (t_max from N=64) across population sizes\n";
  Buffer.add_string buf (Stats.Table.render table);
  Buffer.add_string buf "\n\n";
  (* Holding time vs T_max. *)
  let n = 32 in
  let cap_time = match mode with Exp_common.Quick -> 20_000 | Exp_common.Full -> 200_000 in
  let cap = cap_time * n in
  let table2 =
    Stats.Table.create
      ~header:[ "T_max"; "trials"; "mean holding time"; "min"; "hit cap"; Printf.sprintf "(cap %d)" cap_time ]
  in
  List.iter
    (fun factor ->
      let t_max = factor * Core.Params.ceil_ln n in
      let protocol = Core.Loose.protocol ~n ~t_max in
      let outcomes =
        Fleet.Run.run_trials ~jobs ~trials ~seed:(seed + 1) (fun _ rng ->
            let exec, ok, _ =
              converge_from ~protocol ~init:(Core.Loose.uniform rng ~n ~t_max) ~rng
                ~horizon:(100 * t_max * n)
            in
            if ok then Some (holding_time exec ~cap) else None)
      in
      let held = Array.to_list outcomes |> List.filter_map Fun.id in
      let capped = List.length (List.filter snd held) in
      let s = Stats.Summary.of_list (List.map fst held) in
      Stats.Table.add_row table2
        [
          Printf.sprintf "%d·ln n (%d)" factor t_max;
          string_of_int trials;
          Stats.Table.cell_float s.Stats.Summary.mean;
          Stats.Table.cell_float s.Stats.Summary.min;
          string_of_int capped;
          "";
        ])
    [ 2; 3; 4; 6; 10 ];
  Buffer.add_string buf (Printf.sprintf "Holding time vs T_max at n=%d\n" n);
  Buffer.add_string buf (Stats.Table.render table2);
  Buffer.add_string buf
    "\n\n(holding time explodes with T_max: loose stabilization trades the exact-n\n\
     requirement of SSLE for a finite — but tunable — holding horizon)\n";
  Buffer.contents buf
