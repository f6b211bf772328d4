let name = "reset"

let description = "Section 3: Propagate-Reset completes in O(log n) parallel time"

(* A protocol that is nothing but Propagate-Reset: computing agents do
   nothing; the payload is unit; awakening bumps a per-run counter so we
   can verify every agent resets exactly once per wave. *)
let reset_only_protocol ~n ~r_max ~d_max ~awake_counter : (unit, unit) Core.Reset.role Engine.Protocol.t =
  let spec =
    {
      Core.Reset.r_max;
      d_max;
      recruit_payload = (fun _ -> ());
      propagating_tick = (fun _ () -> ());
      dormant_tick = (fun _ () -> ());
      resetting_pair = (fun _ () () -> ((), ()));
      awaken =
        (fun _ () ->
          incr awake_counter;
          ());
    }
  in
  let transition rng a b =
    match (a, b) with
    | Core.Reset.Computing (), Core.Reset.Computing () -> (a, b)
    | _ -> Core.Reset.step ~spec rng a b
  in
  {
    Engine.Protocol.name = "Propagate-Reset-only";
    n;
    transition;
    deterministic = true;
    equal = ( = );
    pp =
      (fun fmt s ->
        Core.Reset.pp_role
          (fun f () -> Format.pp_print_string f "·")
          (fun f () -> Format.pp_print_string f "·")
          fmt s);
    rank = (fun _ -> None);
    is_leader = (fun _ -> false);
  }

let all_computing exec =
  let n = Engine.Exec.n exec in
  let rec check i =
    i >= n
    ||
    match Engine.Exec.state exec i with
    | Core.Reset.Computing () -> check (i + 1)
    | Core.Reset.Resetting _ -> false
  in
  check 0

let run ~mode ~seed ~jobs =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "== Experiment RS: Propagate-Reset ==\n\n";
  let trials = Exp_common.trials_of_mode mode ~base:30 in
  let ns =
    match mode with
    | Exp_common.Quick -> [ 16; 64; 256 ]
    | Exp_common.Full -> [ 16; 32; 64; 128; 256; 512; 1024 ]
  in
  let scenario_table scenario_name make_init =
    let table =
      Stats.Table.create
        ~header:[ "n"; "trials"; "mean time"; "p95"; "resets/agent mean"; "resets/agent max" ]
    in
    let points =
      List.map
        (fun n ->
          let r_max = max 6 (4 * Core.Params.ceil_ln n) in
          let d_max = 8 * Core.Params.ceil_ln n in
          (* The awake counter lives inside the trial: each parallel trial
             wraps its own protocol record around its own counter. *)
          let samples =
            Fleet.Run.run_trials ~jobs ~trials ~seed (fun _ rng ->
                let awake_counter = ref 0 in
                let protocol = reset_only_protocol ~n ~r_max ~d_max ~awake_counter in
                let init = make_init rng ~n ~r_max ~d_max in
                let exec = Engine.Exec.make ~kind:Engine.Exec.Agent ~protocol ~init ~rng () in
                let horizon = 200 * n * max 1 (Core.Params.ceil_ln n) in
                Engine.Runner.run_while exec ~max_interactions:horizon (fun () ->
                    not (all_computing exec));
                (Engine.Exec.parallel_time exec, float_of_int !awake_counter /. float_of_int n))
          in
          let t = Stats.Summary.of_array (Array.map fst samples) in
          let r = Stats.Summary.of_array (Array.map snd samples) in
          Stats.Table.add_row table
            [
              string_of_int n;
              string_of_int trials;
              Stats.Table.cell_float t.Stats.Summary.mean;
              Stats.Table.cell_float t.Stats.Summary.p95;
              Stats.Table.cell_float r.Stats.Summary.mean;
              Stats.Table.cell_float r.Stats.Summary.max;
            ];
          (n, t.Stats.Summary.mean))
        ns
    in
    Buffer.add_string buf (scenario_name ^ "\n");
    Buffer.add_string buf (Stats.Table.render table);
    let fit =
      Stats.Regression.semilog_x (List.map (fun (n, t) -> (float_of_int n, t)) points)
    in
    Buffer.add_string buf
      (Printf.sprintf "\ntime vs ln n: slope=%.3f, r2=%.4f (paper: Θ(log n))\n\n"
         fit.Stats.Regression.slope fit.Stats.Regression.r2)
  in
  scenario_table "Single triggered agent among computing agents" (fun _rng ~n ~r_max ~d_max ->
      Array.init n (fun i ->
          if i = 0 then
            Core.Reset.Resetting { Core.Reset.resetcount = r_max; delaytimer = d_max; payload = () }
          else Core.Reset.Computing ()));
  scenario_table "Adversarial: every agent in a random Resetting state" (fun rng ~n ~r_max ~d_max ->
      Array.init n (fun _ ->
          Core.Reset.Resetting
            {
              Core.Reset.resetcount = Prng.int rng (r_max + 1);
              delaytimer = Prng.int rng (d_max + 1);
              payload = ();
            }));
  Buffer.contents buf
