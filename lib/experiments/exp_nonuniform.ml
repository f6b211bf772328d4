let name = "nonuniform"

let description = "Theorem 2.1: size-n1 transitions inside a size-n2 population break stability"

(* Silent-n-state transitions compiled for n1, but installed in a protocol
   record driving n2 agents: exactly what a uniform protocol would do. *)
let mismatched_protocol ~n1 ~n2 : Core.Silent_n_state.state Engine.Protocol.t =
  let p1 = Core.Silent_n_state.protocol ~n:n1 in
  { p1 with Engine.Protocol.n = n2; name = Printf.sprintf "Silent-%d-state in n=%d" n1 n2 }

let run ~mode ~seed ~jobs =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "== Experiment TH2.1: strong nonuniformity ==\n\n";
  let trials = Exp_common.trials_of_mode mode ~base:30 in
  let pairs =
    match mode with
    | Exp_common.Quick -> [ (8, 12); (16, 24); (32, 48) ]
    | Exp_common.Full -> [ (8, 12); (16, 24); (32, 48); (64, 96); (64, 128) ]
  in
  let table =
    Stats.Table.create
      ~header:
        [ "n1"; "n2"; "trials"; "mean time to 2nd leader"; "p95"; "frac time 1 leader (long run)" ]
  in
  List.iter
    (fun (n1, n2) ->
      let protocol = mismatched_protocol ~n1 ~n2 in
      let samples =
        Fleet.Run.run_trials ~jobs ~trials ~seed (fun _ rng ->
            (* n2 agents, ranks within 0..n1-1, exactly one at rank 0: a
               single-leader configuration that would be stable at size n1.
               The surplus agents duplicate ranks in the top half, so the
               mod-n1 wrap-around that mints the second leader is reached
               within the measurement window even for larger n1. *)
            let lo = n1 / 2 in
            let init =
              Array.init n2 (fun i ->
                  Core.Silent_n_state.state_of_rank0 ~n:n1
                    (if i = 0 then 0 else lo + ((i - 1) mod (n1 - lo))))
            in
            let exec = Engine.Exec.make ~kind:Engine.Exec.Agent ~protocol ~init ~rng () in
            let horizon = 200 * n2 in
            Engine.Runner.run_while exec ~max_interactions:horizon (fun () ->
                Engine.Exec.leader_count exec < 2);
            let to_second = Engine.Exec.parallel_time exec in
            (* Long-run single-leader occupancy over a further window,
               sampled after every interaction. *)
            let window = 100 * n2 in
            let good = ref 0 in
            Engine.Exec.on exec (function
              | Engine.Instrument.Step _ -> if Engine.Exec.leader_correct exec then incr good
              | _ -> ());
            Engine.Runner.run_while exec
              ~max_interactions:(Engine.Exec.interactions exec + window)
              (fun () -> true);
            (to_second, float_of_int !good /. float_of_int window))
      in
      let t = Stats.Summary.of_array (Array.map fst samples) in
      let f = Stats.Summary.of_array (Array.map snd samples) in
      Stats.Table.add_row table
        [
          string_of_int n1;
          string_of_int n2;
          string_of_int trials;
          Stats.Table.cell_float t.Stats.Summary.mean;
          Stats.Table.cell_float t.Stats.Summary.p95;
          Stats.Table.cell_float f.Stats.Summary.mean;
        ])
    pairs;
  Buffer.add_string buf (Stats.Table.render table);
  Buffer.add_string buf
    "\n\n(a second leader always appears, and the single-leader fraction stays < 1:\n\
     the size-n1 protocol cannot stabilize at size n2, exactly as Theorem 2.1 forces)\n";
  Buffer.contents buf
