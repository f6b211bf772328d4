(* Fast election: Sublinear-Time-SSR with H = ⌈log₂ n⌉ — the paper's
   time-optimal Θ(log n) protocol — recovering from a hidden name
   collision, with a live timeline of what the population is doing.

   The scenario is the hardest one: two agents carry the same name and
   every roster already holds the n−1 distinct names, so the fault is
   invisible to the roster-size check and must be caught by the
   history-tree collision detection (Protocols 7–8), which then drives a
   global reset (Protocol 2) and a fresh ranking.

     dune exec examples/fast_election.exe *)

let () =
  let n = 16 in
  let h = Core.Params.h_log n in
  let params = Core.Params.sublinear ~h n in
  let protocol = Core.Sublinear.protocol ~params ~n ~h () in
  let rng = Prng.create ~seed:11 in
  let init = Core.Scenarios.sublinear_name_collision rng ~params ~n in
  let exec = Engine.Exec.make ~kind:Engine.Exec.Agent ~protocol ~init ~rng () in
  Printf.printf "n=%d agents, H=%d, T_H=%d, D_max=%d — hidden name collision planted\n\n" n h
    params.Core.Params.t_h params.Core.Params.d_max;
  let phase () =
    let resetting = ref 0 in
    Array.iter
      (function Core.Reset.Resetting _ -> incr resetting | Core.Reset.Computing _ -> ())
      (Engine.Exec.snapshot exec);
    if !resetting = 0 then
      if Engine.Exec.ranking_correct exec then "RANKED" else "collecting"
    else Printf.sprintf "resetting (%d/%d agents)" !resetting n
  in
  (* Timeline via the Instrument event layer: a collector subscribed to
     the executor samples the phase description every n/2 interactions. *)
  let collector = Engine.Instrument.collector ~interval:(n / 2) () in
  Engine.Exec.on exec (Engine.Instrument.sampled collector phase);
  let outcome =
    Engine.Runner.run_to_stability ~task:Engine.Runner.Ranking
      ~max_interactions:
        (Engine.Runner.default_horizon ~n
           ~expected_time:(float_of_int (params.Core.Params.d_max + (8 * params.Core.Params.t_h))))
      ~confirm_interactions:(Engine.Runner.default_confirm ~n)
      exec
  in
  (* Print the timeline, collapsing runs of identical phases. *)
  let previous = ref "" in
  List.iter
    (fun (t, p) ->
      if p <> !previous then begin
        Printf.printf "t=%6.1f  %s\n" t p;
        previous := p
      end)
    (Engine.Instrument.series collector);
  Printf.printf "\nstabilized in %.1f parallel time units (%d interactions, %d re-checks failed)\n"
    outcome.Engine.Runner.convergence_time outcome.Engine.Runner.total_interactions
    outcome.Engine.Runner.violations;
  let leader = Core.Leader_election.leader_indices protocol (Engine.Exec.snapshot exec) in
  Printf.printf "leader: agent %s (the lexicographically smallest fresh name)\n"
    (String.concat "," (List.map string_of_int leader))
