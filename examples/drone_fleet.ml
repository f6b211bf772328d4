(* Drone fleet coordination: composing computation on top of ranking.

   Self-stabilizing protocols compose with later computation (paper,
   Section 1: "a self-stabilizing protocol S can be composed with a prior
   computation P"). Here the composition runs the other way round, the way
   the paper motivates ranking: once Optimal-Silent-SSR has ranked the
   fleet, the ranks form a full binary tree (rank r's parent is r/2), and
   that tree is a ready-made aggregation overlay. Each drone reports its
   battery level; minima flow up the tree to the leader (rank 1) whenever
   tree-adjacent drones happen to interact — still with no scheduler
   control whatsoever.

   The example also crashes the leader mid-flight (a transient fault that
   hands it an arbitrary corrupted state) and shows the fleet re-ranks and
   the aggregation heals.

     dune exec examples/drone_fleet.exe *)

(* Composed state: the ranking protocol's state plus the aggregation
   overlay (own battery, best-known minimum of the subtree). *)
type drone = {
  ranking : Core.Optimal_silent.state;
  battery : int;  (** percent, static for the demo *)
  subtree_min : int;  (** min battery seen in this drone's rank-subtree *)
}

let composed_protocol ~params ~n : drone Engine.Protocol.t =
  let inner = Core.Optimal_silent.protocol ~params ~n () in
  let transition rng a b =
    let ra, rb = inner.Engine.Protocol.transition rng a.ranking b.ranking in
    let a = { a with ranking = ra } and b = { b with ranking = rb } in
    (* Aggregation overlay: when child meets parent (by current ranks),
       the parent absorbs the child's subtree minimum. A reset clears the
       overlay implicitly because ranks disappear while Resetting. *)
    let aggregate x y =
      match (inner.Engine.Protocol.rank x.ranking, inner.Engine.Protocol.rank y.ranking) with
      | Some rx, Some ry when ry >= 2 && ry / 2 = rx ->
          ({ x with subtree_min = min x.subtree_min y.subtree_min }, y)
      | _ -> (x, y)
    in
    let a, b = aggregate a b in
    let b, a = aggregate b a in
    (* own battery is always part of one's subtree *)
    let refresh d = { d with subtree_min = min d.battery d.subtree_min } in
    (refresh a, refresh b)
  in
  {
    Engine.Protocol.name = "drone-fleet (ranking + battery aggregation)";
    n;
    transition;
    deterministic = inner.Engine.Protocol.deterministic;
    equal = (fun x y -> inner.Engine.Protocol.equal x.ranking y.ranking
                        && x.battery = y.battery && x.subtree_min = y.subtree_min);
    pp = (fun fmt d -> Format.fprintf fmt "%a bat=%d min=%d" inner.Engine.Protocol.pp d.ranking d.battery d.subtree_min);
    rank = (fun d -> inner.Engine.Protocol.rank d.ranking);
    is_leader = (fun d -> inner.Engine.Protocol.is_leader d.ranking);
  }

let () =
  let n = 31 in
  (* a full binary tree: 31 = 2^5 - 1 *)
  let params = Core.Params.optimal_silent n in
  let protocol = composed_protocol ~params ~n in
  let rng = Prng.create ~seed:2024 in
  let batteries = Array.init n (fun _ -> 20 + Prng.int rng 80) in
  let init =
    let ranking = Core.Scenarios.optimal_uniform rng ~params ~n in
    Array.init n (fun i -> { ranking = ranking.(i); battery = batteries.(i); subtree_min = batteries.(i) })
  in
  let exec = Engine.Exec.make ~kind:Engine.Exec.Agent ~protocol ~init ~rng () in
  let stabilize label =
    let start = Engine.Exec.parallel_time exec in
    let o =
      Engine.Runner.run_to_stability ~task:Engine.Runner.Ranking
        ~max_interactions:
          (Engine.Exec.interactions exec
          + Engine.Runner.default_horizon ~n ~expected_time:(float_of_int (20 * n)))
        ~confirm_interactions:(Engine.Runner.default_confirm ~n)
        exec
    in
    Printf.printf "%s: ranked fleet after %.1f time units\n" label
      (o.Engine.Runner.convergence_time -. start)
  in
  (* Let the aggregation overlay flow for a while (tree depth ~5 hops). *)
  let fly () =
    Engine.Runner.run_while exec
      ~max_interactions:(Engine.Exec.interactions exec + (40 * n * 5))
      (fun () -> true)
  in
  stabilize "deployment";
  fly ();
  let leader_view () =
    let snapshot = Engine.Exec.snapshot exec in
    let leader = List.hd (Core.Leader_election.leader_indices protocol snapshot) in
    (leader, snapshot.(leader).subtree_min)
  in
  let fleet_min = Array.fold_left min max_int batteries in
  let leader, seen = leader_view () in
  Printf.printf "leader (drone %d) reports fleet minimum battery %d%% (ground truth %d%%)\n"
    leader seen fleet_min;
  (* Crash the leader: it reboots with blank, starving memory, which the
     fleet can only discover through the protocol itself. *)
  Engine.Exec.inject exec leader
    { (Engine.Exec.state exec leader) with
      ranking = Core.Optimal_silent.unsettled ~errorcount:0 };
  Printf.printf "\n!! leader drone %d suffered a memory fault\n" leader;
  stabilize "recovery";
  fly ();
  let leader', seen' = leader_view () in
  Printf.printf "new leader (drone %d) reports fleet minimum battery %d%% (ground truth %d%%)\n"
    leader' seen' fleet_min
