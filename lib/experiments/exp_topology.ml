let name = "topology"

let description = "Complete vs ring/star/regular interaction graphs: why complete is the paper's case"

(* One-bit infection as a protocol, to run the epidemic on any topology.
   The leader observation doubles as the infected-counter. *)
let infection_protocol ~n : bool Engine.Protocol.t =
  {
    Engine.Protocol.name = "infection";
    n;
    transition = (fun _ a b -> (a || b, a || b));
    deterministic = true;
    equal = Bool.equal;
    pp = Format.pp_print_bool;
    (* infected agents observe rank 1 so the leader <=> rank 1 convention
       (Protocol.validate, enforced by the count engine) holds *)
    rank = (fun b -> if b then Some 1 else None);
    is_leader = Fun.id;
  }

let epidemic_time ~topology ~rng =
  let n = Engine.Topology.size topology in
  let protocol = infection_protocol ~n in
  let init = Array.init n (fun i -> i = 0) in
  let exec = Engine.Exec.make ~topology ~kind:Engine.Exec.Agent ~protocol ~init ~rng () in
  Engine.Runner.run_while exec ~max_interactions:max_int (fun () ->
      Engine.Exec.leader_count exec < n);
  Engine.Exec.parallel_time exec

let run ~mode ~seed ~jobs =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "== Experiment TP: interaction-graph topologies ==\n\n";
  let trials = Exp_common.trials_of_mode mode ~base:20 in
  let ns = match mode with Exp_common.Quick -> [ 32 ] | Exp_common.Full -> [ 32; 64; 128 ] in
  let table = Stats.Table.create ~header:[ "n"; "topology"; "mean epidemic time"; "p95" ] in
  List.iter
    (fun n ->
      (* The graph itself is wired from a dedicated generator so that trial
         streams stay a pure function of (seed, trial index). *)
      let topologies =
        [
          Engine.Topology.complete ~n;
          Engine.Topology.random_regular (Prng.create ~seed:(seed + n)) ~n ~degree:4;
          Engine.Topology.star ~n;
          Engine.Topology.ring ~n;
        ]
      in
      List.iteri
        (fun t_idx topology ->
          let times =
            Fleet.Run.run_trials ~jobs ~trials ~seed:(seed + (17 * n) + t_idx) (fun _ rng ->
                epidemic_time ~topology ~rng)
          in
          let s = Stats.Summary.of_array times in
          Stats.Table.add_row table
            [
              string_of_int n;
              Engine.Topology.name topology;
              Stats.Table.cell_float s.Stats.Summary.mean;
              Stats.Table.cell_float s.Stats.Summary.p95;
            ])
        topologies)
    ns;
  Buffer.add_string buf "Epidemic completion per topology (complete & regular: Θ(log n); ring: Θ(n))\n";
  Buffer.add_string buf (Stats.Table.render table);
  Buffer.add_string buf "\n\n";
  (* Recovery of Optimal-Silent-SSR from a planted duplicate, per topology:
     the duplicate sits on agents at ring-distance n/2, so on the ring the
     collision is never observed. *)
  let n = match mode with Exp_common.Quick -> 24 | Exp_common.Full -> 48 in
  let params = Core.Params.optimal_silent n in
  let protocol = Core.Optimal_silent.protocol ~params ~n () in
  let table2 =
    Stats.Table.create
      ~header:[ "topology"; "trials"; "recovered"; "mean recovery time (recovered runs)" ]
  in
  List.iteri
    (fun t_idx topology ->
      let outcomes =
        Fleet.Run.run_trials ~jobs ~trials ~seed:(seed + 1 + t_idx) (fun _ rng ->
            let init = Core.Scenarios.optimal_correct ~n in
            (* duplicate agent (n/2)'s rank onto agent 0: maximally distant
               on the ring *)
            init.(0) <- init.(n / 2);
            let o =
              Engine.Runner.run_to_stability ~task:Engine.Runner.Ranking
                ~max_interactions:(2000 * n)
                ~confirm_interactions:(Engine.Runner.default_confirm ~n)
                (Engine.Exec.make ~topology ~kind:Engine.Exec.Agent ~protocol ~init ~rng ())
            in
            if o.Engine.Runner.converged then Some o.Engine.Runner.convergence_time else None)
      in
      let times = Array.to_list outcomes |> List.filter_map Fun.id in
      let recovered = List.length times in
      Stats.Table.add_row table2
        [
          Engine.Topology.name topology;
          string_of_int trials;
          Printf.sprintf "%d/%d" recovered trials;
          (if times = [] then "-"
           else Stats.Table.cell_float (Stats.Summary.of_list times).Stats.Summary.mean);
        ])
    [
      Engine.Topology.complete ~n;
      Engine.Topology.random_regular (Prng.create ~seed:(seed + 5)) ~n ~degree:4;
      Engine.Topology.ring ~n;
    ];
  Buffer.add_string buf
    (Printf.sprintf
       "Optimal-Silent-SSR with a planted duplicate at graph distance n/2 (n=%d)\n" n);
  Buffer.add_string buf (Stats.Table.render table2);
  Buffer.add_string buf
    "\n\n(whenever the two same-ranked agents are not adjacent — always on the ring,\n\
     almost surely on a sparse regular graph — they never interact, the collision\n\
     is never detected and the run stays incorrect forever: the paper's protocols\n\
     assume the complete graph, the hardest but also the honest case)\n\n";
  (* Large-n epidemics on the lazy count engine: degree-class lumping
     collapses the population to per-(state, class) counts, so the same
     epidemic runs at n = 10⁵ — two orders of magnitude past the agent
     rows above. The [exact] column is load-bearing: the star lumps
     exactly (the leaf/hub class pair is complete bipartite), so its row
     is the true law of the fixed graph; the ring and the random regular
     graph lump to a single class that is not exact, so their rows are
     the annealed (rewired-every-interaction) approximation — which is
     why the annealed ring completes in Θ(log n) while the real ring
     above needs Θ(n). *)
  let n_big = 100_000 in
  let big_trials = match mode with Exp_common.Quick -> 3 | Exp_common.Full -> 8 in
  let table3 =
    Stats.Table.create
      ~header:[ "topology"; "n"; "classes"; "exact"; "mean epidemic time"; "p95" ]
  in
  List.iteri
    (fun t_idx (tname, classes) ->
      let times =
        Fleet.Run.run_trials ~jobs ~trials:big_trials ~seed:(seed + 31 + t_idx) (fun _ rng ->
            let protocol = infection_protocol ~n:n_big in
            (* seed the infection at agent n-1 — on the star a leaf, not
               the hub, so the two-hop structure is exercised *)
            let init = Array.init n_big (fun i -> i = n_big - 1) in
            let exec =
              Engine.Exec.of_count_sim (Engine.Count_sim.make ~classes ~protocol ~init ~rng ())
            in
            Engine.Runner.run_while exec ~max_interactions:max_int (fun () ->
                Engine.Exec.leader_count exec < n_big);
            Engine.Exec.parallel_time exec)
      in
      let s = Stats.Summary.of_array times in
      Stats.Table.add_row table3
        [
          tname;
          string_of_int n_big;
          string_of_int classes.Engine.Topology.nc;
          (if classes.Engine.Topology.exact then "yes" else "no (annealed)");
          Stats.Table.cell_float s.Stats.Summary.mean;
          Stats.Table.cell_float s.Stats.Summary.p95;
        ])
    [
      ("complete", Engine.Topology.complete_classes ~n:n_big);
      ("star", Engine.Topology.degree_classes (Engine.Topology.star ~n:n_big));
      ( "random-4-regular",
        Engine.Topology.degree_classes
          (Engine.Topology.random_regular (Prng.create ~seed:(seed + 7)) ~n:n_big ~degree:4) );
      ("ring", Engine.Topology.degree_classes (Engine.Topology.ring ~n:n_big));
    ];
  Buffer.add_string buf
    (Printf.sprintf "Epidemic at n = %d on the lumped count engine\n" n_big);
  Buffer.add_string buf (Stats.Table.render table3);
  Buffer.add_string buf
    "\n\n(exact = yes: the lumped run is the fixed graph's true law. exact = no: the\n\
     annealed approximation — degree sequence honored, wiring resampled every\n\
     interaction — so the ring's Θ(n) diameter bottleneck vanishes; compare its\n\
     small-n agent-engine rows above. The count engine prints the same warning\n\
     when ssr_sim is pointed at a non-exact topology.)\n";
  Buffer.contents buf
