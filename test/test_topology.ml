(* Tests for interaction-graph topologies and the custom-scheduler engine. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_complete () =
  let t = Engine.Topology.complete ~n:6 in
  check_int "edges" 15 (Engine.Topology.edge_count t);
  check_int "degree" 5 (Engine.Topology.degree t 3);
  check_bool "connected" true (Engine.Topology.is_connected t)

let test_ring () =
  let t = Engine.Topology.ring ~n:7 in
  check_int "edges" 7 (Engine.Topology.edge_count t);
  for i = 0 to 6 do
    check_int "degree 2" 2 (Engine.Topology.degree t i)
  done;
  check_bool "connected" true (Engine.Topology.is_connected t)

let test_star () =
  let t = Engine.Topology.star ~n:9 in
  check_int "edges" 8 (Engine.Topology.edge_count t);
  check_int "hub degree" 8 (Engine.Topology.degree t 0);
  check_int "leaf degree" 1 (Engine.Topology.degree t 5);
  check_bool "connected" true (Engine.Topology.is_connected t)

let test_random_regular () =
  let rng = Prng.create ~seed:11 in
  let t = Engine.Topology.random_regular rng ~n:20 ~degree:4 in
  check_int "edges = n·d/2" 40 (Engine.Topology.edge_count t);
  for i = 0 to 19 do
    check_int "regular" 4 (Engine.Topology.degree t i)
  done;
  check_bool "connected" true (Engine.Topology.is_connected t)

let test_random_regular_rejects_odd () =
  let rng = Prng.create ~seed:12 in
  Alcotest.check_raises "odd degree"
    (Invalid_argument "Topology.random_regular: degree must be even and >= 2") (fun () ->
      ignore (Engine.Topology.random_regular rng ~n:10 ~degree:3))

let test_sampler_valid () =
  let rng = Prng.create ~seed:13 in
  let t = Engine.Topology.ring ~n:8 in
  for _ = 1 to 2000 do
    let p = Engine.Topology.sampler t rng in
    let i = Prng.pair_fst p and j = Prng.pair_snd p in
    check_bool "edge of the ring" true
      (i <> j && (abs (i - j) = 1 || abs (i - j) = 7))
  done

let test_sampler_orientation_fair () =
  let rng = Prng.create ~seed:14 in
  let t = Engine.Topology.star ~n:4 in
  let hub_first = ref 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    if Prng.pair_fst (Engine.Topology.sampler t rng) = 0 then incr hub_first
  done;
  check_bool "orientation roughly fair" true (abs (!hub_first - (trials / 2)) < trials / 10)

let test_complete_sampler_matches_uniform () =
  (* On the complete topology the edge sampler is the paper's scheduler:
     all ordered pairs roughly equally likely. *)
  let rng = Prng.create ~seed:15 in
  let n = 4 in
  let t = Engine.Topology.complete ~n in
  let counts = Hashtbl.create 16 in
  let trials = 60_000 in
  for _ = 1 to trials do
    let p = Engine.Topology.sampler t rng in
    Hashtbl.replace counts p (1 + Option.value ~default:0 (Hashtbl.find_opt counts p))
  done;
  check_int "all ordered pairs occur" (n * (n - 1)) (Hashtbl.length counts);
  let expected = trials / (n * (n - 1)) in
  Hashtbl.iter
    (fun _ c -> check_bool "balanced" true (abs (c - expected) < expected / 4))
    counts

let test_sim_with_topology () =
  (* Baseline leader election on a ring still converges: annihilation only
     needs adjacent leaders to meet eventually... which on a connected
     graph they do via the chain of meetings? No: L,L -> L,F needs the two
     leaders THEMSELVES to interact; non-adjacent leaders on a ring never
     do. Verify exactly that. *)
  let n = 8 in
  let protocol = Core.Baseline.protocol ~n in
  let ring = Engine.Topology.ring ~n in
  (* leaders at opposite positions 0 and 4: stuck at two leaders forever *)
  let init = Array.init n (fun i -> if i = 0 || i = 4 then Core.Baseline.Leader else Core.Baseline.Follower) in
  let run ~seed init =
    let exec =
      Engine.Exec.make ~topology:ring ~kind:Engine.Exec.Agent ~protocol ~init
        ~rng:(Prng.create ~seed) ()
    in
    Engine.Runner.run_while exec ~max_interactions:50_000 (fun () -> true);
    Engine.Exec.leader_count exec
  in
  check_int "non-adjacent leaders never annihilate" 2 (run ~seed:16 init);
  (* adjacent leaders do *)
  let init = Array.init n (fun i -> if i <= 1 then Core.Baseline.Leader else Core.Baseline.Follower) in
  check_int "adjacent leaders annihilate" 1 (run ~seed:17 init)

let test_errors () =
  Alcotest.check_raises "tiny ring" (Invalid_argument "Topology.ring: n must be >= 3") (fun () ->
      ignore (Engine.Topology.ring ~n:2));
  Alcotest.check_raises "degree too large"
    (Invalid_argument "Topology.random_regular: n must exceed the degree") (fun () ->
      ignore (Engine.Topology.random_regular (Prng.create ~seed:1) ~n:4 ~degree:4))

(* ---------- degree-class lumping ---------- *)

let test_degree_classes_star () =
  let n = 9 in
  let c = Engine.Topology.degree_classes (Engine.Topology.star ~n) in
  check_int "two classes" 2 c.Engine.Topology.nc;
  (* class ids ascend by degree: class 0 = leaves, class 1 = hub *)
  check_int "leaves" (n - 1) c.Engine.Topology.sizes.(0);
  check_int "hub" 1 c.Engine.Topology.sizes.(1);
  check_int "hub is agent 0" 1 c.Engine.Topology.class_of.(0);
  check_bool "star lumps exactly" true c.Engine.Topology.exact;
  check_int "leaf-leaf pairs never scheduled" 0 c.Engine.Topology.mix.(0).(0);
  check_int "hub-hub pairs never scheduled" 0 c.Engine.Topology.mix.(1).(1);
  check_int "leaf->hub" (n - 1) c.Engine.Topology.mix.(0).(1);
  check_int "hub->leaf" (n - 1) c.Engine.Topology.mix.(1).(0)

let test_degree_classes_invariants () =
  let rng = Prng.create ~seed:21 in
  List.iter
    (fun t ->
      let c = Engine.Topology.degree_classes t in
      let label suffix = Engine.Topology.name t ^ " " ^ suffix in
      let mix_total =
        Array.fold_left (fun acc row -> Array.fold_left ( + ) acc row) 0 c.Engine.Topology.mix
      in
      check_int (label "mix sums to 2E") (2 * Engine.Topology.edge_count t) mix_total;
      check_int (label "sizes sum to n") (Engine.Topology.size t)
        (Array.fold_left ( + ) 0 c.Engine.Topology.sizes);
      Array.iteri
        (fun i cl ->
          check_bool (label "members ascending per class") true
            (Array.exists (fun m -> m = i) c.Engine.Topology.members.(cl)))
        c.Engine.Topology.class_of)
    [
      Engine.Topology.complete ~n:8;
      Engine.Topology.ring ~n:9;
      Engine.Topology.star ~n:7;
      Engine.Topology.random_regular rng ~n:16 ~degree:4;
    ]

let test_degree_classes_exactness () =
  let exact t = (Engine.Topology.degree_classes t).Engine.Topology.exact in
  check_bool "complete exact" true (exact (Engine.Topology.complete ~n:8));
  check_bool "ring not exact (annealed)" false (exact (Engine.Topology.ring ~n:9));
  check_bool "random regular not exact (annealed)" false
    (exact (Engine.Topology.random_regular (Prng.create ~seed:22) ~n:16 ~degree:4));
  let cc = Engine.Topology.complete_classes ~n:8 in
  check_bool "complete_classes exact" true cc.Engine.Topology.exact;
  check_int "complete_classes single class" 1 cc.Engine.Topology.nc;
  check_int "complete_classes mix = n(n-1)" (8 * 7) cc.Engine.Topology.mix.(0).(0)

let suite =
  [
    Alcotest.test_case "complete" `Quick test_complete;
    Alcotest.test_case "ring" `Quick test_ring;
    Alcotest.test_case "star" `Quick test_star;
    Alcotest.test_case "random regular" `Quick test_random_regular;
    Alcotest.test_case "random regular odd degree" `Quick test_random_regular_rejects_odd;
    Alcotest.test_case "sampler valid" `Quick test_sampler_valid;
    Alcotest.test_case "sampler orientation" `Quick test_sampler_orientation_fair;
    Alcotest.test_case "complete sampler uniform" `Quick test_complete_sampler_matches_uniform;
    Alcotest.test_case "sim on ring topology" `Quick test_sim_with_topology;
    Alcotest.test_case "topology errors" `Quick test_errors;
    Alcotest.test_case "degree classes: star" `Quick test_degree_classes_star;
    Alcotest.test_case "degree classes: invariants" `Quick test_degree_classes_invariants;
    Alcotest.test_case "degree classes: exactness" `Quick test_degree_classes_exactness;
  ]
