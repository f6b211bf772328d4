(* Tests for the xoshiro256** generator wrapper. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_determinism () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Prng.bits64 a) (Prng.bits64 b) then incr same
  done;
  check_bool "streams differ" true (!same < 4)

let test_copy_independent () =
  let a = Prng.create ~seed:7 in
  let b = Prng.copy a in
  Alcotest.(check int64) "copy replays" (Prng.bits64 a) (Prng.bits64 b);
  (* advancing a does not advance b *)
  let _ = Prng.bits64 a in
  let a2 = Prng.bits64 a and b2 = Prng.bits64 b in
  check_bool "copy diverges after extra draw" true (not (Int64.equal a2 b2))

let test_split_differs () =
  let a = Prng.create ~seed:7 in
  let child = Prng.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Prng.bits64 a) (Prng.bits64 child) then incr same
  done;
  check_bool "child stream uncorrelated" true (!same < 4)

let test_split_many () =
  let a = Prng.create ~seed:9 in
  let children = Prng.split_many a 5 in
  check_int "count" 5 (Array.length children);
  let firsts = Array.map Prng.bits64 children in
  let distinct = Array.to_list firsts |> List.sort_uniq compare |> List.length in
  check_int "children distinct" 5 distinct

let test_int_bounds () =
  let g = Prng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let x = Prng.int g 7 in
    check_bool "in range" true (x >= 0 && x < 7)
  done

let test_int_uniform () =
  let g = Prng.create ~seed:4 in
  let counts = Array.make 8 0 in
  let trials = 80_000 in
  for _ = 1 to trials do
    let x = Prng.int g 8 in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = trials / 8 in
      check_bool (Printf.sprintf "bucket %d balanced" i) true (abs (c - expected) < expected / 5))
    counts

let test_int_one () =
  let g = Prng.create ~seed:5 in
  for _ = 1 to 100 do
    check_int "bound 1 gives 0" 0 (Prng.int g 1)
  done

let test_int_in () =
  let g = Prng.create ~seed:5 in
  for _ = 1 to 1000 do
    let x = Prng.int_in g (-3) 3 in
    check_bool "in closed range" true (x >= -3 && x <= 3)
  done;
  check_int "degenerate range" 9 (Prng.int_in g 9 9)

let test_float_range () =
  let g = Prng.create ~seed:6 in
  for _ = 1 to 10_000 do
    let x = Prng.float g in
    check_bool "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_bool_fair () =
  let g = Prng.create ~seed:8 in
  let heads = ref 0 in
  let trials = 40_000 in
  for _ = 1 to trials do
    if Prng.bool g then incr heads
  done;
  check_bool "roughly fair" true (abs (!heads - (trials / 2)) < trials / 20)

let test_bernoulli_extremes () =
  let g = Prng.create ~seed:9 in
  for _ = 1 to 100 do
    check_bool "p=0 never" false (Prng.bernoulli g ~p:0.0);
    check_bool "p=1 always" true (Prng.bernoulli g ~p:1.0)
  done

let test_distinct_pair () =
  let g = Prng.create ~seed:10 in
  for _ = 1 to 10_000 do
    let i, j = Prng.distinct_pair g 5 in
    check_bool "distinct" true (i <> j);
    check_bool "range" true (i >= 0 && i < 5 && j >= 0 && j < 5)
  done

let test_distinct_pair_ordered_uniform () =
  let g = Prng.create ~seed:11 in
  let n = 4 in
  let counts = Hashtbl.create 16 in
  let trials = 120_000 in
  for _ = 1 to trials do
    let p = Prng.distinct_pair g n in
    Hashtbl.replace counts p (1 + Option.value ~default:0 (Hashtbl.find_opt counts p))
  done;
  check_int "all ordered pairs hit" (n * (n - 1)) (Hashtbl.length counts);
  let expected = trials / (n * (n - 1)) in
  Hashtbl.iter
    (fun _ c -> check_bool "pair frequency balanced" true (abs (c - expected) < expected / 5))
    counts

let test_permutation () =
  let g = Prng.create ~seed:12 in
  let p = Prng.permutation g 100 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 100 Fun.id) sorted

let test_shuffle_multiset () =
  let g = Prng.create ~seed:13 in
  let a = [| 1; 1; 2; 3; 5; 8; 13 |] in
  let b = Array.copy a in
  Prng.shuffle g b;
  Array.sort compare b;
  let a' = Array.copy a in
  Array.sort compare a';
  Alcotest.(check (array int)) "multiset preserved" a' b

let test_bits () =
  let g = Prng.create ~seed:14 in
  check_int "width 0" 0 (Prng.bits g ~width:0);
  for _ = 1 to 1000 do
    let x = Prng.bits g ~width:10 in
    check_bool "10-bit range" true (x >= 0 && x < 1024)
  done;
  (* high bits must actually vary *)
  let top_set = ref false in
  for _ = 1 to 200 do
    if Prng.bits g ~width:10 >= 512 then top_set := true
  done;
  check_bool "top bit occurs" true !top_set

let test_pick () =
  let g = Prng.create ~seed:15 in
  let arr = [| "x"; "y"; "z" |] in
  for _ = 1 to 100 do
    let v = Prng.pick g arr in
    check_bool "member" true (Array.exists (String.equal v) arr)
  done

(* Stream independence of split children. The parallel trial runner
   pre-splits one child per trial, so the children must behave like
   independent uniform streams: their pooled draws must be uniform, the
   first draw must be uniform *across* children (a weak mixing function
   would correlate child i's first output with i), and adjacent children
   must be uncorrelated. Thresholds are generous — these guard against
   gross splitmix/seeding mistakes, not statistical perfection. *)

let chi_square ~buckets counts total =
  let expected = float_of_int total /. float_of_int buckets in
  Array.fold_left
    (fun acc c ->
      let d = float_of_int c -. expected in
      acc +. (d *. d /. expected))
    0.0 counts

let test_split_many_uniform_pooled () =
  let children = Prng.split_many (Prng.create ~seed:2718) 256 in
  let buckets = 16 in
  let per_child = 64 in
  let counts = Array.make buckets 0 in
  Array.iter
    (fun child ->
      for _ = 1 to per_child do
        let b = Prng.int child buckets in
        counts.(b) <- counts.(b) + 1
      done)
    children;
  let chi2 = chi_square ~buckets counts (256 * per_child) in
  (* df = 15; 60 is far beyond the 1e-6 quantile (~44). *)
  check_bool (Printf.sprintf "pooled chi2 %.1f < 60" chi2) true (chi2 < 60.0)

let test_split_many_uniform_across_children () =
  (* One draw per child: uniformity across the child index. *)
  let children = Prng.split_many (Prng.create ~seed:3141) 256 in
  let buckets = 16 in
  let counts = Array.make buckets 0 in
  Array.iter
    (fun child ->
      let b = Prng.int child buckets in
      counts.(b) <- counts.(b) + 1)
    children;
  let chi2 = chi_square ~buckets counts 256 in
  check_bool (Printf.sprintf "first-draw chi2 %.1f < 60" chi2) true (chi2 < 60.0)

let test_split_children_uncorrelated () =
  let children = Prng.split_many (Prng.create ~seed:1618) 11 in
  let samples = 512 in
  let stream child = Array.init samples (fun _ -> Prng.float child) in
  let streams = Array.map stream children in
  let pearson xs ys =
    let mx = Stats.Summary.mean xs and my = Stats.Summary.mean ys in
    let num = ref 0.0 and sx = ref 0.0 and sy = ref 0.0 in
    Array.iteri
      (fun i x ->
        let dx = x -. mx and dy = ys.(i) -. my in
        num := !num +. (dx *. dy);
        sx := !sx +. (dx *. dx);
        sy := !sy +. (dy *. dy))
      xs;
    !num /. sqrt (!sx *. !sy)
  in
  for i = 0 to Array.length streams - 2 do
    let r = pearson streams.(i) streams.(i + 1) in
    check_bool
      (Printf.sprintf "children %d,%d correlation %.3f small" i (i + 1) r)
      true
      (Float.abs r < 0.2)
  done

(* Known answers: the first 16 outputs of each primitive from a fresh
   generator, for seeds 0 and 42. "split" reads the child of the first
   draw, "copy" a copy taken after three draws. Any change to the state
   layout or the draw arithmetic must leave every value here as it is:
   the golden pins, events digests and benchmark counters all rest on
   these streams. Bound 2^61+1 rejects about half its raw draws. *)
let stream_pins =
  [
    ("bits64", 0,
     "99ec5f36cb75f2b4 bf6e1f784956452a 1a5f849d4933e6e0 6aa594f1262d2d2c bba5ad4a1f842e59 ffef8375d9ebcaca 6c160deed2f54c98 8920ad648fc30a3f db032c0ba7539731 eb3a475a3e749a3d 1d42993fa43f2a54 11361bf526a14bb5 1b4f07a5ab3d8e9c a7a3257f6986db7f 7efdaa95605dfc9c 4bde97c0a78eaab8");
    ("int 1", 0,
     "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0");
    ("int 7", 0,
     "3 4 2 6 1 6 1 1 4 2 1 2 2 2 6 5");
    ("int 10000", 0,
     "612 9274 8768 5628 7929 7786 2440 1295 1905 7085 5844 2693 2508 6431 9276 2824");
    ("int 2^61+1", 0,
     "1867972634398290612 1900383378846508768 657716193016351295 1946447892517721905 2108416074180405844 1240209487116192693 1967799970308132508 855287832947632824 918302724222253452 1066191477599053797 1149861938805596784 1321116446846183460 970644531555567855 776664477518809363 224319791317129617 706796178320219295");
    ("float", 0,
     "0x1.33d8be6d96ebep-1 0x1.7edc3ef092ac8p-1 0x1.a5f849d4933ep-4 0x1.aa9653c498b4ap-2 0x1.774b5a943f085p-1 0x1.ffdf06ebb3d79p-1 0x1.b05837bb4bd52p-2 0x1.12415ac91f861p-1 0x1.b60658174ea72p-1 0x1.d6748eb47ce93p-1 0x1.d42993fa43f28p-4 0x1.1361bf526a148p-4 0x1.b4f07a5ab3d88p-4 0x1.4f464afed30dbp-1 0x1.fbf6aa558177ep-2 0x1.2f7a5f029e3aap-2");
    ("bits 20", 0,
     "630469 784097 108024 436825 768602 1048312 442720 561674 897074 963492 119849 70497 111856 686642 520154 310761");
    ("bool", 0,
     "0 0 0 0 1 0 0 1 1 1 0 1 0 1 0 0");
    ("split", 0,
     "4c94e4a98a1709eb 48235b11b4380ed6 757ef423c8f581cc 002c24c674801072 d53f70483a2f04fb 80dc4ed1c28511ce 246b1ce0f7023790 2ee31c1a573874ce eadb36ab158b7dbc ef60edf5362e8f4b dc8796390c6d5dfe edc9fa6315e8718c 408e8a6068882ebc e540736f3393841d 19a7b91d080783ca 984f262b5a8c960e");
    ("copy", 0,
     "6aa594f1262d2d2c bba5ad4a1f842e59 ffef8375d9ebcaca 6c160deed2f54c98 8920ad648fc30a3f db032c0ba7539731 eb3a475a3e749a3d 1d42993fa43f2a54 11361bf526a14bb5 1b4f07a5ab3d8e9c a7a3257f6986db7f 7efdaa95605dfc9c 4bde97c0a78eaab8 b455eac43518666c 304dbf6c06730690 8cbe7776598a798c");
    ("bits64", 42,
     "15780b2e0c2ec716 6104d9866d113a7e ae17533239e499a1 ecb8ad4703b360a1 fde6dc7fe2ec5e64 c50da53101795238 b82154855a65ddb2 d99a2743ebe60087 c2e96e726e97647e 9556615f775fbc3d aeb53b340c103971 4a69db9873af8965 cd0feda93006c6b6 52480865a4b42742 b60dec3bf2d887cd e0b55a68b96677fa");
    ("int 1", 42,
     "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0");
    ("int 7", 42,
     "2 4 4 6 6 3 1 2 0 4 5 2 4 1 4 4");
    ("int 10000", 42,
     "8742 5198 3201 481 3764 6872 4946 695 1246 3277 1841 3989 9398 9138 9485 1658");
    ("int 2^61+1", 42,
     "1546998764402558742 364128774783586872 1844830170035650695 209820295410181246 1537523385446153277 750372260756293989 941232158054729398 1317312123653859138 2153870293806673813 1870316922587333844 1712965807924549849 1881838702456566807 1180386813993057008 721672153837094072 2263993204587113274 2087482996259066216");
    ("float", 42,
     "0x1.5780b2e0c2ecp-4 0x1.84136619b444ep-2 0x1.5c2ea66473c93p-1 0x1.d9715a8e0766cp-1 0x1.fbcdb8ffc5d8bp-1 0x1.8a1b4a6202f2ap-1 0x1.7042a90ab4cbbp-1 0x1.b3344e87d7ccp-1 0x1.85d2dce4dd2ecp-1 0x1.2aacc2beeebf7p-1 0x1.5d6a766818207p-1 0x1.29a76e61cebe2p-2 0x1.9a1fdb52600d8p-1 0x1.4920219692d08p-2 0x1.6c1bd877e5b1p-1 0x1.c16ab4d172ccep-1");
    ("bits 20", 42,
     "87936 397389 713077 969610 1039981 807130 754197 891298 798358 611686 715603 304797 839934 337024 745694 920405");
    ("bool", 42,
     "0 0 1 1 0 0 0 1 0 1 1 1 0 0 1 0");
    ("split", 42,
     "8ee445d14631c453 106fa1a13296fe62 729a768806244ce5 91d83a17b20e6585 38c33df442fc70fd e33cd1b92e2e42f1 3162280b9dcfa5ef b4f9f0541228b854 1a14e769c3971c72 bcdc3038014f831d 812cc5b01f199815 3134fde165d33c1a 3368166c2f73f701 18ff20dedd333424 985e809610691fbd c7e926ca8d4dd481");
    ("copy", 42,
     "ecb8ad4703b360a1 fde6dc7fe2ec5e64 c50da53101795238 b82154855a65ddb2 d99a2743ebe60087 c2e96e726e97647e 9556615f775fbc3d aeb53b340c103971 4a69db9873af8965 cd0feda93006c6b6 52480865a4b42742 b60dec3bf2d887cd e0b55a68b96677fa 9de4159eda9cef95 d9f4b354ec3844d4 b5215f43ed431a77");
  ]

let stream_case name seed =
  let g = Prng.create ~seed in
  let take16 f = String.concat " " (List.init 16 (fun _ -> f ())) in
  let ints bound = take16 (fun () -> string_of_int (Prng.int g bound)) in
  let hex64 g () = Printf.sprintf "%016Lx" (Prng.bits64 g) in
  match name with
  | "bits64" -> take16 (hex64 g)
  | "int 1" -> ints 1
  | "int 7" -> ints 7
  | "int 10000" -> ints 10_000
  | "int 2^61+1" -> ints ((1 lsl 61) + 1)
  | "float" -> take16 (fun () -> Printf.sprintf "%h" (Prng.float g))
  | "bits 20" -> take16 (fun () -> string_of_int (Prng.bits g ~width:20))
  | "bool" -> take16 (fun () -> if Prng.bool g then "1" else "0")
  | "split" -> take16 (hex64 (Prng.split g))
  | "copy" ->
      for _ = 1 to 3 do
        ignore (Prng.bits64 g)
      done;
      take16 (hex64 (Prng.copy g))
  | _ -> invalid_arg name

let test_stream_pins () =
  List.iter
    (fun (name, seed, expected) ->
      Alcotest.(check string) (Printf.sprintf "%s, seed %d" name seed) expected (stream_case name seed))
    stream_pins

(* The bounded draws keep the xoshiro state unboxed: a draw that
   allocated would cost the count engine's confirmation window a minor
   collection every few thousand ticks. The slack covers the boxed float
   [Gc.minor_words] may return, not the draws. *)
let test_draws_allocate_nothing () =
  let g = Prng.create ~seed:16 in
  let sink = ref 0 in
  let words draw =
    let before = Gc.minor_words () in
    for _ = 1 to 100_000 do
      sink := !sink + draw ()
    done;
    Gc.minor_words () -. before
  in
  List.iter
    (fun (name, draw) ->
      let w = words draw in
      check_bool (Printf.sprintf "%s: %.0f minor words for 1e5 draws" name w) true (w < 16.0))
    [
      ("int", fun () -> Prng.int g 10_000);
      ("bits", fun () -> Prng.bits g ~width:20);
      ("bool", fun () -> Bool.to_int (Prng.bool g));
    ];
  ignore (Sys.opaque_identity !sink)

(* Minor words per call of [f], over [calls] calls. *)
let words_per ~calls f =
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

(* The agent engine's step on a memoized compiled kernel: the sampler
   returns its pair packed in an int, the last pair is two int fields and
   the monitor's observations are per-code array reads, so the only
   allocation left is the transition's 3-word output tuple, under the
   uniform and the topology scheduler alike. *)
let test_step_allocates_only_the_transition () =
  let n = 64 in
  let kernel = Ir.Kernel.compile (Core.Silent_n_state.enumerable ~n) in
  check_bool "kernel is memoized" true (kernel.Ir.Kernel.ir.Ir.table <> None);
  let protocol = kernel.Ir.Kernel.compiled
  and init = Array.map (Ir.Kernel.encode kernel) (Core.Scenarios.silent_worst_case ~n) in
  List.iter
    (fun (name, sim) ->
      let w = words_per ~calls:100_000 (fun () -> Engine.Sim.step sim) in
      check_bool (Printf.sprintf "%s: %.3f minor words per step" name w) true (w <= 3.01))
    [
      ("uniform", Engine.Sim.make ~protocol ~init ~rng:(Prng.create ~seed:17));
      ( "ring",
        Engine.Sim.make_with
          ~sampler:(Engine.Topology.sampler (Engine.Topology.ring ~n))
          ~protocol ~init ~rng:(Prng.create ~seed:18) );
    ]

(* A hit in the state interner hashes once and compares in place. *)
let test_encode_allocates_nothing () =
  let n = 64 in
  let ir = Ir.of_enumerable (Core.Optimal_silent.enumerable ~n ()) in
  let declared =
    Array.init n (fun r -> Core.Optimal_silent.settled ~rank:(r + 1) ~children:(r mod 3))
  in
  let sink = ref 0 and k = ref 0 in
  let w =
    words_per ~calls:100_000 (fun () ->
        sink := !sink + Ir.encode ir declared.(!k);
        k := (!k + 1) mod n)
  in
  ignore (Sys.opaque_identity !sink);
  check_bool (Printf.sprintf "%.4f minor words per encode" w) true (w < 0.001)

let qcheck_permutation =
  QCheck.Test.make ~name:"permutation is bijective" ~count:200
    QCheck.(pair small_int (int_bound 1000))
    (fun (seed, n) ->
      let n = max 1 n in
      let g = Prng.create ~seed in
      let p = Prng.permutation g n in
      let seen = Array.make n false in
      Array.iter (fun i -> seen.(i) <- true) p;
      Array.for_all Fun.id seen)

let qcheck_int_bound =
  QCheck.Test.make ~name:"int stays within bound" ~count:1000
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let g = Prng.create ~seed in
      let x = Prng.int g bound in
      x >= 0 && x < bound)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "copy independent" `Quick test_copy_independent;
    Alcotest.test_case "split differs" `Quick test_split_differs;
    Alcotest.test_case "split_many distinct" `Quick test_split_many;
    Alcotest.test_case "split_many pooled uniform" `Quick test_split_many_uniform_pooled;
    Alcotest.test_case "split_many uniform across children" `Quick
      test_split_many_uniform_across_children;
    Alcotest.test_case "split children uncorrelated" `Quick test_split_children_uncorrelated;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int uniform" `Quick test_int_uniform;
    Alcotest.test_case "int bound 1" `Quick test_int_one;
    Alcotest.test_case "int_in" `Quick test_int_in;
    Alcotest.test_case "float range" `Quick test_float_range;
    Alcotest.test_case "bool fair" `Quick test_bool_fair;
    Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
    Alcotest.test_case "distinct_pair valid" `Quick test_distinct_pair;
    Alcotest.test_case "distinct_pair uniform" `Quick test_distinct_pair_ordered_uniform;
    Alcotest.test_case "permutation" `Quick test_permutation;
    Alcotest.test_case "shuffle multiset" `Quick test_shuffle_multiset;
    Alcotest.test_case "bits" `Quick test_bits;
    Alcotest.test_case "pick" `Quick test_pick;
    Alcotest.test_case "stream pins" `Quick test_stream_pins;
    Alcotest.test_case "draws allocate nothing" `Quick test_draws_allocate_nothing;
    Alcotest.test_case "agent step allocates only the transition" `Quick
      test_step_allocates_only_the_transition;
    Alcotest.test_case "declared-state encode allocates nothing" `Quick
      test_encode_allocates_nothing;
    QCheck_alcotest.to_alcotest qcheck_permutation;
    QCheck_alcotest.to_alcotest qcheck_int_bound;
  ]
