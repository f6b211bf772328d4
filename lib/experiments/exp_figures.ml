let name = "figures"

let description = "Figures 1 & 2: rank-tree assignment and history-tree construction"

(* Figure 1: the full binary tree of ranks 1..n; ranks <= settled are
   Settled, the rest are slots awaiting recruitment. *)
let figure1_tree ~n ~settled =
  let buf = Buffer.create 1024 in
  let rec render indent r =
    if r <= n then begin
      Buffer.add_string buf
        (Printf.sprintf "%s%2d %s\n" indent r (if r <= settled then "[settled]" else "(unsettled slot)"));
      render (indent ^ "   ") (2 * r);
      render (indent ^ "   ") ((2 * r) + 1)
    end
  in
  render "" 1;
  Buffer.contents buf

(* Figure 2: names a, b, c, d; H = 3; generous timers (the figure has no
   timers — they are a technicality for adversarial starts). *)
let figure2_script () =
  let buf = Buffer.create 4096 in
  let width = 6 in
  let names = [| 0b000001; 0b000010; 0b000011; 0b000100 |] in
  let nm i = Core.Name.of_int ~bits:names.(i) ~len:width in
  let labels = [| "a"; "b"; "c"; "d" |] in
  let label_of n =
    let rec find i = if Core.Name.equal (nm i) n then labels.(i) else find (i + 1) in
    find 0
  in
  let h = 3 and timer = 100 in
  let trees = Array.make 4 Core.History_tree.empty in
  let interact i j sync =
    let ti = trees.(i) and tj = trees.(j) in
    trees.(i) <-
      Core.History_tree.merge ~h ~own:(nm i) ~partner:(nm j) ~partner_tree:tj ~sync ~timer ti;
    trees.(j) <-
      Core.History_tree.merge ~h ~own:(nm j) ~partner:(nm i) ~partner_tree:ti ~sync ~timer tj;
    Buffer.add_string buf (Printf.sprintf "%s-%s interact; sync %d:\n" labels.(i) labels.(j) sync)
  in
  let print_trees () =
    Array.iteri
      (fun i tree ->
        Buffer.add_string buf (Printf.sprintf "  %s's tree:\n" labels.(i));
        let rec render indent nodes =
          List.iter
            (fun nd ->
              Buffer.add_string buf
                (Printf.sprintf "%s--%d--> %s\n" indent nd.Core.History_tree.sync
                   (label_of nd.Core.History_tree.name));
              render (indent ^ "      ") nd.Core.History_tree.children)
            nodes
        in
        if tree = [] then Buffer.add_string buf "    (singleton)\n" else render "    " tree)
      trees
  in
  let check_d_vs_a () =
    (* d confronts a with its paths ending at a (the caption's check). *)
    let paths = Core.History_tree.fresh_paths_to ~name:(nm 0) trees.(3) in
    List.iter
      (fun path ->
        let rendered =
          String.concat " -> "
            (List.map (fun (n, s) -> Printf.sprintf "%d:%s" s (label_of n)) path)
        in
        match Core.History_tree.consistent_at ~tree:trees.(0) ~origin:(nm 3) ~path with
        | Some pos ->
            Buffer.add_string buf
              (Printf.sprintf "  d's path [d -> %s]: True after checking edge %d\n" rendered pos)
        | None ->
            Buffer.add_string buf
              (Printf.sprintf "  d's path [d -> %s]: Inconsistent (collision!)\n" rendered))
      paths
  in
  Buffer.add_string buf "--- Figure 2, left execution: a-b(1), b-c(2), c-d(3) ---\n";
  interact 0 1 1;
  interact 1 2 2;
  interact 2 3 3;
  print_trees ();
  Buffer.add_string buf "Check when a and d would interact:\n";
  check_d_vs_a ();
  (* Right execution. *)
  Array.fill trees 0 4 Core.History_tree.empty;
  Buffer.add_string buf "\n--- Figure 2, right execution: a-b(1), b-c(2), a-b(7), c-d(3) ---\n";
  interact 0 1 1;
  interact 1 2 2;
  interact 0 1 7;
  interact 2 3 3;
  print_trees ();
  Buffer.add_string buf "Check when a and d would interact:\n";
  check_d_vs_a ();
  Buffer.contents buf

let run ~mode ~seed ~jobs =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "== Experiment F1: Figure 1 ==\n\n";
  Buffer.add_string buf "Rank tree at n=12 with 8 settled agents (paper's Figure 1 state):\n";
  Buffer.add_string buf (figure1_tree ~n:12 ~settled:8);
  Buffer.add_string buf
    "\nRemaining ranks 9..12 are assigned when unsettled agents meet the settled\n\
     agents with free slots (ranks 4, 5 and 6 in the 1-based convention of\n\
     Protocol 3; the paper's figure counts ranks from 0, hence its '3, 4 or 5').\n\n";
  (* Ranking phase alone is Θ(n). *)
  let trials = Exp_common.trials_of_mode mode ~base:30 in
  let ns = match mode with Exp_common.Quick -> [ 16; 32; 64 ] | Exp_common.Full -> [ 16; 32; 64; 128; 256 ] in
  let table = Stats.Table.create ~header:Exp_common.time_header in
  let points =
    List.map
      (fun n ->
        let params = Core.Params.optimal_silent n in
        let protocol = Core.Optimal_silent.protocol ~params ~n () in
        let m =
          Exp_common.measure ~label:"ranking-phase" ~protocol
            ~init:(fun _ ->
              Array.init n (fun i ->
                  if i = 0 then Core.Optimal_silent.settled ~rank:1 ~children:0
                  else Core.Optimal_silent.unsettled ~errorcount:params.Core.Params.e_max))
            ~expected_time:(float_of_int (10 * n))
            ~jobs ~trials ~seed ()
        in
        Stats.Table.add_row table (Exp_common.time_row m);
        (n, m))
      ns
  in
  Buffer.add_string buf "Leader-driven ranking phase (1 settled root, n-1 unsettled)\n";
  Buffer.add_string buf (Stats.Table.render table);
  let fit = Exp_common.scaling_fit points in
  Buffer.add_string buf
    (Printf.sprintf "\nlog-log fit: slope=%.3f (paper predicts 1.0: Θ(n)), r2=%.4f\n\n"
       fit.Stats.Regression.slope fit.Stats.Regression.r2);
  Buffer.add_string buf "== Experiment F2: Figure 2 ==\n\n";
  Buffer.add_string buf (figure2_script ());
  Buffer.contents buf
