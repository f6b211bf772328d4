type t = {
  name : string;
  n : int;
  edges : (int * int) array;  (* undirected, i < j, no duplicates *)
  adjacency : int list array;
}

let build ~name ~n edges =
  let adjacency = Array.make n [] in
  Array.iter
    (fun (i, j) ->
      adjacency.(i) <- j :: adjacency.(i);
      adjacency.(j) <- i :: adjacency.(j))
    edges;
  { name; n; edges; adjacency }

let complete ~n =
  if n < 2 then invalid_arg "Topology.complete: n must be >= 2";
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      edges := (i, j) :: !edges
    done
  done;
  build ~name:"complete" ~n (Array.of_list !edges)

let ring ~n =
  if n < 3 then invalid_arg "Topology.ring: n must be >= 3";
  let edges = Array.init n (fun i -> (min i ((i + 1) mod n), max i ((i + 1) mod n))) in
  build ~name:"ring" ~n edges

let star ~n =
  if n < 2 then invalid_arg "Topology.star: n must be >= 2";
  build ~name:"star" ~n (Array.init (n - 1) (fun i -> (0, i + 1)))

let random_regular rng ~n ~degree =
  if degree < 2 || degree mod 2 <> 0 then
    invalid_arg "Topology.random_regular: degree must be even and >= 2";
  if n < degree + 1 then invalid_arg "Topology.random_regular: n must exceed the degree";
  let canonical i j = (min i j, max i j) in
  let rec attempt tries =
    if tries = 0 then failwith "Topology.random_regular: could not build a simple graph";
    let seen = Hashtbl.create (n * degree) in
    let edges = ref [] in
    let ok = ref true in
    for _ = 1 to degree / 2 do
      let cycle = Prng.permutation rng n in
      for k = 0 to n - 1 do
        let e = canonical cycle.(k) cycle.((k + 1) mod n) in
        if fst e = snd e || Hashtbl.mem seen e then ok := false
        else begin
          Hashtbl.replace seen e ();
          edges := e :: !edges
        end
      done
    done;
    if !ok then build ~name:(Printf.sprintf "random-%d-regular" degree) ~n (Array.of_list !edges)
    else attempt (tries - 1)
  in
  attempt 1000

let size t = t.n

let edge_count t = Array.length t.edges

let degree t i = List.length t.adjacency.(i)

let is_connected t =
  let visited = Array.make t.n false in
  let rec walk i =
    if not visited.(i) then begin
      visited.(i) <- true;
      List.iter walk t.adjacency.(i)
    end
  in
  walk 0;
  Array.for_all Fun.id visited

let sampler t rng =
  let i, j = t.edges.(Prng.int rng (Array.length t.edges)) in
  if Prng.bool rng then Prng.pack_pair i j else Prng.pack_pair j i

let name t = t.name

(* Degree-class lumping: agents grouped by degree, with the ordered
   class-pair mixing counts the count engine needs to reproduce the
   uniform-edge scheduler at the class level. Lumping is exact exactly
   when every class-pair subgraph is empty or complete: then, conditioned
   on the scheduler hitting class pair (a, b), the ordered agent pair is
   uniform over a × b, which is the law the count engine samples. *)

type classes = {
  graph : string;
  agents : int;
  nc : int;
  class_of : int array;
  sizes : int array;
  members : int array array;  (* class -> member agents, ascending *)
  mix : int array array;  (* ordered: mix.(a).(b) adjacent (i∈a, j∈b) pairs *)
  exact : bool;
}

let complete_classes ~n =
  if n < 2 then invalid_arg "Topology.complete_classes: n must be >= 2";
  {
    graph = "complete";
    agents = n;
    nc = 1;
    class_of = Array.make n 0;
    sizes = [| n |];
    members = [| Array.init n Fun.id |];
    mix = [| [| n * (n - 1) |] |];
    exact = true;
  }

let degree_classes t =
  let n = t.n in
  (* class ids in increasing order of degree; degrees are <= n-1 *)
  let degree = Array.init n (degree t) in
  let seen = Array.make n (-1) in
  let nc = ref 0 in
  Array.iter
    (fun d ->
      if seen.(d) = -1 then begin
        seen.(d) <- !nc;
        incr nc
      end)
    degree;
  (* renumber so class ids follow ascending degree, independent of agent
     order *)
  let degs = ref [] in
  Array.iteri (fun d id -> if id >= 0 then degs := d :: !degs) seen;
  let degs = List.sort compare !degs in
  List.iteri (fun rank d -> seen.(d) <- rank) degs;
  let nc = !nc in
  let class_of = Array.map (fun d -> seen.(d)) degree in
  let sizes = Array.make nc 0 in
  Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) class_of;
  let members = Array.map (fun sz -> Array.make sz 0) sizes in
  let fill = Array.make nc 0 in
  Array.iteri
    (fun i c ->
      members.(c).(fill.(c)) <- i;
      fill.(c) <- fill.(c) + 1)
    class_of;
  let mix = Array.make_matrix nc nc 0 in
  Array.iter
    (fun (i, j) ->
      let a = class_of.(i) and b = class_of.(j) in
      mix.(a).(b) <- mix.(a).(b) + 1;
      mix.(b).(a) <- mix.(b).(a) + 1)
    t.edges;
  (* exactness: every class-pair subgraph empty or complete. mix.(a).(b)
     counts ordered adjacent pairs, so "complete" means sizes_a * sizes_b
     (a <> b) or sizes_a * (sizes_a - 1) (a = b, both orientations). *)
  let exact = ref true in
  for a = 0 to nc - 1 do
    for b = 0 to nc - 1 do
      let full = if a = b then sizes.(a) * (sizes.(a) - 1) else sizes.(a) * sizes.(b) in
      if mix.(a).(b) <> 0 && mix.(a).(b) <> full then exact := false
    done
  done;
  { graph = t.name; agents = n; nc; class_of; sizes; members; mix; exact = !exact }
