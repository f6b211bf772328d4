type 'a t = {
  protocol : 'a Protocol.t;
  states : 'a array;
  rng : Prng.t;
  sampler : Prng.t -> int;  (* a Prng.pack_pair-packed ordered pair *)
  monitor : 'a Monitor.t;
  mutable interactions : int;
}

let make_with ~sampler ~protocol ~init ~rng =
  if Array.length init <> protocol.Protocol.n then
    invalid_arg "Sim.make: initial configuration size differs from protocol.n";
  Protocol.validate ~config:init protocol;
  let states = Array.copy init in
  {
    protocol;
    states;
    rng;
    sampler;
    monitor = Monitor.create protocol states;
    interactions = 0;
  }

let make ~protocol ~init ~rng =
  let n = protocol.Protocol.n in
  make_with ~sampler:(fun rng -> Prng.distinct_pair_packed rng n) ~protocol ~init ~rng

let protocol t = t.protocol

let n t = t.protocol.Protocol.n

let step t =
  let p = t.sampler t.rng in
  let i = Prng.pair_fst p and j = Prng.pair_snd p in
  let a = t.states.(i) and b = t.states.(j) in
  let a', b' = t.protocol.Protocol.transition t.rng a b in
  t.states.(i) <- a';
  t.states.(j) <- b';
  Monitor.update t.monitor ~old_state:a ~new_state:a';
  Monitor.update t.monitor ~old_state:b ~new_state:b';
  t.interactions <- t.interactions + 1

let interactions t = t.interactions

let parallel_time t = float_of_int t.interactions /. float_of_int (n t)

let ranking_correct t = Monitor.ranking_correct t.monitor

let leader_correct t = Monitor.leader_correct t.monitor

let leader_count t = Monitor.leader_count t.monitor

let ranked_agents t = Monitor.ranked_agents t.monitor

let monitor_updates t = Monitor.updates t.monitor

let state t i = t.states.(i)

let inject t i s =
  if i < 0 || i >= n t then invalid_arg "Sim.inject: agent index out of range";
  let old_state = t.states.(i) in
  t.states.(i) <- s;
  Monitor.update t.monitor ~old_state ~new_state:s

let corrupt t ~rng ~fraction gen =
  if not (fraction >= 0.0 && fraction <= 1.0) then
    invalid_arg "Sim.corrupt: fraction outside [0,1]";
  let count =
    if fraction = 0.0 then 0
    else max 1 (int_of_float (Float.round (fraction *. float_of_int (n t))))
  in
  let victims = Prng.permutation rng (n t) in
  for k = 0 to count - 1 do
    inject t victims.(k) (gen rng)
  done;
  count

let snapshot t = Array.copy t.states
