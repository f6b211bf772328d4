type 'a t = {
  protocol : 'a Protocol.t;
  states : 'a array;
  rng : Prng.t;
  sampler : Prng.t -> int * int;
  monitor : 'a Monitor.t;
  mutable interactions : int;
  mutable last_pair : (int * int) option;
}

let make_opt sampler ~protocol ~init ~rng =
  if Array.length init <> protocol.Protocol.n then
    invalid_arg "Sim.make: initial configuration size differs from protocol.n";
  Protocol.validate ~config:init protocol;
  let states = Array.copy init in
  let sampler =
    match sampler with
    | Some s -> s
    | None ->
        let n = protocol.Protocol.n in
        fun rng -> Prng.distinct_pair rng n
  in
  {
    protocol;
    states;
    rng;
    sampler;
    monitor = Monitor.create protocol states;
    interactions = 0;
    last_pair = None;
  }

let make ~protocol ~init ~rng = make_opt None ~protocol ~init ~rng

let make_with ~sampler ~protocol ~init ~rng = make_opt (Some sampler) ~protocol ~init ~rng

let protocol t = t.protocol

let n t = t.protocol.Protocol.n

let step t =
  let i, j = t.sampler t.rng in
  let a = t.states.(i) and b = t.states.(j) in
  let a', b' = t.protocol.Protocol.transition t.rng a b in
  t.states.(i) <- a';
  t.states.(j) <- b';
  Monitor.update t.monitor ~old_state:a ~new_state:a';
  Monitor.update t.monitor ~old_state:b ~new_state:b';
  t.interactions <- t.interactions + 1;
  t.last_pair <- Some (i, j)

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

let last_pair t = t.last_pair
