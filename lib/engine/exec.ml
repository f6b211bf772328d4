module type INSTANCE = sig
  type state

  val protocol : state Protocol.t
  val advance : until:int -> bool
  val interactions : unit -> int
  val events : unit -> int
  val parallel_time : unit -> float
  val ranking_correct : unit -> bool
  val leader_correct : unit -> bool
  val leader_count : unit -> int
  val ranked_agents : unit -> int
  val silent : unit -> bool option
  val state : int -> state
  val snapshot : unit -> state array
  val inject : int -> state -> unit
  val corrupt : rng:Prng.t -> fraction:float -> (Prng.t -> state) -> int
  val on : (Instrument.event -> unit) -> unit
  val emit : Instrument.event -> unit
  val stats : unit -> (string * float) list
end

type 'a t = (module INSTANCE with type state = 'a)

type kind = Agent | Count

let kind_to_string = function Agent -> "agent" | Count -> "count"

let of_sim (type a) (sim : a Sim.t) : a t =
  (module struct
    type state = a

    let protocol = Sim.protocol sim
    let handlers : (Instrument.event -> unit) list ref = ref []
    let on h = handlers := !handlers @ [ h ]
    let emit ev = List.iter (fun h -> h ev) !handlers

    let advance ~until:_ =
      Sim.step sim;
      (* [emit] on every interaction would make the agent engine's hot
         path allocate an event per step; skip entirely when nobody
         listens. *)
      if !handlers != [] then
        emit
          (Instrument.Step
             { interactions = Sim.interactions sim; time = Sim.parallel_time sim });
      true

    let interactions () = Sim.interactions sim
    let events () = Sim.interactions sim
    let parallel_time () = Sim.parallel_time sim
    let ranking_correct () = Sim.ranking_correct sim
    let leader_correct () = Sim.leader_correct sim
    let leader_count () = Sim.leader_count sim
    let ranked_agents () = Sim.ranked_agents sim
    let silent () = None
    let state i = Sim.state sim i
    let snapshot () = Sim.snapshot sim

    let inject i s =
      Sim.inject sim i s;
      emit
        (Instrument.Fault
           { agents = 1; interactions = Sim.interactions sim; time = Sim.parallel_time sim })

    let corrupt ~rng ~fraction gen =
      let agents = Sim.corrupt sim ~rng ~fraction gen in
      if agents > 0 then
        emit
          (Instrument.Fault
             { agents; interactions = Sim.interactions sim; time = Sim.parallel_time sim });
      agents

    let stats () =
      [
        ("interactions", float_of_int (Sim.interactions sim));
        ("events", float_of_int (Sim.interactions sim));
        ("monitor_updates", float_of_int (Sim.monitor_updates sim));
      ]
  end)

let of_count_sim (type a) (cs : a Count_sim.t) : a t =
  (module struct
    type state = a

    let protocol = Count_sim.protocol cs
    let handlers : (Instrument.event -> unit) list ref = ref []
    let on h = handlers := !handlers @ [ h ]
    let emit ev = List.iter (fun h -> h ev) !handlers

    (* [Silence] is announced once per silent stretch; a fault can wake
       the configuration and re-arm the announcement. *)
    let silence_announced = ref false

    let announce_silence () =
      if Count_sim.is_silent cs && not !silence_announced then begin
        silence_announced := true;
        emit
          (Instrument.Silence
             {
               interactions = Count_sim.interactions cs;
               time = Count_sim.parallel_time cs;
             })
      end

    let advance ~until =
      let before = Count_sim.events cs in
      let alive = Count_sim.advance cs ~until in
      if !handlers != [] then begin
        if Count_sim.events cs > before then
          emit
            (Instrument.Step
               {
                 interactions = Count_sim.interactions cs;
                 time = Count_sim.parallel_time cs;
               });
        announce_silence ()
      end;
      alive

    let interactions () = Count_sim.interactions cs
    let events () = Count_sim.events cs
    let parallel_time () = Count_sim.parallel_time cs
    let ranking_correct () = Count_sim.ranking_correct cs
    let leader_correct () = Count_sim.leader_correct cs
    let leader_count () = Count_sim.leader_count cs
    let ranked_agents () = Count_sim.ranked_agents cs
    let silent () = Count_sim.silent cs
    let state i = Count_sim.state cs i
    let snapshot () = Count_sim.snapshot cs

    let after_fault agents =
      if not (Count_sim.is_silent cs) then silence_announced := false;
      emit
        (Instrument.Fault
           {
             agents;
             interactions = Count_sim.interactions cs;
             time = Count_sim.parallel_time cs;
           })

    let inject i s =
      Count_sim.inject cs i s;
      after_fault 1

    let corrupt ~rng ~fraction gen =
      let agents = Count_sim.corrupt cs ~rng ~fraction gen in
      if agents > 0 then after_fault agents;
      agents

    let stats () =
      [
        ("interactions", float_of_int (Count_sim.interactions cs));
        ("events", float_of_int (Count_sim.events cs));
        ("null_skipped", float_of_int (Count_sim.null_skipped cs));
        ("closure_size", float_of_int (Count_sim.closure_size cs));
        ("pairs_probed", float_of_int (Count_sim.pairs_probed cs));
        ("pairs_cached", float_of_int (Count_sim.pairs_cached cs));
        ("classes_live", float_of_int (Count_sim.classes_live cs));
        ("productive_pairs", float_of_int (Count_sim.productive_pairs cs));
        ("productive_weight", float_of_int (Count_sim.productive_weight cs));
        ("monitor_updates", float_of_int (Count_sim.monitor_updates cs));
      ]
  end)

let make ?topology ~kind ~protocol ~init ~rng () =
  match (kind, topology) with
  | Agent, None -> of_sim (Sim.make ~protocol ~init ~rng)
  | Agent, Some t -> of_sim (Sim.make_with ~sampler:(Topology.sampler t) ~protocol ~init ~rng)
  | Count, _ ->
      let classes = Option.map Topology.degree_classes topology in
      of_count_sim (Count_sim.make ?classes ~protocol ~init ~rng ())

let protocol (type a) ((module E) : a t) = E.protocol
let n (type a) ((module E) : a t) = E.protocol.Protocol.n
let advance (type a) ((module E) : a t) ~until = E.advance ~until
let interactions (type a) ((module E) : a t) = E.interactions ()
let events (type a) ((module E) : a t) = E.events ()
let parallel_time (type a) ((module E) : a t) = E.parallel_time ()
let ranking_correct (type a) ((module E) : a t) = E.ranking_correct ()
let leader_correct (type a) ((module E) : a t) = E.leader_correct ()
let leader_count (type a) ((module E) : a t) = E.leader_count ()
let ranked_agents (type a) ((module E) : a t) = E.ranked_agents ()
let silent (type a) ((module E) : a t) = E.silent ()
let state (type a) ((module E) : a t) i = E.state i
let snapshot (type a) ((module E) : a t) = E.snapshot ()
let inject (type a) ((module E) : a t) i s = E.inject i s
let corrupt (type a) ((module E) : a t) ~rng ~fraction gen = E.corrupt ~rng ~fraction gen
let on (type a) ((module E) : a t) h = E.on h
let emit (type a) ((module E) : a t) ev = E.emit ev
let stats (type a) ((module E) : a t) = E.stats ()
