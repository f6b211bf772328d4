type 'a t = {
  states : 'a array;
  normalize : 'a -> 'a;
  equal : 'a -> 'a -> bool;
  interner : Engine.Interner.t;  (** [Hashtbl.hash state] -> index *)
}

let stored t s i = t.equal t.states.(i) s

let lookup t s = Engine.Interner.find t.interner (Hashtbl.hash s) stored t s

let of_enumerable (e : _ Engine.Enumerable.t) =
  let states = Array.of_list e.Engine.Enumerable.states in
  let t =
    {
      states;
      normalize = e.Engine.Enumerable.normalize;
      equal = e.Engine.Enumerable.protocol.Engine.Protocol.equal;
      interner = Engine.Interner.create (Array.length states);
    }
  in
  Array.iteri
    (fun i s ->
      if not (t.equal (t.normalize s) s) then
        invalid_arg
          (Format.asprintf "Statespace: normalize is not the identity on declared state %a"
             e.Engine.Enumerable.protocol.Engine.Protocol.pp s);
      let j = lookup t s in
      if j >= 0 then
        invalid_arg
          (Format.asprintf "Statespace: declared states %d and %d are duplicates (%a)" j i
             e.Engine.Enumerable.protocol.Engine.Protocol.pp s);
      Engine.Interner.add t.interner (Hashtbl.hash s) i)
    states;
  t

let size t = Array.length t.states

let state t i = t.states.(i)

let states t = t.states

let rec scan t s i =
  if i >= Array.length t.states then -1 else if t.equal t.states.(i) s then i else scan t s (i + 1)

let index t s =
  let s = t.normalize s in
  let i = lookup t s in
  if i >= 0 then i
  else
    (* The normalized representative may be structurally different from
       the stored one for states outside the declared space; fall back to
       a linear [equal] scan so that escapes are reported only for
       genuinely undeclared states, never for hashing artifacts. *)
    scan t s 0
