type t = {
  mutable hashes : int array;  (* slot -> stored hash *)
  mutable ids : int array;  (* slot -> id, -1 = empty *)
  mutable mask : int;  (* capacity - 1; capacity a power of two *)
  mutable length : int;
}

let create n =
  let cap = ref 16 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  { hashes = Array.make !cap 0; ids = Array.make !cap (-1); mask = !cap - 1; length = 0 }

let find t hash equal ctx key =
  let mask = t.mask and hashes = t.hashes and ids = t.ids in
  let s = ref (hash land mask) in
  let result = ref (-1) in
  let continue = ref true in
  while !continue do
    let id = Array.unsafe_get ids !s in
    if id < 0 then continue := false
    else if Array.unsafe_get hashes !s = hash && equal ctx key id then begin
      result := id;
      continue := false
    end
    else s := (!s + 1) land mask
  done;
  !result

let insert_raw t hash id =
  let mask = t.mask in
  let s = ref (hash land mask) in
  while t.ids.(!s) >= 0 do
    s := (!s + 1) land mask
  done;
  t.hashes.(!s) <- hash;
  t.ids.(!s) <- id

let grow t =
  let old_hashes = t.hashes and old_ids = t.ids in
  let cap = 2 * (t.mask + 1) in
  t.hashes <- Array.make cap 0;
  t.ids <- Array.make cap (-1);
  t.mask <- cap - 1;
  Array.iteri (fun s id -> if id >= 0 then insert_raw t old_hashes.(s) id) old_ids

let add t hash id =
  if id < 0 then invalid_arg "Interner.add: negative id";
  if 2 * (t.length + 1) > t.mask + 1 then grow t;
  insert_raw t hash id;
  t.length <- t.length + 1
