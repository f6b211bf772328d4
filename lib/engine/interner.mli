(** Open-addressing interner: dense ids for keys the caller stores.

    The table maps a key to the id the caller gave it on {!add}; the keys
    themselves live with the caller (a state array, a cell array), so an
    entry is two ints — the key's hash and its id — in two flat arrays.
    Lookups probe linearly from [hash land mask] over a power-of-two
    capacity kept at most half full, compare the stored hash first and
    only then call the caller's equality. A lookup therefore costs the
    caller's one hash, allocates nothing and never calls polymorphic
    compare.

    Nothing iterates the table in slot order except {!add}'s own regrowth,
    which moves entries without renumbering them: ids are whatever the
    caller assigned (first-insert order at every call site), so no result
    can depend on hash values. {!find} does not mutate, so a table that is
    no longer added to may be shared across {!Pool} domains. *)

type t

val create : int -> t
(** [create n] is an empty table sized for [n] entries without regrowth. *)

val find : t -> int -> ('c -> 'k -> int -> bool) -> 'c -> 'k -> int
(** [find t hash equal ctx key] is the id [i] of the first entry on
    [key]'s probe run whose stored hash is [hash] and for which
    [equal ctx key i] holds, or [-1]. Equal keys must have equal hashes.
    Pass a closed [equal] (one that reads the caller's keys through
    [ctx]) to keep the lookup free of allocation. *)

val add : t -> int -> int -> unit
(** [add t hash id] records [id] under [hash]. The caller has checked with
    {!find} that no equal key is present; [id] must be non-negative.
    Amortized O(1). *)
