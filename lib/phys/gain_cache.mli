(** Precomputed n x n received-power table for a frozen point set.

    Entries are produced by evaluating the seed formula
    [power /. (dist v u ** alpha)] verbatim on the [Soa] columns, so
    reading the cache is bit-identical to computing on the fly. Rows fill
    lazily (first touch wins, atomic publication — safe under
    [Sinr_par.Pool] workers) until the byte budget is spent; past the cap
    a lookup evaluates only the slot's senders into the caller's scratch
    buffer, so a miss costs O(|S|) rather than O(n).

    When the node count exceeds [node_ceiling] the cache is refused
    outright before any allocation: no row-pointer array exists, every
    lookup evaluates the formula directly, and the decision ticks the
    [phys.cache.bypassed] counter. *)

type t

val create : Config.t -> Soa.t -> cap_bytes:int -> node_ceiling:int -> t

val n : t -> int

val max_rows : t -> int
(** How many rows the byte budget admits (0 when bypassed). *)

val bypassed : t -> bool
(** The node count exceeded the ceiling: no row will ever be allocated. *)

val rows_cached : t -> int
val bytes_cached : t -> int

val row :
  t -> int -> ids:int array -> nsend:int -> scratch:Float.Array.t ->
  Float.Array.t
(** [row t u ~ids ~nsend ~scratch] is receiver [u]'s power row, valid at
    the senders [ids.(0 .. nsend-1)]: index [v] holds the received power
    of a transmission from [v] at [u] (diagonal 0, never meaningful).
    Returns the resident row (every entry valid), filling and retaining
    it on first touch while the byte budget lasts. Past the budget, or
    when the cache is bypassed, it writes only the senders' entries of
    [scratch] (length [>= n t]) and returns it: the other entries are
    whatever an earlier lookup left there and must not be read. Each such
    miss ticks [phys.cache.scratch_rows] once and [phys.cache.miss_pairs]
    by [nsend]. *)

val pair : t -> sender:int -> receiver:int -> float
(** One entry: cached when the receiver's row is resident, otherwise a
    direct evaluation of the same expression. Never triggers a row fill. *)

val compute : t -> sender:int -> receiver:int -> float
(** The uncached seed expression (exposed for tests). *)
