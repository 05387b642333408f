(** Exact SINR reception resolution (paper Eq. 1).

    Because β > 1 at most one concurrent sender is decodable per listener;
    transmitters are half-duplex; there is no collision detection.

    Resolution runs on a cached-gain fast path (see DESIGN.md "Physics
    fast path"): link powers are read from a precomputed per-receiver row
    that stores bit-identical results of the seed formula, so outcomes —
    including every seeded experiment number — are unchanged. The seed
    kernel is kept as {!resolve_reference} for equivalence tests and
    benchmarks. *)

open Sinr_geom

type t

val create : Config.t -> Point.t array -> t
(** Raises [Invalid_argument] if any pairwise distance is below 1 (the
    near-field normalization of Section 4.2). Captures the current
    [Phys_tuning] knobs (gain-cache byte cap + node ceiling, sparse
    threshold/eps, parallelism threshold). From
    [Phys_tuning.sparse_threshold] nodes on the sparse cell-aggregated
    path is installed. *)

val create_soa : ?check:bool -> Config.t -> Soa.t -> t
(** Column-first constructor for streaming placements at large n: the
    boxed [points] view is materialized lazily, only if something forces
    it. [check] (default true) validates the min-distance invariant;
    generators that guarantee it by construction pass [~check:false]. *)

val config : t -> Config.t

val soa : t -> Soa.t
(** The flat position columns every kernel reads. *)

val points : t -> Point.t array
(** The boxed record view (forces the lazy materialization at first use —
    geometry/graph consumers only, never the hot path). *)

val n : t -> int

val gain_cache : t -> Gain_cache.t
(** The instance's pairwise received-power table (for stats and tests). *)

val sparse : t -> Sparse.t option
(** The sparse cell-aggregated resolution state, when the node count
    reached [Phys_tuning.sparse_threshold] at creation. *)

val power_between : t -> from:Point.t -> at:Point.t -> float
(** Received power [P/d^α] between two plane positions. *)

val power : t -> sender:int -> receiver:int -> float
(** Received power of the node link [sender → receiver]; same value as
    {!power_between} on their positions, served from the gain cache when
    the receiver's row is resident. *)

val interference_at : t -> senders:int list -> at:Point.t -> float
(** Total power arriving at a plane position from the given transmitters. *)

val link_sinr : t -> senders:int list -> sender:int -> receiver:int -> float
(** SINR of the link [sender → receiver] against [senders] (which must
    contain [sender]). *)

type perturb = {
  noise_factor : int -> float;
      (** multiplier on the ambient noise N seen by a receiver (jamming) *)
  gain : sender:int -> receiver:int -> float;
      (** multiplier on one link's received power (fading) *)
}
(** One slot's adversarial channel state (see [lib/chaos]). Factor 1
    everywhere is the identity; omitting the perturbation entirely keeps
    the clean-channel fast path. Perturbed gains multiply the cached
    clean-channel powers. *)

val no_perturb : perturb
(** The identity perturbation. *)

val reception : ?perturb:perturb -> t -> senders:int list -> receiver:int -> int option
(** The sender decoded by [receiver] in a slot where exactly [senders]
    transmit; [None] if the receiver transmits or decodes nothing.
    Membership is one O(|senders|) bitmap pass (then O(1)); scoring goes
    through the shared cached kernel. *)

val resolve : ?perturb:perturb -> t -> senders:int list -> int option array
(** Per-node decoding outcome for a whole slot, in O(|senders| · n). *)

val resolve_array :
  ?perturb:perturb -> t -> senders:int array -> nsenders:int ->
  into:int array -> unit
(** {!resolve} with the senders given as the first [nsenders] entries of a
    reusable array (only read), and the outcome written into the
    caller-owned [into] (length [>= n]): [into.(u)] is the sender [u]
    decodes, or [-1] for transmitters and for listeners that decode
    nothing. Every entry below [n] is overwritten, so no outcome of an
    earlier call survives. The allocation-free entry point for the
    engine's slot loop and Monte-Carlo trial loops. Raises
    [Invalid_argument] if [nsenders] exceeds [senders], [into] is shorter
    than [n], or a sender is out of range. *)

val resolve_reference : ?perturb:perturb -> t -> senders:int list -> int option array
(** The seed kernel, verbatim: re-derives every link power per pair per
    slot. The fast path is asserted bit-identical to this by the test
    suite; `bench/main.exe phys` measures the gap. *)

val in_range : t -> int -> int -> bool
(** Weak reachability: distance at most the transmission range R. *)
