(** Process-global tuning knobs for the physics fast path.

    The cache and parallelism knobs never change a clean-channel
    resolution outcome. The sparse knobs do: a simulator with at least
    [sparse_threshold] nodes runs the ε-approximate [Sparse] path, whose
    relative interference error is at most [sparse_eps]; below the
    threshold resolution is exact. Values are read once per [Sinr.create]
    and captured in the instance. *)

val cache_cap_bytes : unit -> int
(** Memory budget for [Gain_cache] rows, in bytes. Default 64 MiB,
    overridable with the [SINR_PHYS_CACHE_MB] environment variable.
    [0] disables row retention entirely (every row is recomputed into a
    per-domain scratch buffer). *)

val set_cache_cap_bytes : int -> unit
(** Clamped to [>= 0]. *)

val par_threshold : unit -> int
(** Minimum node count before [Sinr.resolve] fans listeners out over the
    shared [Sinr_par.Pool] (and only when the pool default is > 1 job).
    Default 1024. *)

val set_par_threshold : int -> unit
(** Clamped to [>= 1]. *)

val sparse_threshold : unit -> int
(** Node count from which [Sinr.create] installs the sparse
    cell-aggregated resolution path. Default 4096, overridable with
    [SINR_SPARSE_THRESHOLD]; a non-positive value disables the automatic
    switch. Below the threshold resolution stays exact (bit-identical to
    [resolve_reference]). *)

val set_sparse_threshold : int -> unit
(** [n <= 0] disables the sparse path for simulators created from now
    on. *)

val sparse_eps : unit -> float
(** Relative interference error bound of the automatic sparse path:
    [|I' - I| <= eps * I]. Default 0.5, overridable with
    [SINR_SPARSE_EPS]. *)

val set_sparse_eps : float -> unit
(** Raises [Invalid_argument] unless the eps lies in (0, 1). *)

val cache_node_ceiling : unit -> int
(** Node count above which [Gain_cache] is bypassed outright: no row is
    ever allocated, lookups evaluate the seed formula directly, and the
    decision is visible as the [phys.cache.bypassed] counter. Default
    8192, overridable with [SINR_CACHE_NODE_CEILING]. *)

val set_cache_node_ceiling : int -> unit
(** Clamped to [>= 0] ([0] bypasses the cache at every size). *)
