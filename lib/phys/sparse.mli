(** Sparse cell-aggregated slot resolution for large n.

    Resolves a slot touching only occupied grid cells: senders are
    bucketed into a fine grid (one sort, no per-cell allocation),
    listeners share one far-field sum per coarse cell, and coarse cells
    beyond decoding range of every occupied sender cell are skipped
    without visiting their members (exact — beta > 1 bounds the decodable
    range by R).  Far sender cells contribute center-distance aggregates
    with relative interference error at most [eps]; near senders and the
    best-sender candidate are always scored exactly.  Nothing n x n is
    ever materialized; per-slot memory is O(senders + coarse cells),
    held in domain-local scratch (safe under [Sinr_par.Pool] workers).

    Installed automatically by [Sinr.create] at
    [Phys_tuning.sparse_threshold] nodes and above (eps from
    [Phys_tuning.sparse_eps]). *)

type t

val create : Config.t -> Soa.t -> eps:float -> t
(** Build the grids over frozen position columns. Raises
    [Invalid_argument] unless [eps] lies in (0, 1). *)

val eps : t -> float
val fine_cells : t -> int
val coarse_cells : t -> int

val resolve :
  t -> ids:int array -> nsend:int -> mark:Bytes.t ->
  result:int array -> unit
(** Score every listener against the senders [ids.(0 .. nsend-1)] (whose
    membership bitmap is [mark]), writing the decoded sender of each
    listener that decodes one into [result] (other entries are left
    untouched). Same calling convention as the exact kernels in [Sinr]. *)

val interference :
  t -> ids:int array -> nsend:int -> receiver:int -> float
(** The approximate total incoming power at [receiver], accumulated
    exactly as {!resolve} does (shared far sum + exact near terms) — for
    asserting the eps bound in tests. *)
