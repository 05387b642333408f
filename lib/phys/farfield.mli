(** Grid-pruned far-field interference with a bounded relative error.

    Senders in cells whose center lies beyond {!threshold} from a listener
    are aggregated per cell (one pow per occupied far cell); everything
    nearer is scored exactly. The aggregated interference [I'] obeys
    [|I' - I| <= eps * I], and because the threshold exceeds the
    transmission range plus the cell half-diagonal, the best-sender
    candidate is always scored exactly — only near-threshold decisions can
    flip. Off by default; opt in via [Phys_tuning.set_farfield]. *)

open Sinr_geom

type t

val create : Config.t -> Point.t array -> eps:float -> t
(** Raises [Invalid_argument] unless [eps] lies in (0, 1). *)

val eps : t -> float
val threshold : t -> float
(** Minimum cell-center distance for aggregation:
    [max (h / ((1+eps)^(1/alpha) - 1)) (R + h)] with [h] the cell
    half-diagonal. *)

val cell_size : t -> float

val resolve :
  t -> cache:Gain_cache.t -> scratch:Float.Array.t -> ids:int array ->
  nsend:int -> mark:Bytes.t -> result:int array -> unit
(** Score every listener ([mark.(u) = '\000']) against the first [nsend]
    senders of [ids], writing the decoded sender of each listener that
    decodes one into [result] (other entries are left untouched).
    Near-cell powers read the listener's cached row ([scratch], length
    [>= n], receives the senders' entries past the cache cap). *)

val interference : t -> receiver:int -> senders:int list -> float
(** The approximated total interference at a node, for asserting the
    eps bound against [Sinr.interference_at]. *)
