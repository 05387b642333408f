(** Synchronous-slot SINR network simulator.

    Implements the model assumptions of paper Section 4.6: conditional
    wakeup (Definition 4.4), no collision detection, half-duplex radios,
    exact SINR reception. Polymorphic in the message type. *)

open Sinr_phys

type 'm action = Transmit of 'm | Listen

type 'm delivery = {
  receiver : int;
  sender : int;
  message : 'm;
  power : float;
      (** received power P/d^α of the decoded transmission (the observable
          of Remark 4.6's signal-strength assumption) *)
}

type 'm t

val create : ?wake_on_receive:bool -> ?trace:Trace.t -> Sinr.t -> 'm t
(** Fresh simulation with every node asleep. [wake_on_receive] (default
    true) makes asleep nodes wake when they decode a message, per the
    conditional-wakeup model. [trace] records Wake/Crash/Recover fault
    events as the simulation advances. *)

val set_perturb : 'm t -> (slot:int -> Sinr.perturb option) -> unit
(** Install a per-slot channel-perturbation hook (an adversary from
    [lib/chaos]). Consulted once per slot before SINR resolution; [None]
    keeps the clean-channel fast path. *)

val sinr : 'm t -> Sinr.t
val n : 'm t -> int
val slot : 'm t -> int
(** Slots executed so far (the global clock). *)

val tx_total : 'm t -> int
val delivery_total : 'm t -> int

val is_awake : 'm t -> int -> bool
val is_crashed : 'm t -> int -> bool

val wake : 'm t -> int -> unit
(** Environment wakeup (e.g. a [bcast] input). No effect on crashed nodes. *)

val wake_all : 'm t -> unit
val crash : 'm t -> int -> unit
(** Silence a node (fault injection). Idempotent: double-crash and
    crash-before-wake record a single Crash event. *)

val revive : 'm t -> int -> unit
(** Un-crash a node (crash–recover adversaries). The node rejoins asleep —
    conditional wakeup applies as for a fresh node. No effect on
    non-crashed nodes. *)

val awake_nodes : 'm t -> int list

val step :
  ?on_deliver:('m delivery -> unit) -> 'm t -> decide:(int -> 'm action) ->
  'm delivery list
(** Run one slot. [decide] is consulted only for awake, non-crashed nodes;
    all others listen. Returns the slot's deliveries. [on_deliver] is
    called once per delivery, while the engine is still walking the slot's
    outcome buffer: it must not step the same engine (directly or through
    {!run}), or the inner slot overwrites the outer one's buffers. *)

val run :
  ?on_deliver:('m delivery -> unit) ->
  ?on_slot:(slot:int -> 'm delivery list -> unit) ->
  'm t -> decide:(int -> 'm action) ->
  stop:(unit -> bool) -> max_slots:int -> int
(** Step until [stop ()] or [max_slots] slots; returns slots executed.
    [on_slot] fires after each slot with its index and deliveries. *)
