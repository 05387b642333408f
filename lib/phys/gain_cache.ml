(* Precomputed pairwise received-power table.

   The point set of a [Sinr.t] is frozen for the life of the simulator, so
   the received power P/d(v,u)^alpha of every ordered pair is a constant of
   the deployment — yet the seed kernel re-derived it (a sqrt plus a libm
   pow) for every (sender, listener) pair of every slot.  This module
   stores the n x n table once, as flat unboxed rows.

   Bit-identity contract: a cached entry is produced by evaluating exactly
   the seed expression

       power /. (Point.dist points.(v) points.(u) ** alpha)

   (read off the [Soa] columns, whose [dist] is bit-identical to
   [Point.dist]) so reading the cache can never change a resolution
   outcome, a seeded experiment number or a Spec_check verdict.  The
   diagonal is stored as 0 and never read (a node is either the listener
   or a sender, and half-duplex listeners skip themselves).

   Memory cap, two levels:

   - Node ceiling: when n exceeds [node_ceiling] the cache is bypassed
     outright — no row-pointer array, no atomics, every lookup evaluates
     the seed formula directly.  An n x n table is quadratic by design;
     past ~10^4 nodes resolution runs on cell aggregates (Sparse) and a
     row cache is pure waste.  The decision is counted once per create on
     [phys.cache.bypassed].
   - Byte budget: below the ceiling, rows fill lazily (first touch wins)
     until the configured byte budget (Phys_tuning.cache_cap_bytes at
     Sinr.create time) is spent; past the cap only the slot's senders'
     entries are computed into the caller's per-domain scratch buffer and
     nothing is retained.  A miss therefore costs O(|S|), as the seed
     kernel does, instead of an O(n) row fill.  Row publication
     goes through an [Atomic.t] per row, so concurrent Pool workers (the
     Reliability Monte-Carlo) either see a fully initialized row or build
     their own — a lost race wastes one row fill of identical values,
     never correctness.

   Telemetry (when Sinr_obs.Metrics is enabled): phys.cache.hits,
   phys.cache.fills (rows retained), phys.cache.scratch_rows (listener
   lookups served from scratch past the cap or under the bypass),
   phys.cache.miss_pairs (entries evaluated on those misses: |S| per
   miss), phys.cache.bypassed (caches refused at the node ceiling). *)

open Sinr_obs

let m_hits = Metrics.counter "phys.cache.hits"
let m_fills = Metrics.counter "phys.cache.fills"
let m_scratch = Metrics.counter "phys.cache.scratch_rows"
let m_miss_pairs = Metrics.counter "phys.cache.miss_pairs"
let m_bypassed = Metrics.counter "phys.cache.bypassed"

type t = {
  power : float;
  alpha : float;
  soa : Soa.t;
  n : int;
  bypassed : bool;  (* n exceeded the node ceiling: no rows, ever *)
  rows : Float.Array.t option Atomic.t array;  (* empty when bypassed *)
  reserved : int Atomic.t;  (* rows admitted against the cap *)
  max_rows : int;
}

let create (config : Config.t) soa ~cap_bytes ~node_ceiling =
  let n = Soa.length soa in
  let row_bytes = max 1 (n * 8) in
  (* Refuse before allocating anything: past the ceiling even the
     row-pointer array (n words + n atomics) is quadratic-era waste. *)
  let bypassed = n > node_ceiling in
  if bypassed then Metrics.incr m_bypassed;
  { power = config.Config.power;
    alpha = config.Config.alpha;
    soa;
    n;
    bypassed;
    rows = (if bypassed then [||] else Array.init n (fun _ -> Atomic.make None));
    reserved = Atomic.make 0;
    max_rows = (if bypassed then 0 else max 0 (cap_bytes / row_bytes)) }

let n t = t.n
let max_rows t = t.max_rows
let bypassed t = t.bypassed

let rows_cached t = min t.max_rows (Atomic.get t.reserved)

let bytes_cached t = rows_cached t * t.n * 8

(* The seed formula, verbatim (Sinr.power_between inlined on node pairs). *)
let compute t ~sender:v ~receiver:u = t.power /. (Soa.dist t.soa v u ** t.alpha)

let fill_into t u (dst : Float.Array.t) =
  let soa = t.soa in
  let ux = Soa.unsafe_x soa u and uy = Soa.unsafe_y soa u in
  for v = 0 to t.n - 1 do
    Float.Array.unsafe_set dst v
      (if v = u then 0.
       else t.power /. (Soa.dist_to soa v ~x:ux ~y:uy ** t.alpha))
  done

(* Admit one more row against the byte budget. *)
let rec reserve t =
  let c = Atomic.get t.reserved in
  c < t.max_rows
  && (Atomic.compare_and_set t.reserved c (c + 1) || reserve t)

(* A miss: evaluate only the senders' entries of receiver [u]'s row into
   [scratch].  Every other entry is left as an earlier listener or slot
   wrote it; the kernels read exactly [ids.(0 .. nsend-1)]. *)
let fill_senders t u ~ids ~nsend (dst : Float.Array.t) =
  Metrics.incr m_scratch;
  Metrics.add m_miss_pairs nsend;
  let soa = t.soa in
  let ux = Soa.unsafe_x soa u and uy = Soa.unsafe_y soa u in
  for k = 0 to nsend - 1 do
    let v = Array.unsafe_get ids k in
    Float.Array.unsafe_set dst v
      (if v = u then 0.
       else t.power /. (Soa.dist_to soa v ~x:ux ~y:uy ** t.alpha))
  done;
  dst

let row t u ~ids ~nsend ~scratch =
  if t.bypassed then fill_senders t u ~ids ~nsend scratch
  else
    match Atomic.get t.rows.(u) with
    | Some r ->
      Metrics.incr m_hits;
      r
    | None ->
      if reserve t then begin
        let r = Float.Array.create t.n in
        fill_into t u r;
        Atomic.set t.rows.(u) (Some r);
        Metrics.incr m_fills;
        r
      end
      else fill_senders t u ~ids ~nsend scratch

(* Single-pair lookup (engine delivery power): O(1) when the receiver's
   row is resident, otherwise one direct evaluation — never a row fill. *)
let pair t ~sender ~receiver =
  if t.bypassed then compute t ~sender ~receiver
  else
    match Atomic.get t.rows.(receiver) with
    | Some r ->
      Metrics.incr m_hits;
      Float.Array.get r sender
    | None -> compute t ~sender ~receiver
