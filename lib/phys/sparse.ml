(* Sparse cell-aggregated slot resolution for large n.

   The exact kernels walk every (listener, sender) pair: O(s * n) per slot,
   hopeless at n = 10^5..10^6.  This module resolves a slot touching only
   *occupied* grid cells, with cost O(s log s + A*(C + near pairs)) where
   s is the slot's sender count, C <= s the number of occupied sender
   cells and A the number of *active* listener cells — silent regions of
   the plane are never visited and nothing n x n is ever materialized.

   Two grids over the frozen [Soa] columns:

   - a fine grid (cell side ~R/2, doubled until the grid has O(n) cells
     even for pathological spreads like the two-lines construction)
     buckets the slot's senders: one sort of the sender ids by fine cell
     key, no per-cell allocation;
   - a coarse grid (4x4 fine cells) groups listeners: all listeners of a
     coarse cell share one far-field interference sum, computed once per
     (coarse cell, occupied fine cell) pair.

   Far/near split: a sender cell whose center is at least max(Dmin, R + h)
   from the listener cell's center contributes its aggregate
   count * P/d(centers)^alpha; anything closer is scored exactly per
   listener.  With h the sum of the two cells' half-diagonals
   and Dmin = h / ((1+eps)^(1/alpha) - 1), the far sum's relative error
   is bounded by eps (each far pair's true distance is within [d-h, d+h]
   of the center distance, and d >= Dmin makes the power ratio at most
   1+eps).  The best-sender candidate is always scored exactly: decisions
   can flip only when the eps-perturbed interference crosses the beta
   threshold, never because the signal itself was approximated.

   Exact silence skipping: a listener can decode only a sender within
   R = (P / (beta N))^(1/alpha) (beta > 1 forces the best sender past the
   noise floor alone).  A coarse cell whose center is farther than
   R + h from every occupied sender cell's center therefore decodes
   nothing — the whole cell is skipped without looking at its members.
   This is exact, not part of the eps approximation.

   Per-slot state lives in domain-local scratch (the [Sinr] pattern:
   busy flag, grow-only arrays, stamp-based set membership), so
   Reliability's Pool workers can resolve concurrently on one instance.
   Determinism: for a fixed sender array the sort key is (fine cell,
   input position), so accumulation order — and every float — is a pure
   function of the input, whatever the domain count. *)

open Sinr_obs

let m_slots = Metrics.counter "phys.sparse.slots"
let m_active = Metrics.counter "phys.sparse.active_cells"
let m_near = Metrics.counter "phys.sparse.near_links"
let m_far = Metrics.counter "phys.sparse.far_cell_pairs"

type t = {
  power : float;
  alpha : float;
  half_alpha : float;
  alpha3 : bool;  (* d^alpha = d2 * sqrt d2 for the default alpha = 3 *)
  beta : float;
  noise : float;
  eps : float;
  x0 : float;
  y0 : float;
  cf : float;  (* fine cell side *)
  inv_cf : float;
  ncx : int;
  ncy : int;
  cc : float;  (* coarse cell side = 4 * cf *)
  mcx : int;
  mcy : int;
  mcells : int;
  active_r2 : float;  (* center-to-center radius of possibly-decoding cells *)
  window : float;     (* finite marking radius (active_r clamped to grid) *)
  threshold2 : float; (* squared center distance of the far/near split *)
  soa : Soa.t;
  fine_of : int array;    (* node -> fine cell key *)
  cstart : int array;     (* coarse cell -> offset into cmembers, len mcells+1 *)
  cmembers : int array;   (* node ids grouped by coarse cell *)
}

let coarse_k = 4

let create (config : Config.t) soa ~eps =
  if eps <= 0. || eps >= 1. then invalid_arg "Sparse.create: eps not in (0, 1)";
  let n = Soa.length soa in
  let alpha = config.Config.alpha in
  let r = Config.range config in
  let xmin, ymin, xmax, ymax = Soa.bounds soa in
  let spanx = xmax -. xmin and spany = ymax -. ymin in
  (* Fine cell ~R/2, doubled until the dense grid stays O(n) cells even
     for spread-out layouts (two-lines with a huge gap, say). *)
  let max_cells = max 4096 (8 * n) in
  let cf = ref (Float.max 1. (r /. 2.)) in
  let dims () =
    ( int_of_float (spanx /. !cf) + 1,
      int_of_float (spany /. !cf) + 1 )
  in
  let ncx = ref 0 and ncy = ref 0 in
  let cx, cy = dims () in
  ncx := cx;
  ncy := cy;
  while !ncx * !ncy > max_cells do
    cf := !cf *. 2.;
    let cx, cy = dims () in
    ncx := cx;
    ncy := cy
  done;
  let cf = !cf and ncx = !ncx and ncy = !ncy in
  let cc = float_of_int coarse_k *. cf in
  let mcx = (ncx + coarse_k - 1) / coarse_k in
  let mcy = (ncy + coarse_k - 1) / coarse_k in
  let mcells = mcx * mcy in
  let half_diag side = side *. sqrt 2. /. 2. in
  let h = half_diag cf +. half_diag cc in
  let denom = ((1. +. eps) ** (1. /. alpha)) -. 1. in
  let dmin = h /. denom in
  let threshold = Float.max dmin (r +. h) +. 1e-9 in
  let active_r = r +. h +. 1e-9 in
  (* Window stays finite even when R is (noise 0 makes it infinite): a
     radius covering the whole grid marks every cell, which is correct,
     just no longer sparse. *)
  let window =
    let diag = float_of_int (max mcx mcy) *. cc *. 2. in
    if Float.is_finite active_r then Float.min active_r diag else diag
  in
  let fine_of = Array.make n 0 in
  let clampi v hi = if v < 0 then 0 else if v > hi then hi else v in
  for i = 0 to n - 1 do
    let kx = clampi (int_of_float ((Soa.unsafe_x soa i -. xmin) /. cf)) (ncx - 1) in
    let ky = clampi (int_of_float ((Soa.unsafe_y soa i -. ymin) /. cf)) (ncy - 1) in
    fine_of.(i) <- (ky * ncx) + kx
  done;
  (* Counting sort of the nodes into their coarse cells. *)
  let coarse_of_fine key =
    let kx = key mod ncx and ky = key / ncx in
    ((ky / coarse_k) * mcx) + (kx / coarse_k)
  in
  let cstart = Array.make (mcells + 1) 0 in
  for i = 0 to n - 1 do
    let g = coarse_of_fine fine_of.(i) in
    cstart.(g + 1) <- cstart.(g + 1) + 1
  done;
  for g = 1 to mcells do
    cstart.(g) <- cstart.(g) + cstart.(g - 1)
  done;
  let fill = Array.copy cstart in
  let cmembers = Array.make n 0 in
  for i = 0 to n - 1 do
    let g = coarse_of_fine fine_of.(i) in
    cmembers.(fill.(g)) <- i;
    fill.(g) <- fill.(g) + 1
  done;
  { power = config.Config.power;
    alpha;
    half_alpha = alpha /. 2.;
    alpha3 = alpha = 3.;
    beta = config.Config.beta;
    noise = config.Config.noise;
    eps;
    x0 = xmin;
    y0 = ymin;
    cf;
    inv_cf = 1. /. cf;
    ncx;
    ncy;
    cc;
    mcx;
    mcy;
    mcells;
    active_r2 = active_r *. active_r;
    window;
    threshold2 = threshold *. threshold;
    soa;
    fine_of;
    cstart;
    cmembers }

let eps t = t.eps
let fine_cells t = t.ncx * t.ncy
let coarse_cells t = t.mcells

(* ------------------------------------------------------------------ *)
(* Per-domain slot scratch                                             *)
(* ------------------------------------------------------------------ *)

type scratch = {
  mutable cell_key : int array;     (* occupied fine cell -> fine key *)
  mutable cell_beg : int array;     (* -> first index in the sorted order *)
  mutable cell_cnt : int array;     (* -> sender count *)
  mutable cell_cx : float array;    (* -> cell center *)
  mutable cell_cy : float array;
  mutable near : int array;         (* near cell indices for one coarse cell *)
  mutable seen : int array;         (* coarse-cell stamps *)
  mutable active : int array;       (* marked coarse cells *)
  mutable stamp : int;
  mutable busy : bool;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { cell_key = [||];
        cell_beg = [||];
        cell_cnt = [||];
        cell_cx = [||];
        cell_cy = [||];
        near = [||];
        seen = [||];
        active = [||];
        stamp = 0;
        busy = false })

let fresh_scratch ~cells ~mcells =
  { cell_key = Array.make cells 0;
    cell_beg = Array.make cells 0;
    cell_cnt = Array.make cells 0;
    cell_cx = Array.make cells 0.;
    cell_cy = Array.make cells 0.;
    near = Array.make cells 0;
    seen = Array.make mcells 0;
    active = Array.make mcells 0;
    stamp = 0;
    busy = false }

let with_scratch ~cells ~mcells f =
  let sc = Domain.DLS.get scratch_key in
  if sc.busy then f (fresh_scratch ~cells ~mcells)
  else begin
    sc.busy <- true;
    if Array.length sc.cell_key < cells then begin
      sc.cell_key <- Array.make cells 0;
      sc.cell_beg <- Array.make cells 0;
      sc.cell_cnt <- Array.make cells 0;
      sc.cell_cx <- Array.make cells 0.;
      sc.cell_cy <- Array.make cells 0.;
      sc.near <- Array.make cells 0
    end;
    (* Fresh stamp arrays start zeroed; the running stamp is always >= 1,
       so grown entries can never read as marked. *)
    if Array.length sc.seen < mcells then begin
      sc.seen <- Array.make mcells 0;
      sc.active <- Array.make mcells 0
    end;
    Fun.protect ~finally:(fun () -> sc.busy <- false) (fun () -> f sc)
  end

(* ------------------------------------------------------------------ *)
(* Slot resolution                                                     *)
(* ------------------------------------------------------------------ *)

(* d^alpha from d^2, avoiding libm pow on the default alpha = 3. *)
let[@inline] pow_alpha t d2 =
  if t.alpha3 then d2 *. sqrt d2 else d2 ** t.half_alpha

(* Bucket the slot's senders by fine cell: sort keys (cell, position) so
   grouping is one linear walk and the within-cell order is the input
   order (deterministic accumulation).  Returns the sorted key array; the
   sender at sorted position [j] is [ids.(combo.(j) land mask)]. *)
let bucket t sc ~ids ~nsend =
  let stride =
    let s = ref 1 in
    while !s < nsend do
      s := !s * 2
    done;
    !s
  in
  let mask = stride - 1 in
  let combo =
    Array.init nsend (fun k -> (t.fine_of.(ids.(k)) * stride) + k)
  in
  Array.sort (fun a b -> compare (a : int) b) combo;
  let ncells = ref 0 in
  let k = ref 0 in
  while !k < nsend do
    let key = combo.(!k) / stride in
    let j = ref !k in
    while !j < nsend && combo.(!j) / stride = key do
      incr j
    done;
    let c = !ncells in
    sc.cell_key.(c) <- key;
    sc.cell_beg.(c) <- !k;
    sc.cell_cnt.(c) <- !j - !k;
    sc.cell_cx.(c) <-
      t.x0 +. ((float_of_int (key mod t.ncx) +. 0.5) *. t.cf);
    sc.cell_cy.(c) <-
      t.y0 +. ((float_of_int (key / t.ncx) +. 0.5) *. t.cf);
    incr ncells;
    k := !j
  done;
  (combo, mask, !ncells)

(* Mark every coarse cell whose center lies within the active radius of
   an occupied sender cell's center; cells outside cannot decode (see the
   header proof) and are never visited. *)
let mark_active t sc ~ncells =
  sc.stamp <- sc.stamp + 1;
  let stamp = sc.stamp in
  let nactive = ref 0 in
  let w = t.window in
  for c = 0 to ncells - 1 do
    let cx = sc.cell_cx.(c) and cy = sc.cell_cy.(c) in
    let gxlo = max 0 (int_of_float ((cx -. w -. t.x0) /. t.cc)) in
    let gxhi = min (t.mcx - 1) (int_of_float ((cx +. w -. t.x0) /. t.cc)) in
    let gylo = max 0 (int_of_float ((cy -. w -. t.y0) /. t.cc)) in
    let gyhi = min (t.mcy - 1) (int_of_float ((cy +. w -. t.y0) /. t.cc)) in
    for gy = gylo to gyhi do
      let gyc = t.y0 +. ((float_of_int gy +. 0.5) *. t.cc) in
      for gx = gxlo to gxhi do
        let g = (gy * t.mcx) + gx in
        if sc.seen.(g) <> stamp then begin
          let gxc = t.x0 +. ((float_of_int gx +. 0.5) *. t.cc) in
          let dx = gxc -. cx and dy = gyc -. cy in
          if (dx *. dx) +. (dy *. dy) <= t.active_r2 then begin
            sc.seen.(g) <- stamp;
            sc.active.(!nactive) <- g;
            incr nactive
          end
        end
      done
    done
  done;
  !nactive

let resolve t ~ids ~nsend ~mark ~(result : int array) =
  if nsend > 0 then
    with_scratch ~cells:(max 1 nsend) ~mcells:(max 1 t.mcells) @@ fun sc ->
    let combo, mask, ncells = bucket t sc ~ids ~nsend in
    let nactive = mark_active t sc ~ncells in
    let telemetry = Metrics.is_enabled () in
    if telemetry then begin
      Metrics.incr m_slots;
      Metrics.add m_active nactive
    end;
    let near_links = ref 0 and far_pairs = ref 0 in
    let soa = t.soa in
    let power = t.power and beta = t.beta and noise = t.noise in
    for a = 0 to nactive - 1 do
      let g = sc.active.(a) in
      let mbeg = t.cstart.(g) and mend = t.cstart.(g + 1) in
      (* A marked cell with no members is still silent: skip. *)
      if mbeg < mend then begin
        let gxc = t.x0 +. ((float_of_int (g mod t.mcx) +. 0.5) *. t.cc) in
        let gyc = t.y0 +. ((float_of_int (g / t.mcx) +. 0.5) *. t.cc) in
        (* One pass over the occupied sender cells: aggregate the far
           ones into the shared sum, collect the near ones. *)
        let far = ref 0. in
        let nnear = ref 0 in
        for c = 0 to ncells - 1 do
          let dx = sc.cell_cx.(c) -. gxc and dy = sc.cell_cy.(c) -. gyc in
          let d2 = (dx *. dx) +. (dy *. dy) in
          if d2 >= t.threshold2 then
            far :=
              !far
              +. (float_of_int sc.cell_cnt.(c) *. (power /. pow_alpha t d2))
          else begin
            sc.near.(!nnear) <- c;
            incr nnear
          end
        done;
        if telemetry then far_pairs := !far_pairs + (ncells - !nnear);
        let far = !far and nnear = !nnear in
        let near_sz = ref 0 in
        for q = 0 to nnear - 1 do
          near_sz := !near_sz + sc.cell_cnt.(sc.near.(q))
        done;
        let near_sz = !near_sz in
        for m = mbeg to mend - 1 do
          let u = Array.unsafe_get t.cmembers m in
          if Bytes.unsafe_get mark u = '\000' then begin
            let ux = Soa.unsafe_x soa u and uy = Soa.unsafe_y soa u in
            let total = ref far in
            let best = ref (-1) and best_pw = ref 0. in
            for q = 0 to nnear - 1 do
              let c = Array.unsafe_get sc.near q in
              let jbeg = sc.cell_beg.(c) in
              for j = jbeg to jbeg + sc.cell_cnt.(c) - 1 do
                let v =
                  Array.unsafe_get ids (Array.unsafe_get combo j land mask)
                in
                let dx = Soa.unsafe_x soa v -. ux
                and dy = Soa.unsafe_y soa v -. uy in
                let d2 = (dx *. dx) +. (dy *. dy) in
                let pw = power /. pow_alpha t d2 in
                total := !total +. pw;
                if pw > !best_pw then begin
                  best_pw := pw;
                  best := v
                end
              done
            done;
            if telemetry then near_links := !near_links + near_sz;
            if !best >= 0
               && !best_pw >= beta *. (noise +. !total -. !best_pw)
            then result.(u) <- !best
          end
        done
      end
    done;
    if telemetry then begin
      Metrics.add m_near !near_links;
      Metrics.add m_far !far_pairs
    end

(* Approximate total incoming power at listener [u], exactly as the
   resolve kernel accumulates it (shared far sum of u's coarse cell plus
   exact near terms).  Exposed so tests can assert the eps bound against
   the exact interference sum. *)
let interference t ~ids ~nsend ~receiver:u =
  if nsend = 0 then 0.
  else
    with_scratch ~cells:(max 1 nsend) ~mcells:(max 1 t.mcells) @@ fun sc ->
    let combo, mask, ncells = bucket t sc ~ids ~nsend in
    let kx = t.fine_of.(u) mod t.ncx and ky = t.fine_of.(u) / t.ncx in
    let g = ((ky / coarse_k) * t.mcx) + (kx / coarse_k) in
    let gxc = t.x0 +. ((float_of_int (g mod t.mcx) +. 0.5) *. t.cc) in
    let gyc = t.y0 +. ((float_of_int (g / t.mcx) +. 0.5) *. t.cc) in
    let total = ref 0. in
    let ux = Soa.x t.soa u and uy = Soa.y t.soa u in
    for c = 0 to ncells - 1 do
      let dx = sc.cell_cx.(c) -. gxc and dy = sc.cell_cy.(c) -. gyc in
      let d2 = (dx *. dx) +. (dy *. dy) in
      if d2 >= t.threshold2 then
        total :=
          !total +. (float_of_int sc.cell_cnt.(c) *. (t.power /. pow_alpha t d2))
      else begin
        let jbeg = sc.cell_beg.(c) in
        for j = jbeg to jbeg + sc.cell_cnt.(c) - 1 do
          let v = ids.(combo.(j) land mask) in
          let dx = Soa.unsafe_x t.soa v -. ux
          and dy = Soa.unsafe_y t.soa v -. uy in
          let d2 = (dx *. dx) +. (dy *. dy) in
          total := !total +. (t.power /. pow_alpha t d2)
        done
      end
    done;
    !total
