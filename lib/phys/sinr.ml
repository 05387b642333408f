(* Exact SINR reception resolution (paper Eq. 1).

   Given the set S of concurrently transmitting nodes, a listening node u
   decodes the message of v in S iff

     P/d(v,u)^alpha >= beta * (N + I(u) - P/d(v,u)^alpha)

   where I(u) = sum_{w in S} P/d(w,u)^alpha is the total incoming power.
   Because beta > 1, at most one sender can satisfy this at u, so reception
   resolves to at most one message per listener per slot.  Transmitters are
   half-duplex: a node in S never receives.  There is no collision
   detection: a listener that decodes nothing learns nothing (Section 4.6).

   Fast path (see DESIGN.md "Physics fast path").  The point set is frozen
   for the life of the simulator, so link powers are constants: resolution
   reads them from a per-receiver [Gain_cache] row (bit-identical to the
   direct formula) instead of re-deriving a sqrt and a libm pow per pair
   per slot.  Senders travel as an int array plus a membership bitmap held
   in per-domain scratch (no per-slot list/tuple churn), perturbed gains
   multiply the cached clean-channel power, listeners fan out over
   [Sinr_par.Pool] past [Phys_tuning.par_threshold], and from
   [Phys_tuning.sparse_threshold] nodes on the [Sparse] path aggregates
   far interference with a bounded eps error.  [resolve_reference] keeps
   the seed kernel verbatim so tests and benches can assert the
   equivalence. *)

open Sinr_geom
open Sinr_par
open Sinr_obs

let m_resolve_calls = Metrics.counter "phys.resolve.calls"
let m_resolve_links = Metrics.counter "phys.resolve.links"
let m_resolve_ns = Metrics.histogram "phys.resolve.ns"

type t = {
  config : Config.t;
  soa : Soa.t;  (* hot state: flat position columns, read by every kernel *)
  points : Point.t array Lazy.t;
      (* boxed record view, forced only by geometry/graph consumers
         (Induced, Spec_check, the experiments) — never by the hot path *)
  cache : Gain_cache.t;
  sparse : Sparse.t option;
  par_threshold : int;
}

(* Shared constructor body: [points] must be the record view of [soa]
   (lazily, so the column-first path at n = 10^6 never boxes a point). *)
let make config soa points =
  (* Tuning knobs are captured here: flipping them later never changes an
     existing simulator. *)
  let sparse =
    (* Large simulators auto-install the sparse cell-aggregated path. *)
    if Soa.length soa >= Phys_tuning.sparse_threshold ()
    then Some (Sparse.create config soa ~eps:(Phys_tuning.sparse_eps ()))
    else None
  in
  { config;
    soa;
    points;
    cache =
      Gain_cache.create config soa
        ~cap_bytes:(Phys_tuning.cache_cap_bytes ())
        ~node_ceiling:(Phys_tuning.cache_node_ceiling ());
    sparse;
    par_threshold = Phys_tuning.par_threshold () }

let validate_min_dist ~who points =
  let dmin = Placement.min_pairwise_dist points in
  if dmin < 1. -. 1e-9 then
    invalid_arg
      (Fmt.str "%s: min pairwise distance %.4g violates the \
                near-field normalization (must be >= 1)" who dmin)

let create config points =
  if Array.length points = 0 then invalid_arg "Sinr.create: no nodes";
  validate_min_dist ~who:"Sinr.create" points;
  make config (Soa.of_points points) (Lazy.from_val points)

(* Column-first constructor (streaming placements at large n).  [check]
   defaults to true; generators that guarantee the min-distance invariant
   by construction pass [~check:false] to skip the O(n) validation pass
   (and its temporary boxed view). *)
let create_soa ?(check = true) config soa =
  if Soa.length soa = 0 then invalid_arg "Sinr.create_soa: no nodes";
  if check then validate_min_dist ~who:"Sinr.create_soa" (Soa.to_points soa);
  make config soa (lazy (Soa.to_points soa))

let config t = t.config
let soa t = t.soa
let points t = Lazy.force t.points
let n t = Soa.length t.soa
let gain_cache t = t.cache
let sparse t = t.sparse

(* A per-slot channel perturbation, supplied by an adversary (lib/chaos):
   [noise_factor u] scales the ambient noise N seen by receiver u (jamming
   raises it), [gain ~sender ~receiver] scales the received power of one
   link (multiplicative fading makes gray-zone links flap).  The identity
   perturbation is factor 1 everywhere; [None] keeps the exact clean-channel
   fast path. *)
type perturb = {
  noise_factor : int -> float;
  gain : sender:int -> receiver:int -> float;
}

let no_perturb =
  { noise_factor = (fun _ -> 1.);
    gain = (fun ~sender:_ ~receiver:_ -> 1.) }

(* Received power at plane position [at] from a transmitter at [from]. *)
let power_between t ~from ~at =
  let d = Point.dist from at in
  if d <= 0. then invalid_arg "Sinr.power_between: coincident points";
  t.config.Config.power /. (d ** t.config.Config.alpha)

(* Cached received power of the node link v -> u (same value as
   [power_between] on their positions, read from the gain table when the
   receiver's row is resident). *)
let power t ~sender ~receiver = Gain_cache.pair t.cache ~sender ~receiver

(* Total power arriving at [at] when exactly the nodes of [senders]
   transmit; [at] may be any plane position (Lemma 10.3 evaluates
   interference at arbitrary points i). *)
let interference_at t ~senders ~at =
  let pts = Lazy.force t.points in
  List.fold_left (fun acc s -> acc +. power_between t ~from:pts.(s) ~at) 0. senders

(* SINR of the link v -> u against the sender set (which must include v). *)
let link_sinr t ~senders ~sender:v ~receiver:u =
  let pts = Lazy.force t.points in
  let at = pts.(u) in
  let signal = power_between t ~from:pts.(v) ~at in
  let total = interference_at t ~senders ~at in
  signal /. (t.config.Config.noise +. total -. signal)

(* ------------------------------------------------------------------ *)
(* Per-domain scratch                                                  *)
(* ------------------------------------------------------------------ *)

(* Sender ids + membership bitmap, and a row buffer for the sender
   entries of uncached gain rows.  Held in domain-local storage so Pool
   workers never share, with a busy flag so reentrant use (a perturb
   closure calling back into reception) falls back to fresh allocations
   instead of aliasing.  The bitmap invariant: all-zero between uses
   (resolve clears exactly the bits it set, under Fun.protect). *)
type sender_scratch = {
  mutable ids : int array;
  mutable mark : Bytes.t;
  mutable s_busy : bool;
}

type row_scratch = {
  mutable buf : Float.Array.t;
  mutable r_busy : bool;
}

let sender_key =
  Domain.DLS.new_key (fun () ->
      { ids = [||]; mark = Bytes.empty; s_busy = false })

let row_key =
  Domain.DLS.new_key (fun () ->
      { buf = Float.Array.create 0; r_busy = false })

let with_senders ~count ~n f =
  let sc = Domain.DLS.get sender_key in
  if sc.s_busy then
    f { ids = Array.make (max 1 count) 0;
        mark = Bytes.make n '\000';
        s_busy = true }
  else begin
    sc.s_busy <- true;
    if Array.length sc.ids < count then sc.ids <- Array.make count 0;
    if Bytes.length sc.mark < n then sc.mark <- Bytes.make n '\000';
    Fun.protect ~finally:(fun () -> sc.s_busy <- false) (fun () -> f sc)
  end

let with_row ~n f =
  let rc = Domain.DLS.get row_key in
  if rc.r_busy then f (Float.Array.create n)
  else begin
    rc.r_busy <- true;
    if Float.Array.length rc.buf < n then rc.buf <- Float.Array.create n;
    Fun.protect ~finally:(fun () -> rc.r_busy <- false) (fun () -> f rc.buf)
  end

(* ------------------------------------------------------------------ *)
(* Scoring kernel                                                      *)
(* ------------------------------------------------------------------ *)

(* Score listeners [lo..hi]: one row read per listener, one pass over the
   sender array accumulating total power while tracking the strongest
   sender — only the strongest can pass the beta > 1 test.  Iteration
   order matches the seed kernel's list order, so the float accumulation
   (and therefore every decision) is bit-identical.  A decoded listener's
   sender goes into [result]; every other entry is left as it was (the
   caller pre-fills -1). *)
let score_range t ~ids ~nsend ~mark ~rowbuf ~result ~lo ~hi =
  let beta = t.config.Config.beta and noise = t.config.Config.noise in
  for u = lo to hi do
    if Bytes.unsafe_get mark u = '\000' then begin
      let row = Gain_cache.row t.cache u ~ids ~nsend ~scratch:rowbuf in
      let total = ref 0. in
      let best = ref (-1) and best_pw = ref 0. in
      for k = 0 to nsend - 1 do
        let v = Array.unsafe_get ids k in
        let pw = Float.Array.unsafe_get row v in
        total := !total +. pw;
        if pw > !best_pw then begin
          best_pw := pw;
          best := v
        end
      done;
      if !best >= 0 && !best_pw >= beta *. (noise +. !total -. !best_pw)
      then result.(u) <- !best
    end
  done

(* The perturbed variant: adversarial gains multiply the cached
   clean-channel powers, exactly as the seed kernel multiplied the freshly
   computed ones. *)
let score_range_perturbed t p ~ids ~nsend ~mark ~rowbuf ~result ~lo ~hi =
  let beta = t.config.Config.beta and noise = t.config.Config.noise in
  for u = lo to hi do
    if Bytes.unsafe_get mark u = '\000' then begin
      let row = Gain_cache.row t.cache u ~ids ~nsend ~scratch:rowbuf in
      let total = ref 0. in
      let best = ref (-1) and best_pw = ref 0. in
      for k = 0 to nsend - 1 do
        let v = Array.unsafe_get ids k in
        let pw = Float.Array.unsafe_get row v *. p.gain ~sender:v ~receiver:u in
        total := !total +. pw;
        if pw > !best_pw then begin
          best_pw := pw;
          best := v
        end
      done;
      let noise = noise *. p.noise_factor u in
      if !best >= 0 && !best_pw >= beta *. (noise +. !total -. !best_pw)
      then result.(u) <- !best
    end
  done

(* Whole-slot resolution over a marked sender set.  Dispatch: perturbed
   slots run the sequential perturbed kernel (adversary closures are not
   required to be domain-safe); clean slots run the sparse kernel when
   one is installed, fan listeners out over the shared pool past the
   parallelism threshold, and otherwise run the sequential cached kernel.
   [result] (length >= n) is reset to -1 first; decoded listeners then get
   their sender. *)
let resolve_marked ?perturb t ~ids ~nsend ~mark ~result =
  let n = Soa.length t.soa in
  Array.fill result 0 n (-1);
  if nsend > 0 then begin
    let telemetry = Metrics.is_enabled () in
    let run () =
      match perturb with
      | Some p ->
        with_row ~n (fun rowbuf ->
            score_range_perturbed t p ~ids ~nsend ~mark ~rowbuf ~result ~lo:0
              ~hi:(n - 1))
      | None ->
        (match t.sparse with
         | Some sp ->
           (* Auto-installed sparse path (n >= Phys_tuning.sparse_threshold):
              occupied-cell iteration, shared per-coarse-cell far sums,
              exact silent-cell skipping.  Timed as the profiler's Sparse
              sub-stage, reported inside Resolve. *)
           let p0 = Profile.start () in
           Sparse.resolve sp ~ids ~nsend ~mark ~result;
           Profile.stop Profile.Sparse p0
         | None ->
           if n >= t.par_threshold && Pool.default_jobs () > 1 then begin
             let pool = Pool.get () in
             let jobs = Pool.jobs pool in
             if jobs > 1 then begin
               (* Chunked listener ranges; each chunk writes a disjoint
                  slice of [result] and scores listeners independently, so
                  the outcome is bit-identical whatever the jobs count. *)
               let csize = max 64 ((n + (jobs * 4) - 1) / (jobs * 4)) in
               let nchunks = (n + csize - 1) / csize in
               ignore
                 (Pool.mapi ~chunk:1 pool ~n:nchunks (fun c ->
                      let lo = c * csize in
                      let hi = min (n - 1) (lo + csize - 1) in
                      with_row ~n (fun rowbuf ->
                          score_range t ~ids ~nsend ~mark ~rowbuf ~result ~lo
                            ~hi)))
             end
             else
               with_row ~n (fun rowbuf ->
                   score_range t ~ids ~nsend ~mark ~rowbuf ~result ~lo:0
                     ~hi:(n - 1))
           end
           else
             with_row ~n (fun rowbuf ->
                 score_range t ~ids ~nsend ~mark ~rowbuf ~result ~lo:0
                   ~hi:(n - 1)))
    in
    if telemetry then begin
      Metrics.incr m_resolve_calls;
      Metrics.add m_resolve_links (nsend * n);
      let r = Timer.start () in
      run ();
      Metrics.observe m_resolve_ns ((Timer.stop r).Timer.wall_s *. 1e9)
    end
    else run ()
  end

(* Copy + validate the sender list into scratch, then set the membership
   bitmap.  Validation happens before any bit is set, so a raise leaves
   the bitmap invariant (all-zero) intact. *)
let load_senders ~who ~n sc senders =
  let k = ref 0 in
  List.iter
    (fun s ->
      if s < 0 || s >= n then invalid_arg (who ^ ": sender out of range");
      sc.ids.(!k) <- s;
      incr k)
    senders;
  for i = 0 to !k - 1 do
    Bytes.unsafe_set sc.mark sc.ids.(i) '\001'
  done;
  !k

let clear_marks mark ids nsend =
  for i = 0 to nsend - 1 do
    Bytes.unsafe_set mark (Array.unsafe_get ids i) '\000'
  done

(* Array entry point (the engine's slot loop, Reliability's Monte-Carlo
   trials): the first [nsenders] entries of [senders] transmit, and the
   outcome goes into the caller's [into] — nothing is allocated per call.
   The caller's [senders] array is only read. *)
let resolve_array ?perturb t ~senders ~nsenders ~into =
  let n = Soa.length t.soa in
  if nsenders < 0 || nsenders > Array.length senders then
    invalid_arg "Sinr.resolve_array: nsenders out of bounds";
  if Array.length into < n then
    invalid_arg "Sinr.resolve_array: outcome buffer shorter than n";
  for k = 0 to nsenders - 1 do
    let s = Array.unsafe_get senders k in
    if s < 0 || s >= n then invalid_arg "Sinr.resolve: sender out of range"
  done;
  with_senders ~count:0 ~n @@ fun sc ->
  for k = 0 to nsenders - 1 do
    Bytes.unsafe_set sc.mark (Array.unsafe_get senders k) '\001'
  done;
  Fun.protect
    ~finally:(fun () -> clear_marks sc.mark senders nsenders)
    (fun () ->
      resolve_marked ?perturb t ~ids:senders ~nsend:nsenders ~mark:sc.mark
        ~result:into)

(* Resolve a whole slot: for every node, the sender it decodes (None for
   transmitters and for listeners that decode nothing).  O(|S| * n).
   [perturb] applies the slot's adversarial channel state; omitting it is
   the clean-channel fast path. *)
let resolve ?perturb t ~senders =
  let senders = Array.of_list senders in
  let into = Array.make (Soa.length t.soa) (-1) in
  resolve_array ?perturb t ~senders ~nsenders:(Array.length senders) ~into;
  Array.map (fun v -> if v < 0 then None else Some v) into

(* Single-listener reception through the same kernel: O(|S|) to mark the
   membership bitmap (the test [u in senders] is then O(1)), one row read,
   one scoring pass. *)
let reception ?perturb t ~senders ~receiver:u =
  let n = Soa.length t.soa in
  if u < 0 || u >= n then invalid_arg "Sinr.reception: receiver out of range";
  let count = List.length senders in
  with_senders ~count ~n @@ fun sc ->
  let nsend = load_senders ~who:"Sinr.reception" ~n sc senders in
  Fun.protect
    ~finally:(fun () -> clear_marks sc.mark sc.ids nsend)
    (fun () ->
      if Bytes.get sc.mark u <> '\000' || nsend = 0 then None
      else
        with_row ~n @@ fun rowbuf ->
        let row =
          Gain_cache.row t.cache u ~ids:sc.ids ~nsend ~scratch:rowbuf
        in
        let p = Option.value perturb ~default:no_perturb in
        let total = ref 0. in
        let best = ref (-1) and best_pw = ref 0. in
        (match perturb with
         | None ->
           for k = 0 to nsend - 1 do
             let v = Array.unsafe_get sc.ids k in
             let pw = Float.Array.unsafe_get row v in
             total := !total +. pw;
             if pw > !best_pw then begin
               best_pw := pw;
               best := v
             end
           done
         | Some p ->
           for k = 0 to nsend - 1 do
             let v = Array.unsafe_get sc.ids k in
             let pw =
               Float.Array.unsafe_get row v *. p.gain ~sender:v ~receiver:u
             in
             total := !total +. pw;
             if pw > !best_pw then begin
               best_pw := pw;
               best := v
             end
           done);
        let beta = t.config.Config.beta in
        let noise = t.config.Config.noise *. p.noise_factor u in
        if !best >= 0 && !best_pw >= beta *. (noise +. !total -. !best_pw)
        then Some !best
        else None)

(* ------------------------------------------------------------------ *)
(* Seed kernel, kept verbatim                                          *)
(* ------------------------------------------------------------------ *)

(* The pre-cache implementation: re-derives every link power (a sqrt and a
   libm pow per pair).  The fast path above must stay bit-identical to
   this; the equivalence is asserted by the phys_fast property suite and
   measured by `bench/main.exe phys`. *)
let resolve_reference ?perturb t ~senders =
  let pts = Lazy.force t.points in
  let n = Array.length pts in
  let is_sender = Array.make n false in
  List.iter
    (fun s ->
      if s < 0 || s >= n then invalid_arg "Sinr.resolve: sender out of range";
      is_sender.(s) <- true)
    senders;
  let result = Array.make n None in
  let beta = t.config.Config.beta and noise = t.config.Config.noise in
  (match perturb with
   | None ->
     for u = 0 to n - 1 do
       if not is_sender.(u) then begin
         let at = pts.(u) in
         let total = ref 0. in
         let best = ref (-1) and best_pw = ref 0. in
         List.iter
           (fun v ->
             let pw = power_between t ~from:pts.(v) ~at in
             total := !total +. pw;
             if pw > !best_pw then begin
               best_pw := pw;
               best := v
             end)
           senders;
         if !best >= 0 && !best_pw >= beta *. (noise +. !total -. !best_pw)
         then result.(u) <- Some !best
       end
     done
   | Some p ->
     for u = 0 to n - 1 do
       if not is_sender.(u) then begin
         let at = pts.(u) in
         let total = ref 0. in
         let best = ref (-1) and best_pw = ref 0. in
         List.iter
           (fun v ->
             let pw =
               power_between t ~from:pts.(v) ~at
               *. p.gain ~sender:v ~receiver:u
             in
             total := !total +. pw;
             if pw > !best_pw then begin
               best_pw := pw;
               best := v
             end)
           senders;
         let noise = noise *. p.noise_factor u in
         if !best >= 0 && !best_pw >= beta *. (noise +. !total -. !best_pw)
         then result.(u) <- Some !best
       end
     done);
  result

(* Is a single isolated transmission from v decodable at u?  Defines weak
   reachability: true iff d(v,u) <= R. *)
let in_range t v u =
  Soa.dist t.soa v u <= Config.range t.config +. 1e-12
