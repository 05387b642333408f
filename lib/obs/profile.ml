(* Slot-phase profiler: where does a simulated slot's wall time go?

   The engine wraps each stage of [Engine.step] (decide callbacks, chaos
   perturbation, SINR resolution, delivery fan-out, metrics/trace
   bookkeeping) in [start]/[stop] hooks; each stage's duration lands in a
   log2 histogram named [profile.<stage>.ns], which therefore flows through
   every normal sink (snapshot, JSONL, Prometheus, /metrics).  [Sparse]
   is a sub-stage timed inside [Sinr.resolve]'s sparse branch and is
   reported inside Resolve, not beside it.

   Gating mirrors the other obs layers: one process-global atomic flag,
   default off.  [start] returns 0. when disabled so the matching [stop]
   is a single float compare — the engine hooks cost a handful of
   load-and-branch per slot when the profiler is off.  Durations are
   recorded through {!Metrics.observe}, so the registry must be enabled
   too; [with_enabled] arms both.

   The report divides each top-level stage's total by the total of
   [profile.step.ns] (the whole-slot envelope); the remainder — loop
   scaffolding plus the profiler's own clock reads — appears as "other",
   so the shares sum to ~100% by construction. *)

let on = Atomic.make false
let set_enabled b = Atomic.set on b
let is_enabled () = Atomic.get on

let with_enabled f =
  let prev_p = Atomic.get on in
  let prev_m = Metrics.is_enabled () in
  Atomic.set on true;
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set on prev_p;
      Metrics.set_enabled prev_m)
    f

type stage =
  | Step (* the whole-slot envelope the shares are relative to *)
  | Decide
  | Perturb
  | Resolve
  | Sparse (* sub-stage of Resolve, timed inside lib/phys *)
  | Delivery
  | Telemetry

let stage_name = function
  | Step -> "step"
  | Decide -> "decide"
  | Perturb -> "perturb"
  | Resolve -> "resolve"
  | Sparse -> "sparse"
  | Delivery -> "delivery"
  | Telemetry -> "telemetry"

let hist_of =
  let h s = Metrics.histogram (Printf.sprintf "profile.%s.ns" (stage_name s)) in
  let step = h Step
  and decide = h Decide
  and perturb = h Perturb
  and resolve = h Resolve
  and sparse = h Sparse
  and delivery = h Delivery
  and telemetry = h Telemetry in
  function
  | Step -> step
  | Decide -> decide
  | Perturb -> perturb
  | Resolve -> resolve
  | Sparse -> sparse
  | Delivery -> delivery
  | Telemetry -> telemetry

let start () = if Atomic.get on then Unix.gettimeofday () else 0.

let stop stage t0 =
  if t0 <> 0. then
    Metrics.observe (hist_of stage) ((Unix.gettimeofday () -. t0) *. 1e9)

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

type row = {
  r_stage : string;
  r_share : float; (* percent of total slot time *)
  r_total_ns : float;
  r_count : int;
  r_p50 : float; (* ns *)
  r_p99 : float; (* ns *)
}

type report = {
  slots : int; (* profiled slots (= count of profile.step.ns) *)
  step_ns : float; (* total profiled wall time, ns *)
  rows : row list; (* top-level stages + "other"; shares sum to ~100 *)
  sparse : row option; (* sub-stage of resolve, when the sparse path ran *)
}

let top_stages = [ Decide; Perturb; Resolve; Delivery; Telemetry ]

let row_of ~step_ns stage =
  let s = Metrics.summarize (hist_of stage) in
  { r_stage = stage_name stage;
    r_share = (if step_ns > 0. then 100. *. s.Metrics.sum /. step_ns else 0.);
    r_total_ns = s.Metrics.sum;
    r_count = s.Metrics.count;
    r_p50 = s.Metrics.p50;
    r_p99 = s.Metrics.p99 }

let report () =
  let step = Metrics.summarize (hist_of Step) in
  if step.Metrics.count = 0 then None
  else begin
    let step_ns = step.Metrics.sum in
    let rows = List.map (row_of ~step_ns) top_stages in
    let accounted =
      List.fold_left (fun acc r -> acc +. r.r_total_ns) 0. rows
    in
    (* Loop scaffolding, allocation, and the profiler's own clock reads.
       Clock noise can push [accounted] past the envelope; clamp at 0. *)
    let other_ns = Float.max 0. (step_ns -. accounted) in
    let other =
      { r_stage = "other";
        r_share = (if step_ns > 0. then 100. *. other_ns /. step_ns else 0.);
        r_total_ns = other_ns;
        r_count = step.Metrics.count;
        r_p50 = nan;
        r_p99 = nan }
    in
    let sparse =
      let sp = row_of ~step_ns Sparse in
      if sp.r_count = 0 then None else Some sp
    in
    Some { slots = step.Metrics.count; step_ns; rows = rows @ [ other ];
           sparse }
  end

let pp_ns ppf v =
  if Float.is_nan v then Fmt.pf ppf "%8s" "-"
  else if v >= 1e6 then Fmt.pf ppf "%6.2fms" (v /. 1e6)
  else if v >= 1e3 then Fmt.pf ppf "%6.2fus" (v /. 1e3)
  else Fmt.pf ppf "%6.0fns" v

let pp_report ppf r =
  Fmt.pf ppf "profiled %d slots, %.3f ms total (%.0f ns/slot)@." r.slots
    (r.step_ns /. 1e6)
    (r.step_ns /. float_of_int (Stdlib.max 1 r.slots));
  Fmt.pf ppf "%-10s %7s %12s %10s %10s@." "stage" "share" "total" "p50"
    "p99";
  let line row =
    Fmt.pf ppf "%-10s %6.1f%% %9.3f ms %a %a@." row.r_stage row.r_share
      (row.r_total_ns /. 1e6) pp_ns row.r_p50 pp_ns row.r_p99
  in
  List.iter line r.rows;
  match r.sparse with
  | None -> ()
  | Some sp ->
    Fmt.pf ppf "  (within resolve)@.";
    line sp
