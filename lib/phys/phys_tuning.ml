(* Process-global tuning knobs for the physics fast path.

   The cache and parallelism knobs are *performance* knobs: whatever their
   values, the clean-channel resolution outcome is bit-identical to the
   direct evaluation of Eq. 1.  The sparse knobs are not: they decide
   which simulators run the eps-approximate Sparse path (exact below
   [sparse_threshold] nodes, relative interference error at most
   [sparse_eps] from it on).

   The knobs are read once per [Sinr.create] and captured in the instance,
   so flipping them mid-run never changes the physics of an existing
   simulator — only simulators created afterwards. *)

let default_cache_mb = 64

let cache_cap = ref (
  match Sys.getenv_opt "SINR_PHYS_CACHE_MB" with
  | Some s ->
    (match int_of_string_opt s with
     | Some mb when mb >= 0 -> mb * 1024 * 1024
     | Some _ | None -> default_cache_mb * 1024 * 1024)
  | None -> default_cache_mb * 1024 * 1024)

let cache_cap_bytes () = !cache_cap
let set_cache_cap_bytes b = cache_cap := max 0 b

(* Below this node count the per-chunk pool overhead dwarfs the scoring
   work, so resolve stays on the sequential path. *)
let par_thresh = ref 1024

let par_threshold () = !par_thresh
let set_par_threshold n = par_thresh := max 1 n

(* ------------------------------------------------------------------ *)
(* Million-node knobs                                                  *)
(* ------------------------------------------------------------------ *)

(* From this node count on, [Sinr.create] installs the sparse
   cell-aggregated resolution path (Sparse) —
   the only way 10^5..10^6-node slots stay sub-second.  Below it the
   exact kernels keep the bit-identity contract.  A non-positive value
   disables the automatic switch entirely. *)
let default_sparse_threshold = 4096

let sparse_thresh = ref (
  match Sys.getenv_opt "SINR_SPARSE_THRESHOLD" with
  | Some s ->
    (match int_of_string_opt s with
     | Some n when n > 0 -> n
     | Some _ -> max_int  (* <= 0 disables *)
     | None -> default_sparse_threshold)
  | None -> default_sparse_threshold)

let sparse_threshold () = !sparse_thresh
let set_sparse_threshold n = sparse_thresh := (if n <= 0 then max_int else n)

(* Relative interference error bound of the automatic sparse path. *)
let default_sparse_eps = 0.5

let sparse_eps_v = ref (
  match Sys.getenv_opt "SINR_SPARSE_EPS" with
  | Some s ->
    (match float_of_string_opt s with
     | Some e when e > 0. && e < 1. -> e
     | Some _ | None -> default_sparse_eps)
  | None -> default_sparse_eps)

let sparse_eps () = !sparse_eps_v

let set_sparse_eps e =
  if e <= 0. || e >= 1. then
    invalid_arg "Phys_tuning.set_sparse_eps: eps must lie in (0, 1)";
  sparse_eps_v := e

(* Above this node count the Gain_cache refuses to allocate any rows at
   all (not merely byte-capping them): at large n even the row-pointer
   array is waste, and resolution has moved to cell aggregates anyway. *)
let default_cache_node_ceiling = 8192

let cache_ceiling = ref (
  match Sys.getenv_opt "SINR_CACHE_NODE_CEILING" with
  | Some s ->
    (match int_of_string_opt s with
     | Some n when n >= 0 -> n
     | Some _ | None -> default_cache_node_ceiling)
  | None -> default_cache_node_ceiling)

let cache_node_ceiling () = !cache_ceiling
let set_cache_node_ceiling n = cache_ceiling := max 0 n
