(* The million-node path: structure-of-arrays state must be bit-identical
   to the record-based seed path (columns, engine step, streaming
   placement), the gain-cache node ceiling must refuse rows without
   changing outcomes, and the auto-installed sparse resolution must honour
   its eps interference bound and its exact silent-cell skipping. *)

open Sinr_geom
open Sinr_phys
open Sinr_engine
open Sinr_obs

let cfg = Config.default (* alpha=3 beta=1.5 N=1 eps=0.1, R=12 *)

let outcome = Alcotest.(array (option int))

let options_of into = Array.map (fun v -> if v < 0 then None else Some v) into

(* Constant-density uniform deployment (the project's standard scaling
   box: side ~4.4 sqrt n keeps ~20 nodes in range at R=12). *)
let deployment rng ~n =
  let side = 8. +. (4.4 *. sqrt (float_of_int n)) in
  Placement.uniform rng ~n ~box:(Box.square ~side) ~min_dist:1.

(* Sparser wide-area deployment so genuinely far sender cells exist. *)
let wide_deployment rng ~n ~side =
  Placement.uniform rng ~n ~box:(Box.square ~side) ~min_dist:1.

let random_senders rng ~n ~p =
  List.filter (fun _ -> Rng.bernoulli rng p) (List.init n Fun.id)

let perturb_of rng ~key =
  let r = Rng.split rng ~key in
  { Sinr.noise_factor = (fun u -> 1. +. (4. *. Rng.hash_unit r 1 u));
    gain =
      (fun ~sender ~receiver ->
        exp (0.4 *. Rng.hash_gaussian r sender receiver)) }

(* ---------------- column view = record view ---------------- *)

let test_soa_bit_identical_distances () =
  let rng = Rng.create 901 in
  let pts = deployment rng ~n:200 in
  let soa = Soa.of_points pts in
  let n = Array.length pts in
  Alcotest.(check int) "length" n (Soa.length soa);
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if not (Float.equal (Point.dist pts.(i) pts.(j)) (Soa.dist soa i j))
      then
        Alcotest.failf "Soa.dist differs from Point.dist at (%d,%d)" i j
    done
  done;
  let back = Soa.to_points soa in
  Array.iteri
    (fun i p ->
      Alcotest.(check bool)
        (Fmt.str "roundtrip %d" i)
        true (Point.equal p back.(i)))
    pts

(* The column-path resolvers (create and create_soa are the same columns
   underneath) vs the seed kernel, at the named sizes, clean + perturbed. *)
let test_column_path_matches_reference () =
  let rng = Rng.create 902 in
  List.iter
    (fun n ->
      let r = Rng.split rng ~key:n in
      let pts = deployment r ~n in
      let n = Array.length pts in
      let sinr = Sinr.create cfg pts in
      let via_soa = Sinr.create_soa cfg (Soa.of_points pts) in
      Alcotest.(check bool)
        (Fmt.str "no sparse below threshold (n=%d)" n)
        true
        (Sinr.sparse sinr = None);
      (* One outcome buffer for every case, seeded with garbage: each
         resolve_array must overwrite all of it. *)
      let into = Array.make n 7 in
      for case = 0 to 2 do
        let cr = Rng.split r ~key:(1000 + case) in
        let senders = random_senders cr ~n ~p:0.05 in
        let expected = Sinr.resolve_reference sinr ~senders in
        Alcotest.check outcome
          (Fmt.str "resolve n=%d case %d" n case)
          expected
          (Sinr.resolve sinr ~senders);
        Alcotest.check outcome
          (Fmt.str "resolve via create_soa n=%d case %d" n case)
          expected
          (Sinr.resolve via_soa ~senders);
        let arr = Array.of_list senders in
        Sinr.resolve_array sinr ~senders:arr ~nsenders:(Array.length arr)
          ~into;
        Alcotest.check outcome
          (Fmt.str "resolve_array n=%d case %d" n case)
          expected (options_of into);
        let p = perturb_of cr ~key:case in
        Alcotest.check outcome
          (Fmt.str "perturbed n=%d case %d" n case)
          (Sinr.resolve_reference ~perturb:p sinr ~senders)
          (Sinr.resolve ~perturb:p sinr ~senders)
      done)
    [ 16; 256; 1024 ]

(* ---------------- engine step = seed semantics ---------------- *)

(* Drive the column-state engine and an independent seed-semantics model
   (descending-order sender list + resolve_reference) through identical
   slots — including crashes, recoveries and perturbed (chaos) slots —
   and demand identical deliveries, wake states and totals. *)
let test_engine_step_bit_identical () =
  let rng = Rng.create 903 in
  List.iter
    (fun n ->
      let r = Rng.split rng ~key:n in
      let pts = deployment r ~n in
      let n = Array.length pts in
      let sinr = Sinr.create cfg pts in
      let eng = Engine.create sinr in
      Engine.wake_all eng;
      Engine.set_perturb eng (fun ~slot ->
          if slot mod 3 = 2 then Some (perturb_of r ~key:slot) else None);
      (* Reference model state *)
      let ref_awake = Array.make n true in
      let ref_crashed = Array.make n false in
      let crash_at slot v = (slot * 7919) + v in
      let crashes =
        List.init (max 1 (n / 8)) (fun i ->
            let v = Rng.int r n in
            (i mod 6, v, crash_at (i mod 6) v))
      in
      for slot = 0 to 11 do
        (* Apply scheduled crashes (and one recovery wave at slot 8). *)
        List.iter
          (fun (s, v, _) ->
            if s = slot then begin
              Engine.crash eng v;
              ref_crashed.(v) <- true;
              ref_awake.(v) <- false
            end)
          crashes;
        if slot = 8 then
          List.iter
            (fun (_, v, _) ->
              if ref_crashed.(v) then begin
                Engine.revive eng v;
                Engine.wake eng v;
                ref_crashed.(v) <- false;
                ref_awake.(v) <- true
              end)
            crashes;
        let decide v =
          if Rng.hash_unit r slot v < 0.2 then Engine.Transmit (slot, v)
          else Engine.Listen
        in
        (* Seed semantics: ascending scan consing, so the sender list is
           descending; resolve_reference consumes it in that order. *)
        let senders = ref [] in
        for v = 0 to n - 1 do
          if ref_awake.(v) && (not ref_crashed.(v)) && Rng.hash_unit r slot v < 0.2
          then senders := v :: !senders
        done;
        let perturb =
          if slot mod 3 = 2 then Some (perturb_of r ~key:slot) else None
        in
        let expected =
          if !senders = [] then Array.make n None
          else Sinr.resolve_reference ?perturb sinr ~senders:!senders
        in
        let expected_deliveries = ref [] in
        for u = n - 1 downto 0 do
          if not ref_crashed.(u) then
            match expected.(u) with
            | Some v ->
              expected_deliveries := (u, v) :: !expected_deliveries;
              if not ref_crashed.(u) then ref_awake.(u) <- true
            | None -> ()
        done;
        let got = Engine.step eng ~decide in
        let got_pairs =
          List.map (fun d -> (d.Engine.receiver, d.Engine.sender)) got
        in
        Alcotest.(check (list (pair int int)))
          (Fmt.str "deliveries n=%d slot %d" n slot)
          !expected_deliveries got_pairs
      done;
      for v = 0 to n - 1 do
        Alcotest.(check bool)
          (Fmt.str "awake %d" v)
          ref_awake.(v) (Engine.is_awake eng v);
        Alcotest.(check bool)
          (Fmt.str "crashed %d" v)
          ref_crashed.(v)
          (Engine.is_crashed eng v)
      done)
    [ 16; 256 ]

(* A decide/on_deliver callback that raises must not poison the reusable
   slot buffers: the next slot still matches the reference. *)
let test_engine_step_exception_safe () =
  let rng = Rng.create 904 in
  let pts = deployment rng ~n:32 in
  let n = Array.length pts in
  let sinr = Sinr.create cfg pts in
  let eng = Engine.create sinr in
  Engine.wake_all eng;
  (try
     ignore
       (Engine.step eng ~decide:(fun v ->
            if v = 7 then failwith "boom" else Engine.Transmit v));
     Alcotest.fail "decide exception swallowed"
   with Failure _ -> ());
  let senders = ref [] in
  for v = 0 to n - 1 do
    if v mod 3 = 0 then senders := v :: !senders
  done;
  let expected = Sinr.resolve_reference sinr ~senders:!senders in
  let got =
    Engine.step eng ~decide:(fun v ->
        if v mod 3 = 0 then Engine.Transmit v else Engine.Listen)
  in
  List.iter
    (fun d ->
      Alcotest.(check (option int))
        (Fmt.str "post-exception delivery at %d" d.Engine.receiver)
        (Some d.Engine.sender)
        expected.(d.Engine.receiver))
    got;
  let expected_count =
    Array.fold_left
      (fun acc o -> match o with Some _ -> acc + 1 | None -> acc)
      0 expected
  in
  Alcotest.(check int) "post-exception delivery count" expected_count
    (List.length got)

(* ---------------- streaming placement ---------------- *)

let test_uniform_stream_invariant_and_equivalence () =
  let n = 600 in
  let side = 8. +. (4.4 *. sqrt (float_of_int n)) in
  let box = Box.square ~side in
  let soa = Soa.create ~n in
  let rng = Rng.create 905 in
  Placement.uniform_stream rng ~n ~box ~min_dist:1.
    ~set:(fun i ~x ~y -> Soa.set soa i ~x ~y)
    ~x:(Soa.x soa) ~y:(Soa.y soa);
  let pts = Soa.to_points soa in
  Alcotest.(check bool) "min distance >= 1" true
    (Placement.min_pairwise_dist pts >= 1.);
  Array.iter
    (fun p ->
      Alcotest.(check bool) "inside box" true (Box.contains box p))
    pts;
  (* check:false trusts the generator; the physics must still match the
     reference on the resulting columns. *)
  let sinr = Sinr.create_soa ~check:false cfg soa in
  let senders = random_senders rng ~n ~p:0.03 in
  Alcotest.check outcome "stream placement resolve"
    (Sinr.resolve_reference sinr ~senders)
    (Sinr.resolve sinr ~senders)

(* ---------------- gain-cache node ceiling ---------------- *)

let test_cache_node_ceiling_refuses_rows () =
  let prev = Phys_tuning.cache_node_ceiling () in
  Phys_tuning.set_cache_node_ceiling 10;
  Fun.protect ~finally:(fun () -> Phys_tuning.set_cache_node_ceiling prev)
  @@ fun () ->
  Metrics.reset_for_tests ();
  Fun.protect ~finally:Metrics.reset_for_tests @@ fun () ->
  Metrics.set_enabled true;
  let rng = Rng.create 906 in
  let pts = deployment rng ~n:40 in
  let n = Array.length pts in
  let sinr = Sinr.create cfg pts in
  let gc = Sinr.gain_cache sinr in
  Alcotest.(check bool) "bypassed above ceiling" true (Gain_cache.bypassed gc);
  (* Refusal happens before allocation: the row table itself is empty. *)
  Alcotest.(check int) "max_rows 0" 0 (Gain_cache.max_rows gc);
  Alcotest.(check int) "rows_cached 0" 0 (Gain_cache.rows_cached gc);
  Alcotest.(check int) "bytes_cached 0" 0 (Gain_cache.bytes_cached gc);
  let senders = random_senders rng ~n ~p:0.2 in
  Alcotest.check outcome "bypassed resolve matches reference"
    (Sinr.resolve_reference sinr ~senders)
    (Sinr.resolve sinr ~senders);
  Alcotest.(check int) "still no rows after resolving" 0
    (Gain_cache.rows_cached gc);
  Alcotest.(check bool) "phys.cache.bypassed counter ticked" true
    (match Metrics.counter_peek "phys.cache.bypassed" with
     | Some c -> c >= 1
     | None -> false);
  let small = Sinr.create cfg (deployment rng ~n:8) in
  Alcotest.(check bool) "below ceiling the cache engages" false
    (Gain_cache.bypassed (Sinr.gain_cache small))

(* ---------------- sparse resolution ---------------- *)

let with_sparse ~threshold ~eps f =
  let pt = Phys_tuning.sparse_threshold () in
  let pe = Phys_tuning.sparse_eps () in
  Phys_tuning.set_sparse_threshold threshold;
  Phys_tuning.set_sparse_eps eps;
  Fun.protect
    ~finally:(fun () ->
      Phys_tuning.set_sparse_threshold pt;
      Phys_tuning.set_sparse_eps pe)
    f

let sparse_of sinr =
  match Sinr.sparse sinr with
  | Some sp -> sp
  | None -> Alcotest.fail "sparse not installed"

(* With a single transmitter there is no far-field approximation to lean
   on: every decodable listener is near (threshold > R) and scored
   exactly, and every listener beyond range must stay silent even though
   its coarse cell is skipped without being visited.  The sparse path must
   therefore be bit-identical to the seed kernel. *)
let test_sparse_silence_is_exact () =
  with_sparse ~threshold:16 ~eps:0.5 @@ fun () ->
  let rng = Rng.create 907 in
  let pts = wide_deployment rng ~n:300 ~side:600. in
  let n = Array.length pts in
  let sinr = Sinr.create cfg pts in
  let sp = sparse_of sinr in
  Alcotest.(check bool) "grids built" true
    (Sparse.fine_cells sp > 0 && Sparse.coarse_cells sp > 0);
  Alcotest.(check (float 1e-9)) "eps recorded" 0.5 (Sparse.eps sp);
  for case = 0 to 9 do
    let sender = Rng.int (Rng.split rng ~key:case) n in
    Alcotest.check outcome
      (Fmt.str "single sender %d bit-identical" sender)
      (Sinr.resolve_reference sinr ~senders:[ sender ])
      (Sinr.resolve sinr ~senders:[ sender ])
  done

let test_sparse_interference_bound () =
  let eps = 0.15 in
  with_sparse ~threshold:16 ~eps @@ fun () ->
  let rng = Rng.create 908 in
  let pts = wide_deployment rng ~n:120 ~side:300. in
  let n = Array.length pts in
  let sinr = Sinr.create cfg pts in
  let sp = sparse_of sinr in
  let aggregated_something = ref false in
  for case = 0 to 9 do
    let r = Rng.split rng ~key:(100 + case) in
    let senders =
      List.filter (fun _ -> Rng.bernoulli r 0.3) (List.init n Fun.id)
    in
    if senders <> [] then begin
      let ids = Array.of_list senders in
      let nsend = Array.length ids in
      for u = 0 to n - 1 do
        if not (List.mem u senders) then begin
          let exact =
            Sinr.interference_at sinr ~senders ~at:(Sinr.points sinr).(u)
          in
          let approx = Sparse.interference sp ~ids ~nsend ~receiver:u in
          if not (Float.equal exact approx) then aggregated_something := true;
          if Float.abs (approx -. exact) > (eps *. exact) +. 1e-9 then
            Alcotest.failf
              "eps bound violated at %d (case %d): exact %.6g approx %.6g"
              u case exact approx
        end
      done
    end
  done;
  Alcotest.(check bool) "some far cell was actually aggregated" true
    !aggregated_something

(* Sparse decisions may differ from exact only for links whose SINR sits
   within the eps interference margin of the beta threshold (best sender
   is exact, so only the denominator is approximate). *)
let test_sparse_decisions_near_exact () =
  let eps = 0.15 in
  let rng = Rng.create 909 in
  let pts = wide_deployment rng ~n:150 ~side:320. in
  let n = Array.length pts in
  let senders =
    List.filter (fun _ -> Rng.bernoulli rng 0.3) (List.init n Fun.id)
  in
  let sinr_exact = Sinr.create cfg pts in
  Alcotest.(check bool) "exact instance has no sparse" true
    (Sinr.sparse sinr_exact = None);
  let exact = Sinr.resolve_reference sinr_exact ~senders in
  let sparse_out =
    with_sparse ~threshold:16 ~eps @@ fun () ->
    let sinr_sp = Sinr.create cfg pts in
    ignore (sparse_of sinr_sp);
    Sinr.resolve sinr_sp ~senders
  in
  let beta = cfg.Config.beta and noise = cfg.Config.noise in
  let flips = ref 0 in
  Array.iteri
    (fun u exp_u ->
      if exp_u <> sparse_out.(u) && not (List.mem u senders) then begin
        incr flips;
        let at = (Sinr.points sinr_exact).(u) in
        let best_pw =
          List.fold_left
            (fun acc v ->
              Float.max acc
                (Sinr.power_between sinr_exact
                   ~from:(Sinr.points sinr_exact).(v) ~at))
            0. senders
        in
        let total = Sinr.interference_at sinr_exact ~senders ~at in
        let rhs = beta *. (noise +. total -. best_pw) in
        let ratio = best_pw /. rhs in
        if ratio < 1. /. (1. +. (3. *. eps)) || ratio > 1. +. (3. *. eps)
        then
          Alcotest.failf "decision flip outside eps margin at %d: ratio %.4f"
            u ratio
      end)
    exact;
  ignore !flips

(* Disabling the threshold (<= 0) turns auto-sparse off entirely. *)
let test_sparse_install_rules () =
  let rng = Rng.create 910 in
  let pts = wide_deployment rng ~n:40 ~side:150. in
  with_sparse ~threshold:0 ~eps:0.3 @@ fun () ->
  let sinr = Sinr.create cfg pts in
  Alcotest.(check bool) "threshold <= 0 disables auto-sparse" true
    (Sinr.sparse sinr = None)

let suite =
  [ Alcotest.test_case "soa distances bit-identical" `Quick
      test_soa_bit_identical_distances;
    Alcotest.test_case "column path matches reference (16/256/1024)" `Slow
      test_column_path_matches_reference;
    Alcotest.test_case "engine step bit-identical incl. crashes" `Slow
      test_engine_step_bit_identical;
    Alcotest.test_case "engine step exception-safe buffers" `Quick
      test_engine_step_exception_safe;
    Alcotest.test_case "uniform_stream invariant + equivalence" `Quick
      test_uniform_stream_invariant_and_equivalence;
    Alcotest.test_case "gain-cache node ceiling bypass" `Quick
      test_cache_node_ceiling_refuses_rows;
    Alcotest.test_case "sparse: single-sender bit-identical" `Quick
      test_sparse_silence_is_exact;
    Alcotest.test_case "sparse: interference eps bound" `Slow
      test_sparse_interference_bound;
    Alcotest.test_case "sparse: decisions near exact" `Quick
      test_sparse_decisions_near_exact;
    Alcotest.test_case "sparse: install rules" `Quick
      test_sparse_install_rules ]
