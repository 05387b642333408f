(* Extended engine tests: conservation invariants under random driving,
   wake/crash interactions, BMMB FIFO order, Theorem 12.6's component
   hypothesis on standard workloads. *)

open Sinr_geom
open Sinr_graph
open Sinr_phys
open Sinr_engine
open Sinr_mac
open Sinr_proto

let cfg = Config.default

(* Invariants under random transmission patterns:
   - deliveries per slot <= listeners (n - senders);
   - a transmitting node never appears as a receiver;
   - tx_total counts every Transmit decision. *)
let prop_engine_conservation =
  QCheck.Test.make ~name:"engine conservation invariants" ~count:30
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let pts =
        Placement.uniform rng ~n:20 ~box:(Box.square ~side:20.) ~min_dist:1.
      in
      let eng = Engine.create (Sinr.create cfg pts) in
      Engine.wake_all eng;
      let ok = ref true in
      let expected_tx = ref 0 in
      for _ = 1 to 30 do
        let senders = ref [] in
        let ds =
          Engine.step eng ~decide:(fun v ->
              if Rng.bernoulli rng 0.3 then begin
                incr expected_tx;
                senders := v :: !senders;
                Engine.Transmit v
              end
              else Engine.Listen)
        in
        if List.length ds > 20 - List.length !senders then ok := false;
        List.iter
          (fun d ->
            if List.mem d.Engine.receiver !senders then ok := false;
            if not (List.mem d.Engine.sender !senders) then ok := false;
            if d.Engine.message <> d.Engine.sender then ok := false)
          ds
      done;
      !ok && Engine.tx_total eng = !expected_tx)

let test_wake_idempotent () =
  let pts = [| Point.make 0. 0.; Point.make 5. 0. |] in
  let eng = Engine.create (Sinr.create cfg pts) in
  Engine.wake eng 0;
  Engine.wake eng 0;
  Alcotest.(check (list int)) "single wake entry" [ 0 ] (Engine.awake_nodes eng)

let test_crash_then_wake_all () =
  let pts = [| Point.make 0. 0.; Point.make 5. 0.; Point.make 10. 0. |] in
  let eng = Engine.create (Sinr.create cfg pts) in
  Engine.crash eng 1;
  Engine.wake_all eng;
  Alcotest.(check (list int)) "crashed excluded from wake_all" [ 0; 2 ]
    (Engine.awake_nodes eng)

let test_crashed_receiver_gets_nothing () =
  let pts = [| Point.make 0. 0.; Point.make 5. 0. |] in
  let eng = Engine.create (Sinr.create cfg pts) in
  Engine.wake eng 0;
  Engine.crash eng 1;
  let ds =
    Engine.step eng ~decide:(fun _ -> Engine.Transmit "x")
  in
  Alcotest.(check int) "no delivery to crashed" 0 (List.length ds)

(* BMMB FIFO: two messages arriving at the same node are broadcast in
   arrival order ([37]'s bcastq is a FIFO queue). *)
let test_bmmb_fifo_order () =
  let g = Graph.of_edges ~n:2 [ (0, 1) ] in
  let bounds =
    { Absmac_intf.f_ack = 10; f_prog = 3; f_approg = 3; eps_ack = 0.;
      eps_prog = 0.; eps_approg = 0. }
  in
  let mac =
    Ideal_mac.create ~policy:Ideal_mac.Adversarial g ~bounds
      ~rng:(Rng.create 301)
  in
  let proto = Bmmb.create (Mac_driver.of_ideal mac) in
  Bmmb.arrive proto ~node:0 ~msg:11;
  Bmmb.arrive proto ~node:0 ~msg:22;
  ignore
    (Bmmb.run_until_complete proto ~nodes:[ 0; 1 ] ~msgs:[ 11; 22 ]
       ~max_steps:1000);
  let s1 = Option.get (Bmmb.delivery_slot proto ~node:1 ~msg:11) in
  let s2 = Option.get (Bmmb.delivery_slot proto ~node:1 ~msg:22) in
  Alcotest.(check bool) "fifo order preserved" true (s1 < s2)

(* Theorem 12.6's hypothesis on our standard workloads: the strong and
   approximation graphs have the same connected components. *)
let test_same_components_standard_workloads () =
  let check_deployment (d : Sinr_expt.Workloads.deployment) =
    Sinr_graph.Components.same_components d.Sinr_expt.Workloads.profile.Induced.strong
      d.Sinr_expt.Workloads.profile.Induced.approx
  in
  let rng = Rng.create 303 in
  let line_ok = check_deployment (Sinr_expt.Workloads.line ~hops:8 ()) in
  Alcotest.(check bool) "line workload" true line_ok;
  let ok = ref 0 in
  for k = 1 to 5 do
    let d =
      Sinr_expt.Workloads.connected (Rng.split rng ~key:k) (fun r ->
          Sinr_expt.Workloads.uniform r ~n:40 ~target_degree:10)
    in
    if check_deployment d then incr ok
  done;
  (* Dense connected deployments virtually always satisfy the hypothesis;
     tolerate one marginal instance. *)
  Alcotest.(check bool) "uniform workloads mostly satisfy Thm 12.6" true
    (!ok >= 4)

(* The engine resolves every slot into one reused outcome buffer.  Drive
   it through a slot where node 1 decodes node 0, one where node 1 decodes
   nothing, one with no senders and one whose [decide] raises: the next
   clean slot must deliver exactly what a fresh [Sinr.resolve] decides,
   with nothing left over from the earlier slots. *)
exception Decide_failed

let test_outcome_buffer_reuse () =
  let pts =
    [| Point.make 0. 0.; Point.make 5. 0.; Point.make 10. 0.;
       Point.make 100. 0.; Point.make 105. 0. |]
  in
  let sinr = Sinr.create cfg pts in
  let eng : int Engine.t = Engine.create sinr in
  Engine.wake_all eng;
  let pairs ds =
    List.sort compare
      (List.map (fun d -> (d.Engine.receiver, d.Engine.sender)) ds)
  in
  let step_with senders =
    Engine.step eng ~decide:(fun v ->
        if List.mem v senders then Engine.Transmit v else Engine.Listen)
  in
  let a = step_with [ 0 ] in
  Alcotest.(check bool) "slot A: node 1 decodes node 0" true
    (List.mem (1, 0) (pairs a));
  let b = step_with [ 3 ] in
  Alcotest.(check bool) "slot B: node 1 decodes nothing" false
    (List.exists (fun (u, _) -> u = 1) (pairs b));
  Alcotest.(check (list (pair int int))) "slot C: no senders, no deliveries"
    [] (pairs (step_with []));
  Alcotest.(check bool) "slot D: decide raises" true
    (try
       ignore
         (Engine.step eng ~decide:(fun v ->
              if v = 2 then raise Decide_failed
              else if v = 0 then Engine.Transmit v
              else Engine.Listen));
       false
     with Decide_failed -> true);
  let senders = [ 4 ] in
  let expected =
    Sinr.resolve sinr ~senders
    |> Array.to_list
    |> List.mapi (fun u o -> Option.map (fun v -> (u, v)) o)
    |> List.filter_map Fun.id
  in
  Alcotest.(check (list (pair int int))) "slot E = fresh Sinr.resolve"
    expected (pairs (step_with senders));
  Alcotest.(check (list (pair int int))) "slot E decodes only node 3"
    [ (3, 4) ] expected

let suite =
  [ QCheck_alcotest.to_alcotest prop_engine_conservation;
    Alcotest.test_case "outcome buffer reused across slots" `Quick
      test_outcome_buffer_reuse;
    Alcotest.test_case "wake idempotent" `Quick test_wake_idempotent;
    Alcotest.test_case "crash excluded from wake_all" `Quick
      test_crash_then_wake_all;
    Alcotest.test_case "crashed receiver gets nothing" `Quick
      test_crashed_receiver_gets_nothing;
    Alcotest.test_case "bmmb fifo order" `Quick test_bmmb_fifo_order;
    Alcotest.test_case "Thm 12.6 components hypothesis" `Quick
      test_same_components_standard_workloads ]
