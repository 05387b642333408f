(* Tests for the benchmark's own helpers: the tail-percentile rule,
   self time over nested spans and the digest oracle. *)

let close = Alcotest.float 1e-9

let test_tail_rule () =
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  let t = Helpers.tail a in
  Alcotest.(check int) "ten samples beyond" 10 t.Helpers.beyond;
  Alcotest.check close "value is the 90th smallest" 90. t.Helpers.value;
  Alcotest.check close "percentile" 90. t.Helpers.pct;
  Alcotest.(check int) "count above the value" 10
    (Array.fold_left (fun c x -> if x > t.Helpers.value then c + 1 else c) 0 a);
  (* order of the input does not matter *)
  let shuffled = Array.init 100 (fun i -> float_of_int ((i * 37 mod 100) + 1)) in
  Alcotest.check close "order-free" 90. (Helpers.tail shuffled).Helpers.value;
  let t25 = Helpers.tail (Array.init 25 float_of_int) in
  Alcotest.check close "n=25 -> 15th smallest" 14. t25.Helpers.value;
  Alcotest.check close "n=25 -> p60" 60. t25.Helpers.pct;
  let small = Helpers.tail [| 3.; 1.; 2. |] in
  Alcotest.(check int) "too few samples: none beyond" 0 small.Helpers.beyond;
  Alcotest.check close "too few samples: the maximum" 3. small.Helpers.value;
  let twenty = Helpers.tail (Array.init 20 float_of_int) in
  Alcotest.(check int) "n=20: the rank would be the median, so none beyond"
    0 twenty.Helpers.beyond;
  Alcotest.check close "n=20 -> the maximum" 19. twenty.Helpers.value;
  let t21 = Helpers.tail (Array.init 21 float_of_int) in
  Alcotest.(check int) "n=21 has exactly ten beyond" 10 t21.Helpers.beyond;
  Alcotest.check close "n=21 -> the 11th smallest" 10. t21.Helpers.value

let test_quantile () =
  let a = [| 4.; 1.; 3.; 2. |] in
  Alcotest.check close "median interpolates" 2.5 (Helpers.median a);
  Alcotest.check close "q=0 min" 1. (Helpers.quantile a 0.);
  Alcotest.check close "q=1 max" 4. (Helpers.quantile a 1.);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Helpers.median [||]))

let span id parent name t0 t1 = { Helpers.id; parent; name; key = 0; t0; t1 }

let self_of name l =
  match List.assoc_opt name l with Some v -> v | None -> Alcotest.failf "no %s" name

let test_self_time_nested () =
  (* root [0,10]; step [1,6] with cells [1,3] and [3,5]; step [7,9]; a
     grandchild must be subtracted from its parent only, not the root *)
  let spans =
    [ span 1 0 "root" 0. 10.;
      span 2 1 "step" 1. 6.;
      span 3 2 "cells" 1. 3.;
      span 4 2 "cells" 3. 5.;
      span 5 1 "step" 7. 9.;
      span 6 3 "inner" 2. 3. ]
  in
  let st = Helpers.self_times spans in
  Alcotest.check close "root self = 10 - 5 - 2" 3. (self_of "root" st);
  Alcotest.check close "step self = (5 - 4) + 2" 3. (self_of "step" st);
  Alcotest.check close "cells self = (2 - 1) + 2" 3. (self_of "cells" st);
  Alcotest.check close "inner" 1. (self_of "inner" st);
  let sum = List.fold_left (fun a (_, v) -> a +. v) 0. st in
  Alcotest.check close "self times add up to the root" 10. sum;
  (* overlapping siblings are subtracted once, as a union *)
  let st =
    Helpers.self_times
      [ span 1 0 "p" 0. 10.; span 2 1 "a" 1. 4.; span 3 1 "b" 3. 5. ]
  in
  Alcotest.check close "union of overlapping children" 6. (self_of "p" st);
  (* a child sticking out of its parent is clipped *)
  let st = Helpers.self_times [ span 1 0 "p" 0. 2.; span 2 1 "c" 1. 5. ] in
  Alcotest.check close "clipped child" 1. (self_of "p" st);
  Alcotest.(check (list string)) "first-seen order" [ "p"; "c" ] (List.map fst st)

let test_digests () =
  let d = Helpers.digest [ "a"; "b" ] in
  Alcotest.(check bool) "order matters" true (d <> Helpers.digest [ "b"; "a" ]);
  Alcotest.(check bool) "line split matters" true (d <> Helpers.digest [ "ab" ]);
  let path = Filename.temp_file "perfbench" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Helpers.save_digests path [ ("w.tables", d); ("v.slots", "00") ];
  let loaded = Helpers.load_digests path in
  Alcotest.(check bool) "match" true
    (Helpers.check_digest loaded ~key:"w.tables" ~actual:d = Helpers.Match);
  Alcotest.(check bool) "mismatch" true
    (match Helpers.check_digest loaded ~key:"v.slots" ~actual:d with
     | Helpers.Mismatch { expected } -> expected = "00"
     | _ -> false);
  Alcotest.(check bool) "absent" true
    (Helpers.check_digest loaded ~key:"x" ~actual:d = Helpers.Absent);
  Alcotest.(check (list (pair string string))) "missing file" []
    (Helpers.load_digests (path ^ ".none"))

let () =
  Alcotest.run "perfbench"
    [ ( "helpers",
        [ Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "quantiles" `Quick test_quantile;
          Alcotest.test_case "self time over nested spans" `Quick
            test_self_time_nested;
          Alcotest.test_case "digest comparison" `Quick test_digests ] ) ]
