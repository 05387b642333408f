(* Tests for the telemetry subsystem (lib/obs) and its instrumentation of
   the simulation stack. *)

open Sinr_geom
open Sinr_phys
open Sinr_engine
open Sinr_obs

(* Every test starts from a clean, enabled registry and leaves the registry
   disabled (the rest of the suite must keep running uninstrumented).
   [reset_for_tests] also invalidates shards left behind by domains spawned
   in earlier cases, so cases cannot observe each other's histograms. *)
let with_registry f () =
  Metrics.reset_for_tests ();
  Metrics.set_enabled true;
  Fun.protect ~finally:Metrics.reset_for_tests f

(* ---------------- registry basics ---------------- *)

let test_disabled_is_noop () =
  Metrics.reset ();
  Metrics.set_enabled false;
  let c = Metrics.counter "test.noop_counter" in
  let h = Metrics.histogram "test.noop_hist" in
  Metrics.incr c;
  Metrics.add c 10;
  Metrics.observe h 3.0;
  Alcotest.(check int) "counter untouched" 0 (Metrics.counter_value c);
  Alcotest.(check int) "histogram untouched" 0 (Metrics.histogram_count h);
  Alcotest.(check bool) "snapshot omits dead metrics" true
    (not (List.mem_assoc "test.noop_counter" (Metrics.snapshot ())))

let test_counter_and_gauge =
  with_registry (fun () ->
      let c = Metrics.counter "test.c" in
      let g = Metrics.gauge "test.g" in
      Metrics.incr c;
      Metrics.add c 4;
      Metrics.set g 2.5;
      Alcotest.(check int) "counter" 5 (Metrics.counter_value c);
      Alcotest.(check (float 1e-9)) "gauge" 2.5 (Metrics.gauge_value g);
      (* get-or-create returns the same handle *)
      Metrics.incr (Metrics.counter "test.c");
      Alcotest.(check int) "shared handle" 6 (Metrics.counter_value c);
      Alcotest.(check (option int)) "peek" (Some 6)
        (Metrics.counter_peek "test.c");
      (* registering the same name as another kind is an error *)
      Alcotest.check_raises "kind clash"
        (Invalid_argument "Metrics: test.c already registered as a counter")
        (fun () -> ignore (Metrics.gauge "test.c")))

let test_histogram_buckets =
  with_registry (fun () ->
      let h = Metrics.histogram "test.h" in
      (* All mass at a single value: clamping to observed min/max makes
         every quantile exact regardless of bucket width. *)
      for _ = 1 to 100 do
        Metrics.observe h 5.0
      done;
      Alcotest.(check int) "count" 100 (Metrics.histogram_count h);
      Alcotest.(check (float 1e-9)) "sum" 500.0 (Metrics.histogram_sum h);
      List.iter
        (fun q ->
          Alcotest.(check (float 1e-9)) "point mass quantile" 5.0
            (Metrics.quantile h q))
        [ 0.5; 0.9; 0.99 ])

let test_histogram_quantiles =
  with_registry (fun () ->
      let h = Metrics.histogram "test.hq" in
      (* 90 observations in [1,2) and 10 in [64,128): p50 must sit in the
         low bucket, p99 in the high one, and the estimates must be
         monotone in q. *)
      for _ = 1 to 90 do
        Metrics.observe h 1.0
      done;
      for _ = 1 to 10 do
        Metrics.observe h 100.0
      done;
      let p50 = Metrics.quantile h 0.5 in
      let p90 = Metrics.quantile h 0.9 in
      let p99 = Metrics.quantile h 0.99 in
      Alcotest.(check bool) "p50 in low bucket" true (p50 >= 1.0 && p50 < 2.0);
      Alcotest.(check bool) "p99 in high bucket" true
        (p99 >= 64.0 && p99 <= 128.0);
      Alcotest.(check bool) "monotone" true (p50 <= p90 && p90 <= p99);
      (* negative / NaN observations are clamped, not dropped *)
      Metrics.observe h (-3.0);
      Alcotest.(check int) "clamped obs counted" 101
        (Metrics.histogram_count h);
      Alcotest.(check (float 1e-9)) "clamped to zero -> min" 0.0
        (Metrics.quantile h 0.0))

(* The standalone estimator behind both Metrics.quantile and trace-report's
   percentile lines: monotone in q over arbitrary bucket shapes, clamped to
   the observed extremes, nan when empty. *)
let test_estimate_quantile_monotone () =
  let grid =
    [ 0.0; 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 0.999; 1.0 ]
  in
  let check_dist name values =
    let counts = Array.make Metrics.nbuckets 0 in
    let lo = ref infinity and hi = ref neg_infinity in
    List.iter
      (fun v ->
        if v < !lo then lo := v;
        if v > !hi then hi := v;
        let i = Metrics.bucket_of v in
        counts.(i) <- counts.(i) + 1)
      values;
    let total = List.length values in
    let q p =
      Metrics.estimate_quantile ~counts ~total ~lo:!lo ~hi:!hi p
    in
    let estimates = List.map q grid in
    let rec monotone = function
      | a :: (b :: _ as rest) -> a <= b && monotone rest
      | _ -> true
    in
    Alcotest.(check bool) (name ^ " monotone over the grid") true
      (monotone estimates);
    List.iter
      (fun e ->
        Alcotest.(check bool) (name ^ " clamped to [lo, hi]") true
          (e >= !lo && e <= !hi))
      estimates
  in
  check_dist "uniform" (List.init 100 (fun i -> float_of_int (i + 1)));
  check_dist "point mass" (List.init 50 (fun _ -> 17.0));
  check_dist "bimodal"
    (List.init 90 (fun _ -> 1.5) @ List.init 10 (fun _ -> 900.));
  check_dist "powers"
    (List.init 20 (fun i -> Float.of_int (1 lsl (i mod 10))));
  check_dist "single sample" [ 3.25 ];
  (* Empty input: nan, not an exception. *)
  Alcotest.(check bool) "empty input is nan" true
    (Float.is_nan
       (Metrics.estimate_quantile
          ~counts:(Array.make Metrics.nbuckets 0)
          ~total:0 ~lo:infinity ~hi:neg_infinity 0.5))

let test_reset =
  with_registry (fun () ->
      let c = Metrics.counter "test.reset_c" in
      let h = Metrics.histogram "test.reset_h" in
      Metrics.incr c;
      Metrics.observe h 1.0;
      Metrics.reset ();
      Alcotest.(check int) "counter zeroed" 0 (Metrics.counter_value c);
      Alcotest.(check int) "histogram zeroed" 0 (Metrics.histogram_count h);
      Alcotest.(check int) "snapshot empty" 0
        (List.length (Metrics.snapshot ())))

let test_reset_for_tests () =
  Metrics.reset_for_tests ();
  Metrics.set_enabled true;
  let c = Metrics.counter "rft.c" in
  let h = Metrics.histogram "rft.h" in
  Metrics.incr c;
  Metrics.observe h 2.0;
  Metrics.reset_for_tests ();
  Alcotest.(check bool) "registry left disabled" false (Metrics.is_enabled ());
  Metrics.incr c;
  (* gated off: must not count *)
  Alcotest.(check int) "counter zeroed and gated" 0 (Metrics.counter_value c);
  Alcotest.(check int) "histogram zeroed" 0 (Metrics.histogram_count h);
  (* Handles created before the reset keep working afterwards. *)
  Metrics.set_enabled true;
  Fun.protect ~finally:Metrics.reset_for_tests @@ fun () ->
  Metrics.incr c;
  Metrics.observe h 4.0;
  Alcotest.(check int) "handle alive after reset" 1 (Metrics.counter_value c);
  Alcotest.(check (float 1e-9)) "shard re-created after reset" 4.0
    (Metrics.histogram_sum h)

(* ---------------- domain safety ---------------- *)

let test_multi_domain_stress =
  with_registry (fun () ->
      (* Four domains hammer the same counter, gauge and histogram through
         the public API, each fetching its own handles so concurrent
         get-or-create registration is exercised too.  Counters and
         histogram totals are exact (atomics / per-histogram lock), so the
         checks are equalities, not bounds. *)
      let domains = 4 and incrs = 25_000 and observes = 5_000 in
      let spawned =
        Array.init domains (fun d ->
            Domain.spawn (fun () ->
                let c = Metrics.counter "stress.c" in
                let g = Metrics.gauge "stress.g" in
                let h = Metrics.histogram "stress.h" in
                for _ = 1 to incrs do
                  Metrics.incr c
                done;
                Metrics.add c 5;
                Metrics.set g (float_of_int d);
                for _ = 1 to observes do
                  Metrics.observe h 2.0
                done))
      in
      Array.iter Domain.join spawned;
      Alcotest.(check int) "counter total exact"
        ((domains * incrs) + (domains * 5))
        (Metrics.counter_value (Metrics.counter "stress.c"));
      let h = Metrics.histogram "stress.h" in
      Alcotest.(check int) "histogram count exact" (domains * observes)
        (Metrics.histogram_count h);
      Alcotest.(check (float 1e-6)) "histogram sum exact"
        (2.0 *. float_of_int (domains * observes))
        (Metrics.histogram_sum h);
      Alcotest.(check (float 1e-9)) "point-mass quantile survives" 2.0
        (Metrics.quantile h 0.5);
      let g = Metrics.gauge_value (Metrics.gauge "stress.g") in
      Alcotest.(check bool) "gauge holds one of the written values" true
        (List.mem g [ 0.; 1.; 2.; 3. ]);
      (* The registry itself stayed consistent under concurrent create. *)
      Alcotest.(check int) "three metrics registered" 3
        (List.length (Metrics.snapshot ())))

(* Sharding must be a pure representation change: the same observation
   stream split across four domains merges to the exact single-domain
   result — bucket-for-bucket and observation-for-observation — with the
   sum agreeing up to float re-association, and the merged snapshot is
   deterministic (two quiescent reads agree structurally). *)
let test_shard_merge_matches_single_domain =
  with_registry (fun () ->
      let domains = 4 and per = 5_000 in
      let value d i = float_of_int (((i * 7) + (d * 13)) mod 1000) in
      let single = Metrics.histogram "shard.single" in
      for d = 0 to domains - 1 do
        for i = 0 to per - 1 do
          Metrics.observe single (value d i)
        done
      done;
      let spawned =
        Array.init domains (fun d ->
            Domain.spawn (fun () ->
                let h = Metrics.histogram "shard.merged" in
                for i = 0 to per - 1 do
                  Metrics.observe h (value d i)
                done))
      in
      Array.iter Domain.join spawned;
      let merged = Metrics.histogram "shard.merged" in
      Alcotest.(check int) "count exact" (Metrics.histogram_count single)
        (Metrics.histogram_count merged);
      Alcotest.(check (array int)) "buckets identical"
        (Metrics.histogram_buckets single)
        (Metrics.histogram_buckets merged);
      Alcotest.(check (float 1e-6)) "sum agrees"
        (Metrics.histogram_sum single)
        (Metrics.histogram_sum merged);
      let s = Metrics.summarize single and m = Metrics.summarize merged in
      Alcotest.(check (float 0.)) "min exact" s.Metrics.min m.Metrics.min;
      Alcotest.(check (float 0.)) "max exact" s.Metrics.max m.Metrics.max;
      List.iter
        (fun q ->
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "q=%.2f identical" q)
            (Metrics.quantile single q) (Metrics.quantile merged q))
        [ 0.5; 0.9; 0.99 ];
      Alcotest.(check bool) "quiescent snapshot is stable" true
        (Metrics.snapshot () = Metrics.snapshot ()))

(* ---------------- json + sink round-trip ---------------- *)

let test_json_parse () =
  let j = Json.parse {|{"a": [1, 2.5, "x\n", true, null], "b": {"c": -3}}|} in
  Alcotest.(check (option int)) "nested int"
    (Some (-3))
    (Option.bind (Json.member "b" j) (fun b ->
         Option.bind (Json.member "c" b) Json.to_int));
  (match Json.member "a" j with
   | Some (Json.List [ Json.Num one; Json.Num h; Json.Str s; Json.Bool true;
                       Json.Null ]) ->
     Alcotest.(check (float 1e-9)) "1" 1.0 one;
     Alcotest.(check (float 1e-9)) "2.5" 2.5 h;
     Alcotest.(check string) "escape" "x\n" s
   | _ -> Alcotest.fail "unexpected array shape");
  Alcotest.(check bool) "malformed rejected" true
    (Json.parse_opt "{broken" = None);
  Alcotest.(check bool) "trailing garbage rejected" true
    (Json.parse_opt "1 2" = None)

let test_json_escapes () =
  (* \u escapes: ASCII, 2-byte and 3-byte UTF-8 targets. *)
  (match Json.parse {|"\u0041\u00e9\u20ac"|} with
   | Json.Str s ->
     Alcotest.(check string) "unicode escapes decode to UTF-8"
       "A\xc3\xa9\xe2\x82\xac" s
   | _ -> Alcotest.fail "expected a string");
  (match Json.parse {|"\b\f\/\\\""|} with
   | Json.Str s ->
     Alcotest.(check string) "rare escapes" "\b\012/\\\"" s
   | _ -> Alcotest.fail "expected a string");
  (* Control characters render as \u escapes and survive a round trip. *)
  let original = Json.Str "tab\there\x01\x1f" in
  let printed = Json.to_string_json original in
  Alcotest.(check bool) "control chars escaped on output" true
    (String.for_all (fun c -> Char.code c >= 0x20) printed);
  Alcotest.(check bool) "string round-trips" true
    (Json.parse printed = original);
  Alcotest.(check bool) "bad unicode escape rejected" true
    (Json.parse_opt {|"\uZZZZ"|} = None);
  Alcotest.(check bool) "truncated unicode escape rejected" true
    (Json.parse_opt {|"\u00|} = None);
  Alcotest.(check bool) "unknown escape rejected" true
    (Json.parse_opt {|"\q"|} = None);
  Alcotest.(check bool) "unterminated string rejected" true
    (Json.parse_opt {|"abc|} = None)

let test_json_numbers () =
  let num s =
    match Json.parse s with
    | Json.Num f -> f
    | _ -> Alcotest.failf "%s did not parse to a number" s
  in
  Alcotest.(check (float 1e-9)) "exponent" 2500. (num "2.5e3");
  Alcotest.(check (float 1e-12)) "negative exponent" (-0.005) (num "-0.5E-2");
  Alcotest.(check (float 1e294)) "huge but finite" 1e308 (num "1e308");
  (* The sink prints infinities as +-1e999 (out of double range, so they
     parse straight back to infinities) and NaN as null. *)
  Alcotest.(check bool) "1e999 overflows to infinity" true
    (num "1e999" = infinity);
  Alcotest.(check bool) "-1e999 overflows to -infinity" true
    (num "-1e999" = neg_infinity);
  Alcotest.(check string) "infinity prints as 1e999" "1e999"
    (Json.to_string_json (Json.Num infinity));
  Alcotest.(check bool) "infinity round-trips" true
    (Json.parse (Json.to_string_json (Json.Num infinity)) = Json.Num infinity);
  Alcotest.(check string) "nan prints as null" "null"
    (Json.to_string_json (Json.Num Float.nan));
  Alcotest.(check bool) "lone minus rejected" true
    (Json.parse_opt "-" = None);
  Alcotest.(check bool) "double dot rejected" true
    (Json.parse_opt "1.2.3" = None)

let test_json_deep_nesting () =
  let depth = 200 in
  let deep_list =
    String.concat "" (List.init depth (fun _ -> "["))
    ^ "7"
    ^ String.concat "" (List.init depth (fun _ -> "]"))
  in
  let rec unwrap d j =
    match j with
    | Json.List [ inner ] -> unwrap (d + 1) inner
    | Json.Num f -> (d, f)
    | _ -> Alcotest.fail "unexpected shape in deep list"
  in
  let d, f = unwrap 0 (Json.parse deep_list) in
  Alcotest.(check int) "all layers parsed" depth d;
  Alcotest.(check (float 1e-9)) "payload intact" 7. f;
  (* Deep objects, and the printer survives the same depth. *)
  let deep_obj =
    String.concat "" (List.init depth (fun _ -> {|{"k":|}))
    ^ "null"
    ^ String.make depth '}'
  in
  let j = Json.parse deep_obj in
  Alcotest.(check bool) "deep object round-trips" true
    (Json.parse (Json.to_string_json j) = j)

let test_json_trailing_garbage () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "%S rejected" s) true
        (Json.parse_opt s = None))
    [ "[1,]"; {|{"a":1,}|}; "{} x"; "[] []"; "1 2"; {|"a" "b"|}; "tru";
      "nul"; "[1 2]"; {|{"a" 1}|}; "," ];
  (* Leading/trailing whitespace is not garbage. *)
  Alcotest.(check bool) "surrounding whitespace accepted" true
    (Json.parse "  [1, 2]  \n" = Json.List [ Json.Num 1.; Json.Num 2. ])

let value_eq a b =
  match (a, b) with
  | Metrics.Counter_v x, Metrics.Counter_v y -> x = y
  | Metrics.Gauge_v x, Metrics.Gauge_v y -> Float.abs (x -. y) < 1e-9
  | Metrics.Histogram_v x, Metrics.Histogram_v y ->
    x.Metrics.count = y.Metrics.count
    && Float.abs (x.Metrics.sum -. y.Metrics.sum) < 1e-6
    && Float.abs (x.Metrics.p50 -. y.Metrics.p50) < 1e-6
    && Float.abs (x.Metrics.p99 -. y.Metrics.p99) < 1e-6
  | _ -> false

let test_snapshot_roundtrip =
  with_registry (fun () ->
      Metrics.incr (Metrics.counter "rt.count");
      Metrics.add (Metrics.counter "rt.count") 41;
      Metrics.set (Metrics.gauge "rt.gauge") 3.25;
      let h = Metrics.histogram "rt.hist" in
      List.iter (Metrics.observe h) [ 1.0; 2.0; 4.0; 4.0; 150.0 ];
      let snap = Metrics.snapshot () in
      let line = Sink.snapshot_to_jsonl ~label:"test" snap in
      let parsed = Json.parse (String.trim line) in
      Alcotest.(check (option string)) "label survives" (Some "test")
        (Option.bind (Json.member "label" parsed) Json.to_string);
      match Sink.snapshot_of_json parsed with
      | None -> Alcotest.fail "snapshot_of_json failed"
      | Some snap' ->
        Alcotest.(check int) "same cardinality" (List.length snap)
          (List.length snap');
        List.iter2
          (fun (n, v) (n', v') ->
            Alcotest.(check string) "name order" n n';
            Alcotest.(check bool) (n ^ " value survives") true
              (value_eq v v'))
          snap snap')

(* write_file goes through a temp-and-rename: the destination either holds
   the old contents or the new ones, and no *.tmp.* residue survives. *)
let test_atomic_write_file () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sinr-obs-atomic-%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o700;
  let path = Filename.concat dir "snap.json" in
  Sink.write_file path "first\n";
  Sink.write_file path "second\n";
  let ic = open_in path in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Alcotest.(check string) "overwrite lands the new contents" "second\n"
    contents;
  Alcotest.(check (list string)) "no temp residue" [ "snap.json" ]
    (Array.to_list (Sys.readdir dir) |> List.sort compare);
  Sys.remove path;
  Unix.rmdir dir

let has_sub text needle =
  let nl = String.length needle and tl = String.length text in
  let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
  go 0

let count_sub text needle =
  let nl = String.length needle and tl = String.length text in
  let rec go acc i =
    if i + nl > tl then acc
    else if String.sub text i nl = needle then go (acc + 1) (i + 1)
    else go acc (i + 1)
  in
  if nl = 0 then 0 else go 0 0

(* Line-by-line validator for the Prometheus text exposition format (what a
   real scraper parses): comment lines must be well-formed HELP/TYPE
   headers, everything else must be [name[{labels}] value] with a name in
   [a-zA-Z0-9_:] and a parseable value. *)
let check_prometheus_text what text =
  let is_name_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
    | _ -> false
  in
  let valid_value v =
    v = "NaN" || v = "+Inf" || v = "-Inf" || float_of_string_opt v <> None
  in
  let valid_sample line =
    let n = String.length line in
    let i = ref 0 in
    while !i < n && is_name_char line.[!i] do
      incr i
    done;
    !i > 0
    &&
    let j =
      if !i < n && line.[!i] = '{' then
        match String.index_from_opt line !i '}' with
        | Some k -> k + 1
        | None -> -1
      else !i
    in
    j > 0 && j < n
    && line.[j] = ' '
    && valid_value (String.sub line (j + 1) (n - j - 1))
  in
  let valid_header line =
    match String.split_on_char ' ' line with
    | [ "#"; "TYPE"; name; typ ] ->
      String.for_all is_name_char name
      && List.mem typ [ "counter"; "gauge"; "summary"; "histogram"; "untyped" ]
    | "#" :: "HELP" :: name :: _ -> String.for_all is_name_char name
    | _ -> false
  in
  let lines = String.split_on_char '\n' (String.trim text) in
  Alcotest.(check bool) (what ^ " is non-empty") true (lines <> [ "" ]);
  List.iter
    (fun line ->
      let ok =
        if String.length line > 0 && line.[0] = '#' then valid_header line
        else valid_sample line
      in
      if not ok then Alcotest.failf "%s: invalid exposition line %S" what line)
    lines

let test_prometheus =
  with_registry (fun () ->
      Metrics.add (Metrics.counter "prom.requests") 7;
      Metrics.set (Metrics.gauge "prom.depth") 1.5;
      Metrics.observe (Metrics.histogram "prom.lat") 2.0;
      let text = Sink.snapshot_to_prometheus (Metrics.snapshot ()) in
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("contains " ^ needle) true (has_sub text needle))
        [ "# TYPE prom_requests counter"; "prom_requests 7";
          "prom_depth 1.5"; "# TYPE prom_lat summary";
          "prom_lat{quantile=\"0.5\"} 2"; "prom_lat_count 1" ];
      check_prometheus_text "snapshot exposition" text)

let test_prometheus_hardening () =
  (* Escaping helpers: label values escape backslash, quote and newline;
     HELP text escapes backslash and newline but keeps quotes. *)
  Alcotest.(check string) "label escaping" {|a\\b\"c\nd|}
    (Sink.prom_escape_label "a\\b\"c\nd");
  Alcotest.(check string) "help escaping keeps quotes" "say \"hi\"\\nbye"
    (Sink.prom_escape_help "say \"hi\"\nbye");
  (* Distinct dotted names can collapse to one exposition family; HELP and
     TYPE must still appear exactly once per family, and a hostile metric
     name must not inject extra exposition lines through the help text. *)
  let snap =
    [ ("dup.name", Metrics.Counter_v 1);
      ("dup_name", Metrics.Counter_v 2);
      ("weird\nname", Metrics.Gauge_v 1.0) ]
  in
  let text = Sink.snapshot_to_prometheus snap in
  Alcotest.(check int) "TYPE once for the collapsed family" 1
    (count_sub text "# TYPE dup_name counter");
  Alcotest.(check int) "HELP once for the collapsed family" 1
    (count_sub text "# HELP dup_name ");
  Alcotest.(check int) "both samples still emitted" 2
    (count_sub text "\ndup_name ");
  Alcotest.(check bool) "newline in name escaped in help" true
    (has_sub text "sinr_sim metric weird\\nname");
  check_prometheus_text "hardened exposition" text

(* ---------------- labeled metrics ---------------- *)

let test_labels =
  with_registry (fun () ->
      (* Canonicalization: key order is irrelevant — the same label set
         interns to the same registry child. *)
      let a = Metrics.labels [ ("job_id", "7"); ("kind", "x") ] in
      let b = Metrics.labels [ ("kind", "x"); ("job_id", "7") ] in
      Alcotest.(check string) "canonical order" (a :> string) (b :> string);
      let c1 = Metrics.counter_with "lbl.cells" a in
      let c2 = Metrics.counter_with "lbl.cells" b in
      Metrics.incr c1;
      Metrics.add c2 2;
      Alcotest.(check int) "one interned child" 3 (Metrics.counter_value c1);
      (* the bare family is a distinct series *)
      Metrics.incr (Metrics.counter "lbl.cells");
      Alcotest.(check int) "bare family separate" 1
        (Metrics.counter_value (Metrics.counter "lbl.cells"));
      (* split_name round-trips, escapes included *)
      let tricky = Metrics.labels [ ("k", "a\"b\\c\nd") ] in
      Alcotest.(check (pair string (list (pair string string))))
        "split_name round-trip"
        ("lbl.cells", [ ("k", "a\"b\\c\nd") ])
        (Metrics.split_name ("lbl.cells" ^ (tricky :> string)));
      Alcotest.(check (pair string (list (pair string string))))
        "bare name" ("plain", [])
        (Metrics.split_name "plain");
      (* a malformed suffix is not labels — total, degrades to bare *)
      Alcotest.(check (pair string (list (pair string string))))
        "malformed degrades" ("x{oops", [])
        (Metrics.split_name "x{oops");
      (match Metrics.labels [ ("9bad", "v") ] with
       | (_ : Metrics.labels) -> Alcotest.fail "invalid key accepted"
       | exception Invalid_argument _ -> ());
      (match Metrics.labels [ ("k", "1"); ("k", "2") ] with
       | (_ : Metrics.labels) -> Alcotest.fail "duplicate key accepted"
       | exception Invalid_argument _ -> ());
      (* Prometheus rendering: labeled children under one family header,
         quantile merged into the label set. *)
      Metrics.set
        (Metrics.gauge_with "lbl.g" (Metrics.labels [ ("job_id", "1") ]))
        2.0;
      Metrics.observe (Metrics.histogram_with "lbl.h" a) 1.0;
      let text = Sink.snapshot_to_prometheus (Metrics.snapshot ()) in
      Alcotest.(check bool) "labeled counter sample" true
        (has_sub text "lbl_cells{job_id=\"7\",kind=\"x\"} 3");
      Alcotest.(check bool) "bare sample kept" true
        (has_sub text "\nlbl_cells 1");
      Alcotest.(check int) "TYPE once for family with children" 1
        (count_sub text "# TYPE lbl_cells counter");
      Alcotest.(check bool) "labeled gauge" true
        (has_sub text "lbl_g{job_id=\"1\"} 2");
      Alcotest.(check bool) "quantile merged into label set" true
        (has_sub text "lbl_h{job_id=\"7\",kind=\"x\",quantile=\"0.5\"} 1");
      Alcotest.(check bool) "labeled histogram count" true
        (has_sub text "lbl_h_count{job_id=\"7\",kind=\"x\"} 1");
      check_prometheus_text "labeled exposition" text)

(* ---------------- span ambient context ---------------- *)

let test_span_context =
  with_registry (fun () ->
      Recorder.clear ();
      Recorder.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Recorder.set_enabled false;
          Recorder.clear ())
      @@ fun () ->
      Span.with_context
        [ ("job_id", Json.int 7) ]
        (fun () ->
          let sp = Span.start ~name:"ctx.inside" ~slot:0 () in
          Span.finish sp ~slot:1);
      let sp = Span.start ~name:"ctx.outside" ~slot:0 () in
      Span.finish sp ~slot:1;
      let dump = Recorder.to_jsonl ~reason:"t" () in
      Alcotest.(check bool) "inside span stamped" true
        (has_sub dump "\"job_id\":7");
      (* ?job keeps the stamped span, drops the rest *)
      let filtered = Recorder.to_jsonl ~job:7 ~reason:"t" () in
      Alcotest.(check bool) "filter keeps stamped" true
        (has_sub filtered "ctx.inside");
      Alcotest.(check bool) "filter drops unstamped" true
        (not (has_sub filtered "ctx.outside"));
      (* context restored on exit *)
      let dump2 = Recorder.to_jsonl ~job:7 ~reason:"t" () in
      Alcotest.(check bool) "context scoped" true
        (not (has_sub dump2 "ctx.outside")))

(* ---------------- procstat ticker ---------------- *)

let test_procstat_ticker =
  with_registry (fun () ->
      let tk = Procstat.start_ticker ~period_s:0.05 () in
      Fun.protect ~finally:(fun () -> Procstat.stop_ticker tk) @@ fun () ->
      (* the first sample is immediate, modulo domain start latency *)
      let gauge_pos k =
        match List.assoc_opt k (Metrics.snapshot ()) with
        | Some (Metrics.Gauge_v g) -> g > 0.
        | _ -> false
      in
      let rec wait n =
        if gauge_pos "proc.rss_kb" then ()
        else if n = 0 then Alcotest.fail "proc.rss_kb never sampled"
        else begin
          Unix.sleepf 0.02;
          wait (n - 1)
        end
      in
      wait 100;
      List.iter
        (fun k -> Alcotest.(check bool) (k ^ " live") true (gauge_pos k))
        [ "proc.rss_kb"; "proc.hwm_kb"; "gc.heap_words" ];
      Procstat.stop_ticker tk;
      (* idempotent *)
      Procstat.stop_ticker tk)

(* ---------------- embedded HTTP server ---------------- *)

let http_get port path =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req =
    Printf.sprintf "GET %s HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
      path
  in
  let (_ : int) = Unix.write_substring sock req 0 (String.length req) in
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    let n = Unix.read sock chunk 0 (Bytes.length chunk) in
    if n > 0 then begin
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
    end
  in
  drain ();
  Buffer.contents buf

let status_of response =
  match String.split_on_char ' ' response with
  | _http :: code :: _ -> int_of_string_opt code
  | _ -> None

let body_of response =
  let n = String.length response in
  let rec find i =
    if i + 4 > n then None
    else if String.sub response i 4 = "\r\n\r\n" then Some (i + 4)
    else find (i + 1)
  in
  match find 0 with
  | Some i -> String.sub response i (n - i)
  | None -> ""

let test_http_endpoints =
  with_registry (fun () ->
      Metrics.add (Metrics.counter "http.requests") 3;
      Metrics.set (Metrics.gauge "http.depth") 0.5;
      let h = Metrics.histogram "http.lat" in
      List.iter (Metrics.observe h) [ 1.0; 2.0; 300.0 ];
      let srv = Http.serve ~port:0 () in
      Fun.protect ~finally:(fun () -> Http.stop srv) @@ fun () ->
      let port = Http.port srv in
      Alcotest.(check bool) "kernel assigned a port" true (port > 0);
      let health = http_get port "/healthz" in
      Alcotest.(check (option int)) "healthz 200" (Some 200) (status_of health);
      (* /healthz is JSON now: status, build version, start time, uptime. *)
      (match Json.parse_opt (body_of health) with
       | None -> Alcotest.failf "healthz body is not JSON: %S" (body_of health)
       | Some j ->
         Alcotest.(check (option string)) "healthz status"
           (Some "ok")
           (match Json.member "status" j with
            | Some (Json.Str s) -> Some s
            | _ -> None);
         Alcotest.(check (option string)) "healthz version"
           (Some Build_info.version)
           (match Json.member "version" j with
            | Some (Json.Str s) -> Some s
            | _ -> None);
         Alcotest.(check bool) "healthz uptime present" true
           (match Json.member "uptime_s" j with
            | Some (Json.Num u) -> u >= 0.
            | _ -> false));
      (* build.info: constant-1 gauge labeled with the version. *)
      Alcotest.(check bool) "build.info labeled gauge" true
        (has_sub (body_of (http_get port "/metrics"))
           (Printf.sprintf "build_info{version=\"%s\"} 1" Build_info.version));
      let metrics = http_get port "/metrics" in
      Alcotest.(check (option int)) "metrics 200" (Some 200)
        (status_of metrics);
      let body = body_of metrics in
      check_prometheus_text "GET /metrics" body;
      Alcotest.(check bool) "served the live counter" true
        (has_sub body "http_requests 3");
      let spans = http_get port "/spans" in
      Alcotest.(check (option int)) "spans 200" (Some 200) (status_of spans);
      (* The ring may be empty, but whatever comes back must be JSONL:
         every non-empty line parses as a JSON object. *)
      List.iter
        (fun line ->
          if line <> "" && Json.parse_opt line = None then
            Alcotest.failf "GET /spans: invalid JSONL line %S" line)
        (String.split_on_char '\n' (body_of spans));
      Alcotest.(check (option int)) "unknown path is 404" (Some 404)
        (status_of (http_get port "/nope"));
      (* Routing corner cases, via the socket-free unit surface. *)
      Alcotest.(check (option int)) "POST rejected" (Some 405)
        (status_of (Http.response_for "POST /metrics HTTP/1.1\r\n\r\n"));
      Alcotest.(check (option int)) "garbage rejected" (Some 400)
        (status_of (Http.response_for "??"));
      Alcotest.(check (option int)) "query string ignored" (Some 200)
        (status_of (Http.response_for "GET /healthz?x=1 HTTP/1.1\r\n\r\n")))

(* /spans?last=N: the ring is served newest-N-capped (default
   Http.default_spans_last) and the header owns up to the truncation. *)
let test_spans_last_cap =
  with_registry (fun () ->
      Recorder.clear ();
      Recorder.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Recorder.set_enabled false;
          Recorder.clear ())
      @@ fun () ->
      for i = 1 to 10 do
        let sp = Span.start ~name:"cap.span" ~slot:i () in
        Span.finish sp ~slot:i
      done;
      let srv = Http.serve ~port:0 () in
      Fun.protect ~finally:(fun () -> Http.stop srv) @@ fun () ->
      let port = Http.port srv in
      let entries body =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' body)
      in
      let all = entries (body_of (http_get port "/spans")) in
      let total = List.length all - 1 (* minus header *) in
      Alcotest.(check bool) "spans recorded" true (total >= 10);
      let capped = entries (body_of (http_get port "/spans?last=3")) in
      Alcotest.(check int) "capped to header + 3" 4 (List.length capped);
      (match Json.parse_opt (List.hd capped) with
       | None -> Alcotest.fail "capped header is not JSON"
       | Some h ->
         Alcotest.(check (option int)) "entries counts what is served"
           (Some 3)
           (Option.bind (Json.member "entries" h) Json.to_int);
         Alcotest.(check (option int)) "total_entries reports the ring"
           (Some total)
           (Option.bind (Json.member "total_entries" h) Json.to_int));
      (* a nonsense value falls back to the default cap, not unbounded *)
      let fallback = entries (body_of (http_get port "/spans?last=-5")) in
      Alcotest.(check int) "negative last = default cap"
        (List.length all) (List.length fallback))

(* ---------------- timer ---------------- *)

let test_timer =
  with_registry (fun () ->
      (* Cons cells allocate on the minor heap (large arrays would go
         straight to the major heap and leave minor_words at 0). *)
      let x, span = Timer.time (fun () -> List.length (List.init 1000 Fun.id)) in
      Alcotest.(check int) "result passthrough" 1000 x;
      Alcotest.(check bool) "wall time non-negative" true (span.Timer.wall_s >= 0.);
      Alcotest.(check bool) "allocated" true (span.Timer.minor_words > 0.);
      ignore (Timer.record ~prefix:"test.span" (fun () -> ()));
      Alcotest.(check bool) "recorded histogram" true
        (Metrics.histogram_count (Metrics.histogram "test.span.ns") = 1))

(* ---------------- trace ring buffer ---------------- *)

let test_trace_eviction_keeps_newest () =
  let t = Trace.create ~capacity:10 () in
  for i = 1 to 25 do
    Trace.record t ~slot:i (Trace.Note (string_of_int i))
  done;
  let evs = Trace.events t in
  Alcotest.(check bool) "bounded" true (List.length evs <= 10);
  (* Newest entry always survives; retained slots are contiguous at the
     tail of the recorded sequence. *)
  let slots = List.map (fun e -> e.Trace.slot) evs in
  let newest = List.nth slots (List.length slots - 1) in
  Alcotest.(check int) "newest kept" 25 newest;
  let oldest = List.hd slots in
  Alcotest.(check (list int)) "contiguous tail"
    (List.init (List.length slots) (fun i -> oldest + i))
    slots;
  Alcotest.(check int) "dropped accounts for the rest"
    (25 - List.length slots) (Trace.dropped t)

let test_trace_full_capacity_stack_safety () =
  (* The default 100k-capacity buffer, filled to the brim: find_first and
     the eviction path must both be stack-safe. *)
  let t = Trace.create () in
  for i = 0 to 100_000 do
    Trace.record t ~slot:i (Trace.Note "x")
  done;
  (match Trace.find_first t (fun e -> e.Trace.slot mod 97 = 0) with
   | Some e -> Alcotest.(check int) "oldest match" 0 (e.Trace.slot mod 97)
   | None -> Alcotest.fail "expected a match");
  Alcotest.(check bool) "evicted half once" true (Trace.dropped t > 0)

let test_trace_jsonl () =
  let t = Trace.create () in
  Trace.record t ~slot:3 (Trace.Bcast { node = 1; msg = 9 });
  Trace.record t ~slot:4 (Trace.Rcv { node = 2; msg = 9; from = 1 });
  let lines =
    String.split_on_char '\n' (String.trim (Trace.to_jsonl t))
  in
  Alcotest.(check int) "one line per event" 2 (List.length lines);
  let first = Json.parse (List.hd lines) in
  Alcotest.(check (option string)) "event tag" (Some "bcast")
    (Option.bind (Json.member "ev" first) Json.to_string);
  Alcotest.(check (option int)) "slot field" (Some 3)
    (Option.bind (Json.member "slot" first) Json.to_int)

(* ---------------- engine hooks + instrumentation ---------------- *)

let cfg = Config.default

let test_run_on_slot () =
  let eng =
    Engine.create ~wake_on_receive:false
      (Sinr.create cfg (Placement.line ~n:2 ~spacing:5.))
  in
  Engine.wake eng 0;
  let slots_seen = ref [] in
  let deliveries_seen = ref 0 in
  let slots =
    Engine.run eng
      ~on_slot:(fun ~slot ds ->
        slots_seen := slot :: !slots_seen;
        deliveries_seen := !deliveries_seen + List.length ds)
      ~decide:(fun _ -> Engine.Transmit "m")
      ~stop:(fun () -> false)
      ~max_slots:7
  in
  Alcotest.(check int) "slots executed" 7 slots;
  Alcotest.(check (list int)) "on_slot fired in order" [ 0; 1; 2; 3; 4; 5; 6 ]
    (List.rev !slots_seen);
  Alcotest.(check int) "deliveries threaded" (Engine.delivery_total eng)
    !deliveries_seen

let test_engine_counters =
  with_registry (fun () ->
      let eng =
        Engine.create ~wake_on_receive:false
          (Sinr.create cfg (Placement.line ~n:2 ~spacing:5.))
      in
      Engine.wake eng 0;
      for _ = 1 to 5 do
        ignore (Engine.step eng ~decide:(fun _ -> Engine.Transmit "m"))
      done;
      let peek n = Option.value ~default:0 (Metrics.counter_peek n) in
      Alcotest.(check int) "engine.slots" 5 (peek "engine.slots");
      Alcotest.(check int) "engine.tx" 5 (peek "engine.tx");
      Alcotest.(check int) "engine.deliveries" 5 (peek "engine.deliveries");
      Alcotest.(check int) "engine.wakeups" 1 (peek "engine.wakeups");
      let h = Metrics.histogram "engine.slot_deliveries" in
      Alcotest.(check int) "slot histogram count" 5
        (Metrics.histogram_count h))

(* ---------------- slot-phase profiler ---------------- *)

let check_shares_sum r =
  let total_share =
    List.fold_left (fun acc row -> acc +. row.Profile.r_share) 0.
      r.Profile.rows
  in
  if not (total_share >= 99.9 && total_share <= 105.0) then
    Alcotest.failf "stage shares sum to %.2f%%, expected ~100%%" total_share

let test_profile_report =
  with_registry (fun () ->
      Alcotest.(check bool) "no profiled slots -> no report" true
        (Profile.report () = None);
      let slots = 60 in
      Profile.with_enabled (fun () ->
          let eng =
            Engine.create ~wake_on_receive:false
              (Sinr.create cfg (Placement.line ~n:2 ~spacing:5.))
          in
          Engine.wake eng 0;
          for _ = 1 to slots do
            ignore (Engine.step eng ~decide:(fun _ -> Engine.Transmit "m"))
          done);
      Alcotest.(check bool) "profiler left disabled" false
        (Profile.is_enabled ());
      match Profile.report () with
      | None -> Alcotest.fail "expected a report"
      | Some r ->
        Alcotest.(check int) "every stepped slot profiled" slots
          r.Profile.slots;
        Alcotest.(check bool) "wall time measured" true (r.Profile.step_ns > 0.);
        Alcotest.(check (list string)) "stage rows in order"
          [ "decide"; "perturb"; "resolve"; "delivery"; "telemetry"; "other" ]
          (List.map (fun row -> row.Profile.r_stage) r.Profile.rows);
        List.iter
          (fun row ->
            Alcotest.(check bool) (row.Profile.r_stage ^ " share >= 0") true
              (row.Profile.r_share >= 0.))
          r.Profile.rows;
        check_shares_sum r;
        Alcotest.(check bool) "exact path has no sparse row" true
          (r.Profile.sparse = None);
        (* The per-stage histograms flow through the normal snapshot. *)
        Alcotest.(check int) "profile.step.ns in the registry" slots
          (Metrics.histogram_count (Metrics.histogram "profile.step.ns")))

(* Past the sparse threshold every slot with a sender runs the Sparse
   sub-stage once.  It is timed inside resolve, so it is reported beside
   the stage rows, never among them, and the shares still sum to ~100%. *)
let test_profile_sparse_substage =
  with_registry (fun () ->
      let prev = Phys_tuning.sparse_threshold () in
      Phys_tuning.set_sparse_threshold 2;
      let sinr =
        Fun.protect
          ~finally:(fun () -> Phys_tuning.set_sparse_threshold prev)
          (fun () -> Sinr.create cfg (Placement.line ~n:8 ~spacing:5.))
      in
      Alcotest.(check bool) "sparse path installed" true
        (Sinr.sparse sinr <> None);
      let slots = 25 in
      Profile.with_enabled (fun () ->
          let eng = Engine.create ~wake_on_receive:false sinr in
          Engine.wake eng 0;
          for _ = 1 to slots do
            ignore (Engine.step eng ~decide:(fun _ -> Engine.Transmit "m"))
          done);
      match Profile.report () with
      | None -> Alcotest.fail "expected a report"
      | Some r ->
        (match r.Profile.sparse with
         | None -> Alcotest.fail "expected a sparse sub-stage row"
         | Some sp ->
           Alcotest.(check int) "one sparse sample per slot" slots
             sp.Profile.r_count);
        Alcotest.(check bool) "sparse is not a share row" false
          (List.exists (fun row -> row.Profile.r_stage = "sparse")
             r.Profile.rows);
        check_shares_sum r)

(* ---------------- instrumented approx-progress smoke ---------------- *)

let test_approg_instrumented_smoke =
  with_registry (fun () ->
      let rng = Rng.create 77 in
      let pts =
        Placement.uniform rng ~n:40 ~box:(Box.square ~side:25.) ~min_dist:1.
      in
      let sinr = Sinr.create cfg pts in
      let lambda = Sinr_phys.Induced.lambda cfg pts in
      let sched =
        Sinr_mac.Params.schedule cfg ~lambda Sinr_mac.Params.default_approg
      in
      let senders = List.filter (fun v -> v mod 2 = 0) (List.init 40 Fun.id) in
      let _samples, _machine =
        Sinr_mac.Measure.approx_progress_only sinr ~rng:(Rng.create 78)
          ~senders
          ~max_slots:(2 * sched.Sinr_mac.Params.epoch_slots)
      in
      let peek n = Option.value ~default:0 (Metrics.counter_peek n) in
      let slots = peek "engine.slots" in
      let tx = peek "engine.tx" in
      let deliveries = peek "engine.deliveries" in
      let epochs = peek "approg.epochs" in
      let phases = peek "approg.phases" in
      Alcotest.(check bool) "ran some slots" true (slots > 0);
      Alcotest.(check bool) "transmitted" true (tx > 0);
      Alcotest.(check bool) "delivered" true (deliveries > 0);
      Alcotest.(check bool) "at least one epoch" true (epochs >= 1);
      (* Slot accounting: completed phases fit in the slots executed (each
         phase costs phase_slots engine slots), with one-epoch slack for
         the epoch begun at machine creation. *)
      Alcotest.(check bool) "phases consistent with slots" true
        (phases * sched.Sinr_mac.Params.phase_slots
         <= slots + sched.Sinr_mac.Params.epoch_slots);
      Alcotest.(check bool) "epochs consistent with slots" true
        ((epochs - 1) * sched.Sinr_mac.Params.epoch_slots <= slots);
      (* A transmission is decoded by at most (n-1) listeners (and under
         beta > 1 at most one sender is decodable per listener per slot). *)
      Alcotest.(check bool) "deliveries bounded by tx fan-out" true
        (deliveries <= tx * 39);
      Alcotest.(check bool) "engine totals agree with metrics" true
        (deliveries <= slots * 40);
      (* The per-slot delivery histogram covered every slot. *)
      Alcotest.(check int) "delivery histogram count = slots" slots
        (Metrics.histogram_count (Metrics.histogram "engine.slot_deliveries")))

let suite =
  [ Alcotest.test_case "disabled registry is a no-op" `Quick
      test_disabled_is_noop;
    Alcotest.test_case "counter and gauge" `Quick test_counter_and_gauge;
    Alcotest.test_case "histogram point mass" `Quick test_histogram_buckets;
    Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "reset_for_tests isolates cases" `Quick
      test_reset_for_tests;
    Alcotest.test_case "multi-domain stress (exact totals)" `Quick
      test_multi_domain_stress;
    Alcotest.test_case "shard merge matches single domain" `Quick
      test_shard_merge_matches_single_domain;
    Alcotest.test_case "json parse" `Quick test_json_parse;
    Alcotest.test_case "json escapes" `Quick test_json_escapes;
    Alcotest.test_case "json numbers (exponents, infinities)" `Quick
      test_json_numbers;
    Alcotest.test_case "json deep nesting" `Quick test_json_deep_nesting;
    Alcotest.test_case "json trailing garbage" `Quick
      test_json_trailing_garbage;
    Alcotest.test_case "quantile estimator monotone" `Quick
      test_estimate_quantile_monotone;
    Alcotest.test_case "atomic write_file" `Quick test_atomic_write_file;
    Alcotest.test_case "snapshot jsonl round-trip" `Quick
      test_snapshot_roundtrip;
    Alcotest.test_case "prometheus exposition" `Quick test_prometheus;
    Alcotest.test_case "labeled metrics (intern, split, exposition)" `Quick
      test_labels;
    Alcotest.test_case "span ambient context stamps job_id" `Quick
      test_span_context;
    Alcotest.test_case "procstat ticker gauges" `Quick test_procstat_ticker;
    Alcotest.test_case "/spans?last cap" `Quick test_spans_last_cap;
    Alcotest.test_case "prometheus hardening (escapes, one header per family)"
      `Quick test_prometheus_hardening;
    Alcotest.test_case "http /metrics /healthz /spans endpoints" `Quick
      test_http_endpoints;
    Alcotest.test_case "timer spans" `Quick test_timer;
    Alcotest.test_case "trace eviction keeps newest" `Quick
      test_trace_eviction_keeps_newest;
    Alcotest.test_case "trace 100k stack safety" `Quick
      test_trace_full_capacity_stack_safety;
    Alcotest.test_case "trace jsonl export" `Quick test_trace_jsonl;
    Alcotest.test_case "run on_slot hook" `Quick test_run_on_slot;
    Alcotest.test_case "engine counters" `Quick test_engine_counters;
    Alcotest.test_case "profile report (shares sum to ~100%)" `Quick
      test_profile_report;
    Alcotest.test_case "profile sparse sub-stage (one per slot)" `Quick
      test_profile_sparse_substage;
    Alcotest.test_case "instrumented approg smoke" `Quick
      test_approg_instrumented_smoke ]
