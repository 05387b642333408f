(* Pure helpers of the repository benchmark: order statistics and the
   tail-percentile rule, self time over nested spans, and output
   digests.  Kept free of any workload code so the
   benchmark's own tests can pin them down. *)

open Sinr_obs

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)
(* ------------------------------------------------------------------ *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* Linear interpolation between closest ranks over [0, n-1]: q = 0 is
   the minimum, q = 1 the maximum.  [nan] on an empty sample. *)
let quantile a q =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else
    let pos = Float.max 0. (Float.min 1. q) *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median a = quantile a 0.5

type tail = {
  pct : float;  (** the percentile reported, in (0, 100] *)
  value : float;
  beyond : int;  (** samples ranked above [value] *)
  samples : int;
}

(* The highest percentile that still has at least [min_beyond] samples
   ranked above it: the (n - min_beyond)-th smallest sample, reported as
   percentile 100 (n - min_beyond) / n.  Below 2 min_beyond + 1 samples
   that rank is at or under the median — no tail exists — so the maximum
   is reported with [beyond = 0] and the caller prints it as such. *)
let tail ?(min_beyond = 10) a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then { pct = nan; value = nan; beyond = 0; samples = 0 }
  else if n <= 2 * min_beyond then
    { pct = 100.; value = s.(n - 1); beyond = 0; samples = n }
  else
    let k = n - 1 - min_beyond in
    { pct = 100. *. float_of_int (k + 1) /. float_of_int n;
      value = s.(k);
      beyond = min_beyond;
      samples = n }

(* ------------------------------------------------------------------ *)
(* Spans and self time                                                 *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  parent : int;  (** 0 = root *)
  name : string;
  key : int;  (** the job id or slot index the span belongs to *)
  t0 : float;
  t1 : float;
}

(* Measure of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) when a <= cb -> (acc, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (acc +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of every span — its duration minus the part of it that its
   direct children cover — summed per span name, in order of first
   appearance.  Over a tree whose children nest inside their parents the
   self times add up to the roots' total duration. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace children s.parent
          ((s.t0, s.t1)
           :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  let order = ref [] and acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      let self = s.t1 -. s.t0 -. covered ~lo:s.t0 ~hi:s.t1 kids in
      match Hashtbl.find_opt acc s.name with
      | Some v -> Hashtbl.replace acc s.name (v +. self)
      | None ->
        order := s.name :: !order;
        Hashtbl.replace acc s.name self)
    spans;
  List.rev_map (fun name -> (name, Hashtbl.find acc name)) !order

let span_to_json s =
  Json.Obj
    [ ("id", Json.int s.id);
      ("parent", Json.int s.parent);
      ("name", Json.Str s.name);
      ("key", Json.int s.key);
      ("t0", Json.Num s.t0);
      ("t1", Json.Num s.t1) ]

(* An append-only span store, safe to share between domains.  One
   created with [~on:false] keeps nothing, and [add] returns 0. *)
module Recorder = struct
  type t = { on : bool; mutable spans : span list; mutable next : int; lock : Mutex.t }

  let create ?(on = true) () = { on; spans = []; next = 1; lock = Mutex.create () }

  let add t ?(parent = 0) ~name ~key t0 t1 =
    if not t.on then 0
    else
      Mutex.protect t.lock (fun () ->
          let id = t.next in
          t.next <- id + 1;
          t.spans <- { id; parent; name; key; t0; t1 } :: t.spans;
          id)

  let spans t = Mutex.protect t.lock (fun () -> List.rev t.spans)
end

(* ------------------------------------------------------------------ *)
(* Digests                                                             *)
(* ------------------------------------------------------------------ *)

let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* The committed digest file: one JSON object, key -> hex digest. *)
let load_digests path =
  if not (Sys.file_exists path) then []
  else
    let ic = open_in_bin path in
    let text =
      Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
          really_input_string ic (in_channel_length ic))
    in
    match Json.parse_opt text with
    | Some (Json.Obj fields) ->
      List.filter_map
        (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.to_string v))
        fields
    | _ -> []

type verdict = Match | Mismatch of { expected : string } | Absent

let check_digest expected ~key ~actual =
  match List.assoc_opt key expected with
  | None -> Absent
  | Some e when e = actual -> Match
  | Some e -> Mismatch { expected = e }

let save_json path j =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (Json.to_string_json j ^ "\n"))

let save_digests path entries =
  let entries = List.sort compare entries in
  let body =
    String.concat ",\n"
      (List.map
         (fun (k, v) ->
           Printf.sprintf "  %s: %s"
             (Json.to_string_json (Json.Str k))
             (Json.to_string_json (Json.Str v)))
         entries)
  in
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc ("{\n" ^ body ^ "\n}\n"))
