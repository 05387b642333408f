(* The reliability graph H^mu_p[S] of Daum et al. (paper Section 9.2).

   Fix a node set S, a transmission probability p in (0, 1/2] and a
   reliability threshold mu in (0, p).  Run the experiment where every node
   of S transmits independently with probability p (and nobody else
   transmits).  The edge (u, v), u, v in S, belongs to H^mu_p[S] iff u
   receives v's message with probability at least mu AND vice versa.

   The distributed algorithm below the MAC layer only *estimates* this graph
   (that estimate lives in lib/core); this module computes a Monte-Carlo
   reference used by tests, by the oracle variants of Algorithm 9.1 and by
   the ablation benches.

   The ~400 slot simulations are independent, so they run through
   [Sinr_par.Pool].  Determinism contract: trial t draws only from the
   child stream [Rng.split rng ~key:t], and chunk tallies are merged by
   integer addition, so the estimate is bit-identical for every [jobs]
   setting (including the sequential [jobs = 1] path). *)

open Sinr_graph
open Sinr_par

type estimate = {
  graph : Graph.t;                (* edges with both directions >= mu *)
  success_prob : (int * int) -> float; (* directed reception probability *)
  trials : int;
}

let estimate ?(trials = 400) ?jobs sinr rng ~set ~p ~mu =
  if p <= 0. || p > 0.5 then invalid_arg "Reliability.estimate: p not in (0, 1/2]";
  if mu <= 0. || mu >= p then invalid_arg "Reliability.estimate: mu not in (0, p)";
  let n = Sinr.n sinr in
  let members = Array.of_list set in
  let m = Array.length members in
  let in_set = Array.make n false in
  Array.iter (fun v -> in_set.(v) <- true) members;
  (* counts.(i_receiver * m + i_sender) over member indices *)
  let pos = Array.make n (-1) in
  Array.iteri (fun i v -> pos.(v) <- i) members;
  (* One independent slot simulation, tallying into [counts].  The slot's
     senders are drawn into [scratch] by one bernoulli draw per member in
     member-index order: exactly the draw order of the seed's
     [Array.to_list members |> List.filter], so estimates stay
     bit-identical.  [scratch] and the [outcome] buffer are reused across
     the chunk's trials, so a trial allocates no list and no array. *)
  let run_trial counts scratch outcome t =
    let trng = Sinr_geom.Rng.split rng ~key:t in
    let nsend = ref 0 in
    for i = 0 to m - 1 do
      if Sinr_geom.Rng.bernoulli trng p then begin
        scratch.(!nsend) <- members.(i);
        incr nsend
      end
    done;
    if !nsend > 0 then begin
      Sinr.resolve_array sinr ~senders:scratch ~nsenders:!nsend ~into:outcome;
      Array.iter
        (fun u ->
          let v = outcome.(u) in
          if v >= 0 && in_set.(v) then begin
            let iu = pos.(u) and iv = pos.(v) in
            counts.((iu * m) + iv) <- counts.((iu * m) + iv) + 1
          end)
        members
    end
  in
  let jobs =
    match jobs with Some j -> max 1 j | None -> Pool.default_jobs ()
  in
  let counts =
    if jobs = 1 then begin
      let counts = Array.make (m * m) 0 in
      let scratch = Array.make m 0 and outcome = Array.make n (-1) in
      for t = 0 to trials - 1 do
        run_trial counts scratch outcome t
      done;
      counts
    end
    else
      Pool.with_jobs jobs (fun pool ->
          (* Each pool task owns a chunk of trials, a private tally and a
             private sender scratch; tallies merge by addition, so
             chunking cannot change the result. *)
          let chunk = max 1 (trials / (Pool.jobs pool * 4)) in
          let nchunks = (trials + chunk - 1) / chunk in
          Pool.map_reduce ~chunk:1 pool ~n:nchunks
            ~map:(fun c ->
              let part = Array.make (m * m) 0 in
              let scratch = Array.make m 0 and outcome = Array.make n (-1) in
              let lo = c * chunk and hi = min trials ((c + 1) * chunk) in
              for t = lo to hi - 1 do
                run_trial part scratch outcome t
              done;
              part)
            ~reduce:(fun acc part ->
              Array.iteri (fun i v -> acc.(i) <- acc.(i) + v) part;
              acc)
            ~init:(Array.make (m * m) 0))
  in
  let prob (u, v) =
    if u < 0 || u >= n || v < 0 || v >= n || pos.(u) < 0 || pos.(v) < 0 then 0.
    else float_of_int counts.((pos.(u) * m) + pos.(v)) /. float_of_int trials
  in
  let edges = ref [] in
  for i = 0 to m - 1 do
    for j = i + 1 to m - 1 do
      let u = members.(i) and v = members.(j) in
      if prob (u, v) >= mu && prob (v, u) >= mu then
        edges := (u, v) :: !edges
    done
  done;
  { graph = Graph.of_edges ~n !edges; success_prob = prob; trials }

let graph e = e.graph
let success_prob e pair = e.success_prob pair
let trials e = e.trials
