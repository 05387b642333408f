(* The daemon glue: a [Queue] + [Supervisor]-driven [Runner] pair behind
   an [Obs.Http] handler, with a [Wal] underneath making the whole job
   store durable.  The handler mounts on the observability server (which
   keeps serving /metrics, /healthz and /spans as fallback GET routes)
   and claims the /jobs namespace plus /readyz:

     POST   /jobs            submit a sweep spec        202 | 400 | 429
     GET    /jobs            list jobs + queue state    200
     GET    /jobs/:id        status/progress/table      200 | 404
     GET    /jobs/:id/table  bare result table          200 | 404 | 409
     DELETE /jobs/:id        cancel (cell granularity)  200 | 202 | 404 | 409
     GET    /readyz          readiness probe            200 | 503

   /healthz (builtin) stays pure liveness — the process is up and
   serving.  /readyz is honest readiness: draining, a saturated queue,
   or an unwritable WAL answer 503 with a JSON reason, so a load
   balancer or operator script can tell "alive" from "accepting work".

   The handler runs on the HTTP accept domain; all job execution happens
   in the owner's [step] loop, so a request never blocks on a sweep.
   Every admission and terminal transition lands in the WAL before the
   HTTP response, and every chunk of finished cells lands there as one
   Cells record: the WAL is the daemon's only durable store.  On startup
   [create] replays it (tolerating a torn tail, quarantining real
   corruption), re-admits live jobs with their strike counts and logged
   cells, compacts the log, and the next [step]s resume them from those
   cells — bit-identical to an uninterrupted run. *)

open Sinr_obs
open Sinr_par

type t = {
  queue : Queue.t;
  dir : string;
  wal_dir : string;
  wal : Wal.t;
  supervisor : Supervisor.t;
  events : Events.t;
  checkpoint_every : int;
  draining : bool Atomic.t;
  recovered : int;
  wal_recovery : [ `Clean | `Torn_tail | `Quarantined of string ];
}

(* The ["state"] event body: enough for a watcher to render the job line
   without a follow-up GET. Published from the queue's transition hook,
   so every committed transition — admission, take, finish, retry,
   requeue — is narrated in commit order. *)
let state_event (job : Queue.job) =
  Json.Obj
    (List.concat
       [ [ ("job_id", Json.int job.Queue.id);
           ("state", Json.Str (Queue.state_name job.Queue.state));
           ("cells_done", Json.int job.Queue.cells_done);
           ("cells_total", Json.int job.Queue.cells_total);
           ("attempts", Json.int job.Queue.attempts);
           ("quarantined", Json.Bool job.Queue.quarantined) ];
         (match job.Queue.error with
          | Some e -> [ ("error", Json.Str e) ]
          | None -> []) ])

(* Fold the replayed records into per-job state.  [attempts] counts
   Started records not closed by Yielded (graceful drains are not
   strikes) plus any compacted Strikes baseline; [cells] gathers the
   job's Cells records in log order; a terminal record removes the job
   from the live set. *)
type replayed = {
  spec : Spec.t option;
  attempts : int;
  cells : (int * int * Json.t) list list;  (* newest record first *)
  live : bool;
}

let fold_replay records =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun { Wal.job = id; ev } ->
      let r =
        match Hashtbl.find_opt tbl id with
        | Some r -> r
        | None -> { spec = None; attempts = 0; cells = []; live = true }
      in
      let r =
        match ev with
        | Wal.Submitted spec -> { r with spec = Some spec; live = true }
        | Wal.Started _ -> { r with attempts = r.attempts + 1 }
        | Wal.Yielded -> { r with attempts = max 0 (r.attempts - 1) }
        | Wal.Strikes n -> { r with attempts = r.attempts + max 0 n }
        | Wal.Cells cs -> { r with cells = cs :: r.cells }
        | Wal.Completed | Wal.Cancelled | Wal.Failed _ | Wal.Quarantined _
          -> { r with live = false }
      in
      Hashtbl.replace tbl id r)
    records;
  let live =
    Hashtbl.fold
      (fun id r acc ->
        match r with
        | { spec = Some spec; live = true; attempts; cells } ->
          (id, spec, attempts, List.concat (List.rev cells)) :: acc
        | _ -> acc)
      tbl []
  in
  List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b) live

let create ?(dir = ".") ?wal_dir ?(max_queued = 8) ?(checkpoint_every = 4)
    ?policy () =
  let wal_dir = Option.value wal_dir ~default:dir in
  let supervisor = Supervisor.create ?policy () in
  let replay = Wal.replay ~dir:wal_dir in
  let wal_recovery =
    if replay.Wal.corrupt then
      match Wal.quarantine_file ~dir:wal_dir with
      | Some p -> `Quarantined p
      | None -> `Quarantined "(rename failed)"
    else if replay.Wal.torn_tail then `Torn_tail
    else `Clean
  in
  let live = fold_replay replay.Wal.records in
  (* Compact: the reopened WAL holds exactly the live jobs — their
     spec, strike baseline and cells — instead of the full history. *)
  let wal =
    Wal.reset ~dir:wal_dir
      (List.concat_map
         (fun (id, spec, attempts, cells) ->
           List.concat
             [ [ { Wal.job = id; ev = Wal.Submitted spec } ];
               (if attempts > 0 then
                  [ { Wal.job = id; ev = Wal.Strikes attempts } ]
                else []);
               (if cells <> [] then [ { Wal.job = id; ev = Wal.Cells cells } ]
                else []) ])
         live)
  in
  let events = Events.create () in
  let queue = Queue.create ~max_queued () in
  Queue.on_transition queue (fun job ->
      Events.publish events ~job:job.Queue.id ~typ:"state" (state_event job));
  let pol = Supervisor.policy supervisor in
  let recovered =
    List.fold_left
      (fun acc (id, spec, attempts, cells) ->
        let job = Queue.recover queue ~id ~spec ~attempts ~cells in
        (* a job that took the process down more often than the retry
           budget allows is poison: park it before it wedges the loop
           again *)
        if attempts > pol.Supervisor.max_retries then begin
          Queue.finish queue job
            (`Quarantined
               (Printf.sprintf
                  "quarantined at recovery: %d attempts on record \
                   (crashed or never finished), budget %d"
                  attempts pol.Supervisor.max_retries));
          Wal.append wal
            { Wal.job = id;
              ev = Wal.Quarantined "recovery: strike budget exhausted" }
        end;
        acc + 1)
      0 live
  in
  { queue;
    dir;
    wal_dir;
    wal;
    supervisor;
    events;
    checkpoint_every = max 1 checkpoint_every;
    draining = Atomic.make false;
    recovered;
    wal_recovery }

let queue t = t.queue
let events t = t.events
let dir t = t.dir
let wal_dir t = t.wal_dir
let wal t = t.wal
let recovered t = t.recovered
let wal_recovery t = t.wal_recovery
let request_drain t = Atomic.set t.draining true
let draining t = Atomic.get t.draining
let close t = Wal.close t.wal

let step t =
  if Atomic.get t.draining then false
  else
    match Queue.take t.queue with
    | None -> false
    | Some job ->
      Supervisor.run t.supervisor ~wal:t.wal
        ~notify:(fun ~typ body ->
          Events.publish t.events ~job:job.Queue.id ~typ body)
        ~should_stop:(fun () -> Atomic.get t.draining)
        ~checkpoint_every:t.checkpoint_every ~dir:t.dir t.queue job;
      true

(* ------------------------------------------------------------------ *)
(* HTTP handler                                                        *)
(* ------------------------------------------------------------------ *)

let json_response ?headers status j =
  Http.response ?headers status (Json.to_string_json j ^ "\n")

let error_response ?headers status msg =
  json_response ?headers status (Json.Obj [ ("error", Json.Str msg) ])

let opt_field name = function
  | None -> []
  | Some j -> [ (name, j) ]

let cell_json (p, s, cell) =
  Json.Obj [ ("param", Json.int p); ("seed", Json.int s); ("cell", cell) ]

(* The cells finished so far, as GET /jobs/:id shows them. *)
let partial_json (job : Queue.job) =
  match job.Queue.cells with
  | [] -> None
  | cells ->
    Some
      (Json.Obj
         [ ("done", Json.int job.Queue.cells_done);
           ("total", Json.int job.Queue.cells_total);
           ("cells", Json.List (List.map cell_json cells)) ])

let job_json ~full (job : Queue.job) =
  Json.Obj
    (List.concat
       [ [ ("id", Json.int job.Queue.id);
           ("exp", Json.Str job.Queue.spec.Spec.exp);
           ("state", Json.Str (Queue.state_name job.Queue.state));
           ("cells_done", Json.int job.Queue.cells_done);
           ("cells_total", Json.int job.Queue.cells_total);
           ("restored", Json.int job.Queue.restored);
           ("attempts", Json.int job.Queue.attempts);
           ("quarantined", Json.Bool job.Queue.quarantined) ];
         opt_field "error"
           (Option.map (fun e -> Json.Str e) job.Queue.error);
         opt_field "dump"
           (Option.map (fun p -> Json.Str p) job.Queue.dump);
         (if full then
            List.concat
              [ [ ("spec", Spec.to_json job.Queue.spec) ];
                opt_field "partial" (partial_json job);
                opt_field "table" job.Queue.table ]
          else []) ])

let queue_state t =
  [ ("depth", Json.int (Queue.depth t.queue));
    ("cap", Json.int (Queue.max_queued t.queue));
    ("pool_in_flight", Json.int (Pool.in_flight (Pool.get ())));
    ("draining", Json.Bool (Atomic.get t.draining));
    ("wal_healthy", Json.Bool (Wal.healthy t.wal)) ]

(* Readiness: alive is not the same as accepting.  Each reason is a
   stable token an operator can alert on. *)
let readiness t =
  let reasons =
    List.concat
      [ (if Atomic.get t.draining then [ "draining" ] else []);
        (if Queue.depth t.queue >= Queue.max_queued t.queue then
           [ "saturated" ]
         else []);
        (if not (Wal.healthy t.wal) then [ "wal-unwritable" ] else []) ]
  in
  match reasons with
  | [] -> json_response 200 (Json.Obj [ ("ready", Json.Bool true) ])
  | reasons ->
    json_response 503
      (Json.Obj
         [ ("ready", Json.Bool false);
           ("reasons", Json.List (List.map (fun r -> Json.Str r) reasons)) ])

let submit t body =
  match Spec.of_string body with
  | Error msg -> error_response 400 msg
  | Ok spec -> (
    match Spec.validate spec with
    | Error msg -> error_response 400 msg
    | Ok () -> (
      match Registry.resolve spec with
      | Error msg -> error_response 400 msg
      | Ok _ -> (
        if Atomic.get t.draining then
          error_response 429 "draining: not accepting jobs"
        else
          match Queue.submit t.queue spec with
          | Error (`Backpressure depth) ->
            json_response 429
              (Json.Obj
                 (("error", Json.Str "queue full")
                 :: ("depth", Json.int depth)
                 :: ("cap", Json.int (Queue.max_queued t.queue))
                 :: ("pool_in_flight",
                     Json.int (Pool.in_flight (Pool.get ())))
                 :: []))
          | Ok job ->
            (* durable before the 202: a crash after this response must
               not lose an acknowledged job *)
            Wal.append t.wal
              { Wal.job = job.Queue.id; ev = Wal.Submitted spec };
            json_response 202
              (Json.Obj
                 [ ("id", Json.int job.Queue.id);
                   ("state", Json.Str (Queue.state_name job.Queue.state));
                   ("cells", Json.int job.Queue.cells_total) ]))))

let job_by_id t id_str =
  match int_of_string_opt id_str with
  | None -> None
  | Some id -> Queue.find t.queue id

(* DELETE /jobs/:id is idempotent where idempotence is meaningful:
   cancelling a cancelled job re-answers 200 with the same state, while
   a Done/Failed job is a real conflict (409) — the work is not
   un-doable.  Documented in DESIGN.md §14. *)
let cancel t id_str =
  match int_of_string_opt id_str with
  | None -> error_response 404 "no such job"
  | Some id -> (
    match Queue.cancel t.queue id with
    | `Not_found -> error_response 404 "no such job"
    | `Already_finished ->
      error_response 409 "job already finished"
    | `Cancelled ->
      Wal.append t.wal { Wal.job = id; ev = Wal.Cancelled };
      json_response 200
        (Json.Obj [ ("id", Json.int id); ("state", Json.Str "cancelled") ])
    | `Already_cancelled ->
      json_response 200
        (Json.Obj [ ("id", Json.int id); ("state", Json.Str "cancelled") ])
    | `Cancelling ->
      json_response 202
        (Json.Obj [ ("id", Json.int id); ("state", Json.Str "cancelling") ]))

(* The bare table, for piping and byte-comparison (the crash-smoke
   diffing in CI curls this into a file and cmp(1)s it). *)
let table t id_str =
  match job_by_id t id_str with
  | None -> error_response 404 "no such job"
  | Some job -> (
    match (job.Queue.state, job.Queue.table) with
    | Queue.Done, Some table -> json_response 200 table
    | _ ->
      error_response
        ~headers:[ ("X-Job-State", Queue.state_name job.Queue.state) ]
        409
        (Printf.sprintf "job is %s, table only exists once done"
           (Queue.state_name job.Queue.state)))

(* GET /jobs/:id/metrics — the labeled [{job_id="<id>"}] children of the
   process registry, rendered as Prometheus text.  Two concurrent jobs
   expose disjoint scopes here while /metrics keeps the totals. *)
let job_metrics t id_str =
  match job_by_id t id_str with
  | None -> error_response 404 "no such job"
  | Some job ->
    let want = ("job_id", string_of_int job.Queue.id) in
    let scoped =
      List.filter
        (fun (name, _) ->
          let _, pairs = Metrics.split_name name in
          List.mem want pairs)
        (Metrics.snapshot ())
    in
    Http.response ~content_type:"text/plain; version=0.0.4" 200
      (Sink.snapshot_to_prometheus scoped)

let handler t (req : Http.request) =
  match String.split_on_char '/' req.Http.path with
  | [ ""; "readyz" ] -> (
    match req.Http.meth with
    | "GET" -> Some (readiness t)
    | _ ->
      Some
        (error_response ~headers:[ ("Allow", "GET") ] 405
           "method not allowed on /readyz"))
  | [ ""; "jobs" ] -> (
    match req.Http.meth with
    | "POST" -> Some (submit t req.Http.body)
    | "GET" ->
      Some
        (json_response 200
           (Json.Obj
              (( "jobs",
                 Json.List
                   (List.map (job_json ~full:false) (Queue.jobs t.queue)) )
              :: queue_state t)))
    | _ ->
      Some
        (error_response ~headers:[ ("Allow", "GET, POST") ] 405
           "method not allowed on /jobs"))
  | [ ""; "jobs"; id ] -> (
    match req.Http.meth with
    | "GET" -> (
      match job_by_id t id with
      | None -> Some (error_response 404 "no such job")
      | Some job -> Some (json_response 200 (job_json ~full:true job)))
    | "DELETE" -> Some (cancel t id)
    | _ ->
      Some
        (error_response ~headers:[ ("Allow", "GET, DELETE") ] 405
           "method not allowed on /jobs/:id"))
  | [ ""; "jobs"; id; "table" ] -> (
    match req.Http.meth with
    | "GET" -> Some (table t id)
    | _ ->
      Some
        (error_response ~headers:[ ("Allow", "GET") ] 405
           "method not allowed on /jobs/:id/table"))
  | [ ""; "jobs"; id; "metrics" ] -> (
    match req.Http.meth with
    | "GET" -> Some (job_metrics t id)
    | _ ->
      Some
        (error_response ~headers:[ ("Allow", "GET") ] 405
           "method not allowed on /jobs/:id/metrics"))
  (* GET on the event paths normally never lands here — the stream
     handler intercepts it.  Reaching this arm means the job id is
     unknown (the stream handler fell through) or streaming is not
     mounted on this server. *)
  | [ ""; "jobs"; id; "events" ] -> (
    match req.Http.meth with
    | "GET" ->
      Some
        (match job_by_id t id with
         | None -> error_response 404 "no such job"
         | Some _ -> error_response 503 "event streaming not enabled")
    | _ ->
      Some
        (error_response ~headers:[ ("Allow", "GET") ] 405
           "method not allowed on /jobs/:id/events"))
  | [ ""; "events" ] -> (
    match req.Http.meth with
    | "GET" -> Some (error_response 503 "event streaming not enabled")
    | _ ->
      Some
        (error_response ~headers:[ ("Allow", "GET") ] 405
           "method not allowed on /events"))
  | _ -> None (* /metrics, /healthz, /spans, 404: the builtin routes *)

(* ------------------------------------------------------------------ *)
(* SSE streams                                                         *)
(* ------------------------------------------------------------------ *)

let heartbeat_every = 10.0
let poll_sleep = 0.05

let terminal (job : Queue.job) =
  match job.Queue.state with
  | Queue.Done | Queue.Failed | Queue.Cancelled -> true
  | Queue.Queued | Queue.Running -> false

(* Snapshot greeting for a per-job stream: everything a late-joining
   watcher needs (the grid shape, progress so far) before live events
   resume the story. *)
let hello_json (job : Queue.job) =
  let spec = job.Queue.spec in
  Json.Obj
    (List.concat
       [ [ ("job_id", Json.int job.Queue.id);
           ("exp", Json.Str spec.Spec.exp) ];
         (match Registry.resolve spec with
          | Ok reg ->
            [ ("param_name", Json.Str reg.Registry.param_name) ]
          | Error _ -> []);
         [ ("params", Json.List (List.map Json.int spec.Spec.params));
           ("seeds", Json.List (List.map Json.int spec.Spec.seeds));
           ("cells_done", Json.int job.Queue.cells_done);
           ("cells_total", Json.int job.Queue.cells_total);
           ("state", Json.Str (Queue.state_name job.Queue.state));
           ("attempts", Json.int job.Queue.attempts);
           ("restored", Json.int job.Queue.restored);
           ("quarantined", Json.Bool job.Queue.quarantined) ] ])

(* Backlog replay: rows already complete when the client connected, as
   synthesized ["row"] events — from the final table when the job is
   done, else reassembled from the job's cells (canonical grid order, so
   seed order within a row is preserved).  A row published
   live between our subscription and this snapshot may be replayed AND
   delivered; watchers dedup by param (cells are deterministic, so the
   duplicates are byte-identical). *)
let replay_rows (job : Queue.job) =
  let mk param cells =
    Json.Obj
      [ ("job_id", Json.int job.Queue.id);
        ("param", Json.int param);
        ("cells", Json.List cells) ]
  in
  match (job.Queue.state, job.Queue.table) with
  | Queue.Done, Some tbl -> (
    match Json.member "rows" tbl with
    | Some (Json.List rows) ->
      List.filter_map
        (fun row ->
          match
            ( Option.bind (Json.member "param" row) Json.to_int,
              Json.member "cells" row )
          with
          | Some p, Some (Json.List cells) -> Some (mk p cells)
          | _ -> None)
        rows
    | _ -> [])
  | _ ->
    let seeds_n = List.length job.Queue.spec.Spec.seeds in
    let by_param : (int, Json.t list) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (p, _s, cell) ->
        Hashtbl.replace by_param p
          (cell :: Option.value ~default:[] (Hashtbl.find_opt by_param p)))
      job.Queue.cells;
    List.filter_map
      (fun p ->
        match Hashtbl.find_opt by_param p with
        | Some cs when List.length cs = seeds_n -> Some (mk p (List.rev cs))
        | _ -> None)
      job.Queue.spec.Spec.params

let sse_stream write =
  { Http.s_status = 200;
    s_content_type = "text/event-stream";
    s_headers = [ ("X-Accel-Buffering", "no") ];
    s_write = write }

(* GET /jobs/:id/events.  Subscribe FIRST, then snapshot — an event
   landing in between is delivered twice, never lost.  The stream closes
   itself once it has delivered a terminal state, so [curl -N] exits on
   its own when the job settles. *)
let job_stream t (job : Queue.job) =
  sse_stream @@ fun ~push ~should_stop ->
  let sub = Events.subscribe ~job:job.Queue.id t.events in
  Fun.protect ~finally:(fun () -> Events.unsubscribe t.events sub)
  @@ fun () ->
  let ok = ref (push (Events.sse_event ~typ:"hello" (hello_json job))) in
  List.iter
    (fun row -> if !ok then ok := push (Events.sse_event ~typ:"row" row))
    (replay_rows job);
  if terminal job then begin
    if !ok then
      ignore (push (Events.sse_event ~typ:"state" (state_event job)))
  end
  else begin
    let finished = ref false in
    let last_sent = ref (Unix.gettimeofday ()) in
    while !ok && (not !finished) && not (should_stop ()) do
      match Events.poll sub with
      | [] ->
        Unix.sleepf poll_sleep;
        if Unix.gettimeofday () -. !last_sent > heartbeat_every then begin
          ok := push (Events.sse_comment "heartbeat");
          last_sent := Unix.gettimeofday ()
        end
      | evs ->
        List.iter
          (fun ev ->
            if !ok then begin
              ok := push (Events.sse_frame ev);
              last_sent := Unix.gettimeofday ();
              if ev.Events.typ = "state" then
                match Json.member "state" ev.Events.body with
                | Some (Json.Str ("done" | "failed" | "cancelled")) ->
                  finished := true
                | _ -> ()
            end)
          evs
    done
  end

(* GET /events — the firehose: every job's events, no replay, runs until
   the client hangs up or the server stops. *)
let firehose_stream t =
  sse_stream @@ fun ~push ~should_stop ->
  let sub = Events.subscribe t.events in
  Fun.protect ~finally:(fun () -> Events.unsubscribe t.events sub)
  @@ fun () ->
  let ok = ref (push (Events.sse_comment "firehose: all jobs")) in
  let last_sent = ref (Unix.gettimeofday ()) in
  while !ok && not (should_stop ()) do
    match Events.poll sub with
    | [] ->
      Unix.sleepf poll_sleep;
      if Unix.gettimeofday () -. !last_sent > heartbeat_every then begin
        ok := push (Events.sse_comment "heartbeat");
        last_sent := Unix.gettimeofday ()
      end
    | evs ->
      List.iter
        (fun ev ->
          if !ok then begin
            ok := push (Events.sse_frame ev);
            last_sent := Unix.gettimeofday ()
          end)
        evs
  done

let stream_handler t (req : Http.request) =
  if req.Http.meth <> "GET" then None
  else
    match String.split_on_char '/' req.Http.path with
    | [ ""; "events" ] -> Some (firehose_stream t)
    | [ ""; "jobs"; id; "events" ] ->
      (* unknown id falls through to [handler]'s 404 *)
      Option.map (job_stream t) (job_by_id t id)
    | _ -> None
