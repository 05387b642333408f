(* Sweep runner: one [Queue.job] driven through [Sweep.run_cursor],
   resuming from the cells already on the job.

   The runner keeps no files.  An attempt seeds its cursor from
   [job.cells] (cells an earlier attempt in this process finished, or
   that WAL recovery replayed from a previous process) and hands each
   chunk's newly finished cells to [on_checkpoint]; under the daemon the
   supervisor appends them to the WAL as one [Cells] record.

   Resume contract: cells are pure in (param, seed) and cell JSON prints
   byte-stably through a parse/print round trip, so a job resumed from
   logged cells produces a final table bit-identical to an uninterrupted
   run, whatever the jobs setting, chunk size or number of
   interruptions. *)

open Sinr_expt
open Sinr_obs

let m_cells = Metrics.counter "serve.cells.done"
let m_checkpoints = Metrics.counter "serve.checkpoints"
let m_resumed = Metrics.counter "serve.resume.cells"

(* No file is written here any more; the name is kept for tools that
   still size it (they read 0 bytes). *)
let checkpoint_path ~dir (job : Queue.job) =
  let tag =
    match job.Queue.spec.Spec.tag with
    | Some t -> t
    | None -> Printf.sprintf "job%d" job.Queue.id
  in
  Filename.concat dir (Printf.sprintf "serve-%s.ckpt.jsonl" tag)

let table_json (reg : Registry.t) (spec : Spec.t) cursor =
  Json.Obj
    [ ("exp", Json.Str spec.Spec.exp);
      ("param_name", Json.Str reg.Registry.param_name);
      ("seeds", Json.List (List.map Json.int spec.Spec.seeds));
      ( "rows",
        Json.List
          (List.map
             (fun (p, cells) ->
               Json.Obj
                 [ ("param", Json.int p); ("cells", Json.List cells) ])
             (Sweep.results cursor)) ) ]

let run_job ?(checkpoint_every = 4) ?(should_stop = fun () -> false)
    ?wrap_cell ?on_fail ?on_checkpoint ?notify queue (job : Queue.job) =
  let spec = job.Queue.spec in
  let jid = job.Queue.id in
  (* Ambient job identity: every span opened for the rest of this attempt
     — including engine/MAC/physics spans opened on pool worker domains
     inside cells — carries a job_id attribute, so /spans?job=N and
     trace-report --job isolate one job's trace. *)
  Span.with_context [ ("job_id", Json.int jid) ] @@ fun () ->
  let emit typ body =
    match notify with None -> () | Some f -> f ~typ body
  in
  (* Per-job labeled children of the process-global counters: interned
     once per attempt (registry get-or-create), bumped alongside their
     unlabeled parents, scraped scoped at /jobs/:id/metrics. *)
  let jlabels = Metrics.labels [ ("job_id", string_of_int jid) ] in
  let mj_cells = Metrics.counter_with "serve.cells.done" jlabels in
  let mj_checkpoints = Metrics.counter_with "serve.checkpoints" jlabels in
  let mj_resumed = Metrics.counter_with "serve.resume.cells" jlabels in
  let span = Span.start ~name:"serve.job" ~slot:0 () in
  Span.set_attr span "job" (Json.int job.Queue.id);
  Span.set_attr span "exp" (Json.Str spec.Spec.exp);
  Span.set_attr span "cells" (Json.int job.Queue.cells_total);
  let finish_span () =
    Span.set_attr span "state" (Json.Str (Queue.state_name job.Queue.state));
    Span.finish span ~slot:job.Queue.cells_done
  in
  (* Unsupervised, a failure is terminal; under a supervisor, [on_fail]
     owns the disposition (retry with backoff, or quarantine) and must
     leave the job in a settled state before returning. *)
  let fail msg =
    match on_fail with
    | Some f -> f msg
    | None -> Queue.finish queue job (`Failed msg)
  in
  match Registry.resolve spec with
  | Error msg ->
    (* admission validates, so only a registry change mid-flight lands here *)
    fail msg;
    finish_span ()
  | Ok reg -> (
    let cursor =
      Sweep.cursor ~params:spec.Spec.params ~seeds:spec.Spec.seeds
    in
    let restored =
      List.fold_left
        (fun n (p, s, cell) -> if Sweep.record cursor p s cell then n + 1 else n)
        0 job.Queue.cells
    in
    Queue.progress queue job ~cells:(Sweep.completed_cells cursor);
    if restored > 0 then begin
      job.Queue.restored <- restored;
      Metrics.add m_resumed restored;
      Metrics.add mj_resumed restored;
      Span.annotate span ~slot:restored
        (Printf.sprintf "resumed with %d logged cells" restored)
    end;
    (* Row announcements: a param's row is complete once all its seeds'
       cells are in.  Cells come back in canonical grid order, so the
       reassembled row is byte-identical to the matching [table_json]
       row — a watch client can rebuild the final table from row events
       alone. *)
    let seeds_n = List.length spec.Spec.seeds in
    let announced : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    let publish_rows () =
      if notify <> None then begin
        let by_param : (int, Json.t list) Hashtbl.t = Hashtbl.create 16 in
        List.iter
          (fun (p, _s, cell) ->
            let prev =
              Option.value ~default:[] (Hashtbl.find_opt by_param p)
            in
            Hashtbl.replace by_param p (cell :: prev))
          (Sweep.completed_cells cursor);
        List.iter
          (fun p ->
            if not (Hashtbl.mem announced p) then
              match Hashtbl.find_opt by_param p with
              | Some cells when List.length cells = seeds_n ->
                Hashtbl.replace announced p ();
                emit "row"
                  (Json.Obj
                     [ ("job_id", Json.int jid); ("param", Json.int p);
                       ("cells", Json.List (List.rev cells)) ])
              | _ -> ())
          spec.Spec.params
      end
    in
    (* The chunk's cells reach the WAL (through [on_checkpoint]) before
       the job's progress shows them, so a crash after a client saw
       [cells_done] move loses none of those cells. *)
    let on_chunk fresh =
      Option.iter (fun f -> f ~cells:fresh) on_checkpoint;
      Metrics.incr m_checkpoints;
      Metrics.incr mj_checkpoints;
      Metrics.add m_cells (List.length fresh);
      Metrics.add mj_cells (List.length fresh);
      Queue.progress queue job ~cells:(Sweep.completed_cells cursor);
      emit "checkpoint"
        (Json.Obj
           [ ("job_id", Json.int jid);
             ("cells_done", Json.int (Sweep.completed cursor));
             ("cells_total", Json.int job.Queue.cells_total) ]);
      publish_rows ()
    in
    let stop () = should_stop () || Atomic.get job.Queue.cancel in
    let cell =
      let base p s = reg.Registry.cell ~param:p ~seed:s in
      let base =
        match wrap_cell with
        | None -> base
        | Some w -> fun p s -> w ~param:p ~seed:s ~cell:base
      in
      match notify with
      | None -> base
      | Some _ ->
        (* cell events fire from pool worker domains; the broker is
           domain-safe and never blocks the worker *)
        fun p s ->
          let cell_ev phase =
            Json.Obj
              [ ("job_id", Json.int jid); ("param", Json.int p);
                ("seed", Json.int s); ("phase", Json.Str phase) ]
          in
          emit "cell" (cell_ev "start");
          let v = base p s in
          emit "cell" (cell_ev "done");
          v
    in
    match
      Sweep.run_cursor ?jobs:spec.Spec.jobs ~chunk:checkpoint_every
        ~should_stop:stop ~on_chunk cursor cell
    with
    | `Complete ->
      publish_rows ();
      Queue.finish queue job (`Done (table_json reg spec cursor));
      finish_span ()
    | `Stopped ->
      if Atomic.get job.Queue.cancel then
        Queue.finish queue job `Cancelled
      else Queue.requeue queue job;
      finish_span ()
    | exception exn ->
      fail (Printexc.to_string exn);
      finish_span ())
