(** Sweep runner: drives one {!Queue.job} through [Sweep.run_cursor],
    [checkpoint_every] cells per chunk, resuming from the job's
    completed cells ([job.cells]). It touches no disk: each
    chunk's new cells go to the [on_checkpoint] hook, which the
    supervisor turns into one WAL [Cells] record.

    {b Bit-identity.} Cells are pure in [(param, seed)] and cell JSON
    prints byte-stably through parse/print, so a job killed and resumed
    from its logged cells any number of times yields a final table
    byte-identical to an uninterrupted run, whatever the [jobs] setting.

    Metrics: [serve.cells.done], [serve.checkpoints] (one per chunk, as
    its cells are handed on), [serve.resume.cells] — each also bumped as
    a labeled [{job_id="<id>"}] child so [/jobs/:id/metrics] can serve a
    per-job scope. Every span opened during an attempt (including inside
    cells, on pool worker domains) carries a [job_id] attribute via
    {!Sinr_obs.Span.with_context}. *)

open Sinr_expt
open Sinr_obs

val checkpoint_path : dir:string -> Queue.job -> string
(** [<dir>/serve-<tag>.ckpt.jsonl], tag defaulting to [job<id>]. No file
    is written here any more: a job's cells persist in the WAL. *)

val table_json : Registry.t -> Spec.t -> (int, Json.t) Sweep.cursor -> Json.t
(** The final table: [{"exp","param_name","seeds","rows":[{"param","cells"}]}].
    Raises if the cursor is incomplete. *)

val run_job :
  ?checkpoint_every:int -> ?should_stop:(unit -> bool)
  -> ?wrap_cell:
       (param:int -> seed:int
        -> cell:(int -> int -> Sinr_obs.Json.t) -> Sinr_obs.Json.t)
  -> ?on_fail:(string -> unit)
  -> ?on_checkpoint:(cells:(int * int * Json.t) list -> unit)
  -> ?notify:(typ:string -> Json.t -> unit)
  -> Queue.t -> Queue.job -> unit
(** Run (or resume) one job to a terminal state — or back to Queued if
    [should_stop] fired without the job's cancel flag (drain). Cell
    exceptions mark the job Failed; the completed cells stay on the job
    either way.

    Supervision hooks: [wrap_cell] interposes on every cell evaluation
    (the supervisor times cells and raises on budget overrun); [on_fail]
    replaces the default [Failed] disposition — the supervisor decides
    retry vs quarantine and must settle the job before returning;
    [on_checkpoint] receives each chunk's newly finished
    [(param, seed, cell)] triples before the job's progress shows them
    (the supervisor WAL-logs them).

    [notify] feeds the event stream: ["cell"] start/done around every
    cell (fired from pool worker domains), ["checkpoint"] after each
    chunk's [on_checkpoint], and ["row"] with the full cell payload the
    moment a param's last seed lands — cells in seed order,
    byte-identical to the matching {!table_json} row. *)
