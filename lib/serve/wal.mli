(** Append-only write-ahead log for the daemon's job store.

    One record per line, [<crc32 hex> <one-line JSON>], appended with a
    single [O_APPEND] write so a crash tears at most the final line.
    Replay distinguishes the two failure shapes:

    - {b torn tail} — the final line fails CRC/parse: skipped silently
      (counted in [serve.wal.torn_tails]); this is the normal
      SIGKILL-mid-append residue;
    - {b corruption} — a bad line with valid records after it: replay
      keeps the sound prefix and reports [corrupt = true] so the caller
      can move the file aside ({!quarantine_file}) and restart clean.

    The log is the daemon's one durable store: a job's finished sweep
    cells ride in [Cells] records, one per chunk, and recovery rebuilds
    each live job's cursor from them.

    Durability is two-tier: submitted/terminal records fsync before
    {!append} returns; progress records (started/cells/yielded) batch on
    [fsync_every].  All writer operations are mutex-protected
    (the HTTP accept domain and the job loop both append) and never
    raise: an I/O failure flips {!healthy}, which [/readyz] reports. *)

type event =
  | Submitted of Spec.t  (** job admitted (durable) *)
  | Started of int  (** attempt [n] (1-based) began *)
  | Cells of (int * int * Sinr_obs.Json.t) list
      (** [(param, seed, cell)] for each cell one chunk finished; a
          legacy [checkpointed] marker decodes as [Cells []] *)
  | Yielded  (** attempt closed gracefully (drain) — not a strike *)
  | Strikes of int  (** compaction form: [n] open attempts on record *)
  | Completed  (** terminal (durable) *)
  | Cancelled  (** terminal (durable) *)
  | Failed of string  (** terminal (durable) *)
  | Quarantined of string  (** terminal (durable): poison, parked *)

type record = { job : int; ev : event }

val path : dir:string -> string
(** [<dir>/serve.wal]. *)

val encode : record -> string
(** The on-disk line (without the newline): CRC, space, JSON. *)

val decode : string -> record option
(** Inverse of {!encode}; [None] on CRC mismatch or malformed JSON. *)

val crc32 : string -> int32
(** IEEE CRC-32 of a string (exposed for tests). *)

type t

val open_ : ?fsync_every:int -> dir:string -> unit -> t
(** Open (creating if missing) for appending. [fsync_every] (default 16,
    clamped [>= 1]) batches fsyncs of non-durable records. *)

val append : t -> record -> unit
(** Append one record. Never raises; I/O failure flips {!healthy}. *)

val sync : t -> unit
val healthy : t -> bool
val close : t -> unit

type replay = {
  records : record list;  (** the sound prefix, in append order *)
  torn_tail : bool;
  corrupt : bool;
}

val replay : dir:string -> replay
(** Read the log back; a missing file is an empty replay. *)

val quarantine_file : dir:string -> string option
(** Rename a damaged WAL to [serve.wal.corrupt(.k)]; the new name, or
    [None] if the rename failed. *)

val reset : ?fsync_every:int -> dir:string -> record list -> t
(** Atomically rewrite the log as exactly [records] (compaction at
    recovery), then reopen it for appending. The new file and then the
    directory are fsynced (each counted in [serve.wal.syncs]) unless
    [records] is empty. *)
