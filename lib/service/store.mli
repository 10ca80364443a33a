(** Content-addressed on-disk result cache for the batch service.

    Keys are stable digests of everything that determines an
    optimization result: the netlist {e structure} (its canonical
    [.bench] rendering, so a suite name and an identical file hit the
    same entry), the full serialized {!Dcopt_core.Flow.config}
    (technology included), the optimizer name, and
    {!code_model_version} — a constant bumped whenever the numerical
    models change, which implicitly invalidates every older entry.

    Values are one JSON document per entry ([<digest>.json] in the store
    directory), written atomically (temp file + rename), so a killed
    batch never leaves a corrupt entry; unreadable or unparsable entries
    read back as misses.

    A batch checkpoint ([minpower batch --checkpoint DIR]) is a store
    too, opened on its own directory: same keys, same atomic writes,
    same value documents. Only the write discipline differs — the
    service records each job's outcome there as the job finishes,
    instead of at the batch barrier ({!Service.run_batch}). *)

type t

val code_model_version : string
(** Folded into every digest; bump on any behavioural model change. *)

val open_ : string -> t
(** Open (creating the directory, including parents) a store rooted at
    this path. Raises [Sys_error] when the path exists but is not a
    directory. *)

val dir : t -> string

val digest :
  ?scenario:string ->
  optimizer:string ->
  config:Dcopt_core.Flow.config ->
  Dcopt_netlist.Circuit.t ->
  string
(** The cache key: an MD5 hex digest over {!code_model_version}, the
    optimizer name, the canonical config JSON and the canonical [.bench]
    text of the circuit. [scenario] — the canonical rendering of a job's
    constraint set and corner list — is folded in {e only when present},
    so digests (and cached rows) of scenario-less jobs are unchanged
    from before the scenario redesign. *)

val find : t -> string -> Dcopt_util.Json.t option
(** Look a digest up; [None] on absence or on any read/parse failure.
    An entry that exists but cannot be read back whole (truncated,
    shrunk between the size check and the read, bit-flipped, unparsable)
    is still a miss — never an exception — but bumps the
    [service.store.corrupt] counter so store rot is observable. The
    [store.find] fault site injects [eio] here (counted miss). *)

val put : t -> string -> Dcopt_util.Json.t -> unit
(** Atomically (over)write an entry, best-effort: a write that fails
    ([ENOSPC], [EIO], a lost rename) removes its temp file, bumps
    [service.store.write_failed], emits a [store.write_failed] event and
    returns — the store is a cache, so a full disk never aborts a batch
    that already holds the result in memory. Safe for concurrent
    multi-process writers of one shared store directory: tmp names are
    unique per (pid, in-process counter), and a rename lost to a
    concurrent writer of the same key is a benign race (entries are
    content-addressed, so both writers carried the same bytes), not a
    failure. The [store.put] fault site injects [enospc] / [eio]
    (abandoned write) and [short] (a torn document that reaches disk and
    is caught by {!find} at read-back) here. *)

val note_corrupt : unit -> unit
(** Bump the [service.store.corrupt] counter. For callers (the service)
    that decode a stored document further and find it shape-invalid —
    the same "existed but unusable" condition {!find} counts for
    unreadable files. *)
