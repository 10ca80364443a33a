(** Bench timing rows and the regression gate over them.

    Every [bench/main.exe timing] measurement is one {!row}, written as a
    [dcopt-bench-timing/2] document ([{"schema", "quick", "jobs", "cpus",
    "rows": [...]}], committed as [test/BENCH_timing.json]). A row's
    [layer] is the [lib/] layer it times ([activity], [timing], [opt],
    [core], [fleet]); the gate compares only [gated] rows, keyed
    ["layer/name"] so a failure names the regressed layer. Ungated rows
    (wall-clock of millisecond runs, reference costs, counts) are kept for
    reading and never gated, whatever their value.

    The threshold is noise-tolerant by design (default 1.5x): quick-mode
    bechamel quotas scatter, and the caller is expected to re-measure and
    take the per-row minimum before declaring a regression (see
    [bench timing --check]). *)

type row = {
  layer : string;
  name : string;
  unit : string;
  value : float;  (** written as [null] when not finite *)
  gated : bool;
}

type measurement = { name : string; ns : float }
(** A gated row: [name] is its ["layer/name"] key, [ns] its value (every
    gated row is a nanosecond cost per run, move, gate or job). *)

type verdict = {
  v_name : string;
  baseline_ns : float;
  current_ns : float option;
      (** [None]: present in the baseline but not measured now —
          a gate failure (coverage rot). *)
  ratio : float;  (** current / baseline; [nan] when current is missing *)
  v_ok : bool;
}

val default_threshold : float
(** 1.5 — fail when current > 1.5x baseline. *)

val to_json_string : quick:bool -> jobs:int -> cpus:int -> row list -> string
(** The [dcopt-bench-timing/2] document, one row per line. *)

val measurements : row list -> (measurement list, string) result
(** The gated rows as measurements; [Error] naming the first gated row
    whose value is not finite and positive. *)

val measurements_of_json :
  Dcopt_util.Json.t -> (measurement list, string) result
(** {!measurements} of a timing document; [Error] naming the schema for
    anything but [dcopt-bench-timing/2], or naming a malformed row. *)

val load_baseline : string -> (measurement list, string) result
(** {!measurements_of_json} of a file; also [Error] on an unreadable file
    or a document with no gated rows. *)

val check :
  ?threshold:float ->
  ?optional:(string -> bool) ->
  baseline:measurement list ->
  current:measurement list ->
  unit ->
  verdict list
(** One verdict per baseline entry, in baseline order. Measurements only
    on the current side (new rows) are ignored — they gate once they
    land in the committed baseline.

    A baseline entry absent from [current] normally fails the gate
    (coverage rot); when [optional] holds for its key the absence is a
    skip instead — the verdict carries [current_ns = None] with
    [v_ok = true]. [bench timing] declares the scale STA rows optional,
    which quick runs legitimately omit (they gate only when measured, e.g.
    [bench timing --scale] or a full run), and the [fleet] rows, which a
    bench binary without [bin/minpower.exe] next to it cannot spawn. *)

val all_ok : verdict list -> bool
val failures : verdict list -> verdict list

val render : ?threshold:float -> verdict list -> string
(** Fixed-width report table; [threshold] only labels the FAIL rows. *)
