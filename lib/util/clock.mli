(** The process's one clock module: monotonic readings for elapsed
    time, strictly increasing wall-clock readings for timestamps.

    [Unix.gettimeofday] follows the system wall clock, so an NTP step or
    a DST adjustment mid-run moves every deadline computed from it —
    enough to falsely write off (or never write off) a fleet worker, or
    to time a job out early. Everything that measures {e elapsed} time
    (job deadlines, heartbeat deadlines, spawn timeouts, backoff sleeps)
    uses the monotonic readings: they come from
    [clock_gettime(CLOCK_MONOTONIC)] via a local C stub (the installed
    unix library predates [Unix.clock_gettime]) and never step.

    Timestamps (spans, trace events, event-log lines) use {!now_ns}: the
    wall clock plus an injectable displacement. The displacement exists
    for deterministic fault injection: a [clock.tick:jump=S] fault moves
    the wall clock by [S] seconds without touching the monotonic
    readings — so a correct consumer (monotonic deadlines) is provably
    unaffected while timestamp consumers visibly shear. *)

val monotonic_ns : unit -> int64
(** Nanoseconds on the monotonic clock. The epoch is arbitrary (boot
    time on Linux); only differences are meaningful. *)

val monotonic_s : unit -> float
(** {!monotonic_ns} in seconds. *)

val now_ns : unit -> int64
(** Wall-clock time in ns (displaced by any {!jump_wall_ns}), strictly
    increasing across calls and domains: every call returns a value
    larger than any previous one, so a span closed immediately after it
    was opened still has a positive duration, trace events never share
    a timestamp, and event-log lines from different pool workers
    interleave in a globally consistent order. Backwards jumps are
    clamped (the reading advances by 1 ns instead). *)

val jump_wall_ns : int64 -> unit
(** Displace the wall clock {!now_ns} reads by this many nanoseconds
    (negative jumps allowed). Atomic; callable from any domain. *)

val ns_to_s : int64 -> float
(** Nanoseconds to seconds. *)

val ns_to_us : int64 -> float
(** Nanoseconds to microseconds (the unit of Chrome trace events). *)
