(** Multi-pass simulated-annealing comparator (paper §4.3/§5).

    The paper implemented an annealing-based optimizer over the same
    variables "for evaluation purposes" and found the Procedure-2 heuristic
    consistently better, because the problem (two global voltages plus N
    widths) is too large for annealing to converge in practical time. This
    module reproduces that comparison. *)

type options = {
  passes : int;           (** independent restarts, default 3 *)
  moves_per_pass : int;   (** default 4000 *)
  initial_temperature : float; (** in relative-energy units, default 0.5 *)
  cooling : float;        (** geometric factor per move, default derived *)
  seed : int64;           (** default 0x5EEDL *)
  warm_start : bool;
    (** false (default, the paper's setting): start each pass from a cold
        mid-range design the walk must shape itself; true: start from a
        feasible Procedure-2-style sized design — an extension under which
        annealing becomes competitive (see EXPERIMENTS.md). *)
}

val default_options : options

val optimize :
  ?observer:Dcopt_obs.Telemetry.observer ->
  ?options:options ->
  Power_model.env ->
  budgets:float array ->
  Solution.t option
(** Best feasible design found across all passes; the cost function is
    total energy plus a steep penalty for exceeding the cycle time. May
    return [None] when no pass ever reaches feasibility.
    [observer] receives one record per proposed move (accepted or not),
    indexed globally across passes. *)
