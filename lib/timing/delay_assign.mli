(** Procedure 1: criticality-driven gate delay budgeting (paper §4.2).

    Distributes the cycle time over every gate so that each gate's maximum
    allowed delay is proportional to its fanout within the most critical
    path crossing it: paths are consumed in decreasing fanout-sum
    criticality, and on each path the still-unassigned gates split the
    remaining budget in proportion to their fanouts (eqs. (2) and (3)).

    The rule is applied exactly, with no path cap. A path contributes only
    while it holds an unassigned gate, so the next contributing path is
    the best PI-to-PO path through the most critical unassigned gate. Each
    gate's criticality — the fanout sum of the best PI-to-PO path through
    it — is computed once from two longest-chain labels over the
    {!Dcopt_netlist.Flat} view, so the whole pass is one sort plus one
    path walk per consumed path: O(n log n + n * depth).

    Tie rule: gates of equal criticality are taken in ascending id order,
    and a gate's best path follows, at each step, the first fanin (pin
    order) or fanout (ascending consumer id) that reaches the best chain.

    Gates on no PI-to-PO path (dead logic) get the analogous share of the
    heaviest chain through them. A slope-feasibility post-pass (the
    paper's "post processing of delay assignments") then lifts budgets
    that are too small relative to their slowest fanin's budget for eq.
    A3's input-rise-time term, and a final scaling restores the
    cycle-time guarantee. *)

type t = {
  t_max : float array;      (** per node id; 0 for inputs, s *)
  cycle_budget : float;     (** b * T_c actually distributed, s *)
  paths_used : int;         (** paths consumed before full coverage *)
  fallback_gates : int;     (** gates on no PI-to-PO path *)
  slope_adjusted : int;     (** gates lifted by the feasibility post-pass *)
}

val effective_fanout : Dcopt_netlist.Circuit.t -> int -> int
(** The paper's f_oi, floored at 1 so output gates still receive a delay
    share: [max 1 (fanout_count)]. A path's criticality is the sum of its
    gates' effective fanouts. *)

val assign :
  ?skew_factor:float ->   (* the paper's b <= 1, default 0.95 *)
  ?slope_guard:float ->   (* min budget as fraction of max fanin budget, default 0.3 *)
  ?constraints:Constraints.t ->
  Dcopt_netlist.Circuit.t ->
  cycle_time:float ->
  t
(** Requires a combinational circuit and [cycle_time > 0]. Postcondition
    (checked): with gate delays equal to the returned budgets, the critical
    delay is at most [skew_factor * cycle_time] within float tolerance.

    [constraints] supersedes [cycle_time] with the set's
    {!Constraints.tightest_cycle_time} (falling back to [cycle_time] for
    an empty set): Procedure 1 distributes the tightest bound, while
    per-endpoint requirements are enforced downstream by the
    constraint-aware STA feasibility check. A scalar compatibility set
    is bit-identical to passing its cycle time directly. *)

type path = {
  gate_ids : int list;  (** gates of the path, source to output *)
  criticality : int;    (** sum of effective fanouts of the gates *)
}

val consumed_paths : Dcopt_netlist.Circuit.t -> path list
(** The paths {!assign} consumes, in consumption order: each one holds at
    least one gate no earlier path holds, and criticalities never
    increase. [List.length] of it is {!t.paths_used}. Requires a
    combinational circuit. *)

val verify : Dcopt_netlist.Circuit.t -> t -> cycle_time:float -> bool
(** Re-checks the postcondition by STA. *)
