(** K-most-critical-path enumeration by fanout-sum criticality: the test
    oracle for Procedure 1's path order.

    The paper (§4.2) defines the criticality of a PI-to-PO path as the sum
    of the fanout counts of its gates, [N_cj = sum f_oij], and consumes
    paths in decreasing criticality during delay budgeting. Enumerating
    them lazily in order follows Ju & Saleh's incremental technique
    (ref [6]) adapted to this weight: a best-first search over partial
    paths whose priority is an exact upper bound (prefix criticality plus
    the precomputed best completion), which makes emission order exact.
    {!Dcopt_timing.Delay_assign} computes the consumed subsequence
    directly; this brute-force stream is what the tests check it
    against. *)

type path = {
  gate_ids : int list;  (** gates of the path, source to output *)
  criticality : int;    (** sum of effective fanouts of the gates *)
}

val enumerate :
  ?max_paths:int -> Dcopt_netlist.Circuit.t -> path Seq.t
(** Lazy sequence of complete PI-to-PO paths in non-increasing
    criticality, at most [max_paths] (default: all) of them. Requires a
    combinational circuit. A path starts at a gate with at least one
    primary-input fanin and ends at a primary-output node. *)

val most_critical : Dcopt_netlist.Circuit.t -> path option
(** Head of {!enumerate}. *)
