module Circuit = Dcopt_netlist.Circuit
module Flat = Dcopt_netlist.Flat
module Gate = Dcopt_netlist.Gate
module Metrics = Dcopt_obs.Metrics

let assign_counter =
  Metrics.counter ~help:"Procedure-1 budget assignments performed"
    "timing.assignments"

let paths_counter =
  Metrics.counter ~help:"critical paths consumed by Procedure-1 budgeting"
    "timing.paths_used"

let fallback_counter =
  Metrics.counter ~help:"gates budgeted by the chain-criticality fallback"
    "timing.fallback_gates"

let slope_counter =
  Metrics.counter ~help:"budgets lifted for slope feasibility"
    "timing.slope_adjusted"

type t = {
  t_max : float array;
  cycle_budget : float;
  paths_used : int;
  fallback_gates : int;
  slope_adjusted : int;
}

type path = { gate_ids : int list; criticality : int }

let effective_fanout circuit id = max 1 (Circuit.fanout_count circuit id)

let none = min_int

(* Heaviest fanout-sum chain ending at each gate, walking [order] (a
   topological order of the gates, or its reverse) and extending along
   the [off]/[edges] CSR (fanins, or fanouts). A gate extends its
   heaviest labelled neighbour — the first in CSR order on ties, recorded
   in [back] — or, failing one, starts a chain by itself when [seed g];
   otherwise its label stays [none]. Inputs are never labelled, so only
   gates chain. Extending always beats starting, since every label is
   at least 1. *)
let chains (f : Flat.t) ~order ~off ~edges ~seed =
  let label = Array.make f.Flat.n none in
  let back = Array.make f.Flat.n (-1) in
  Array.iter
    (fun g ->
      let best = ref none and arg = ref (-1) in
      for e = off.(g) to off.(g + 1) - 1 do
        let v = edges.(e) in
        if label.(v) > !best then begin
          best := label.(v);
          arg := v
        end
      done;
      if !best <> none then begin
        label.(g) <- effective_fanout f.Flat.circuit g + !best;
        back.(g) <- !arg
      end
      else if seed g then label.(g) <- effective_fanout f.Flat.circuit g)
    order;
  (label, back)

let reversed a =
  let n = Array.length a in
  Array.init n (fun i -> a.(n - 1 - i))

let up_chains ~seed f =
  chains f ~order:f.Flat.gate_level_order ~off:f.Flat.fanin_off
    ~edges:f.Flat.fanin_edges ~seed

let down_chains ~seed f =
  chains f ~order:(reversed f.Flat.gate_level_order) ~off:f.Flat.fanout_off
    ~edges:f.Flat.fanout_edges ~seed

(* Procedure 1's path order. [up] is the best chain from a gate with a
   primary-input fanin, [down] the best chain to a primary output, so
   [up + down - w] is the criticality of the best PI-to-PO path through
   the gate. That number never changes as gates get budgets, and a path
   contributes only while it holds an unassigned gate, so the next
   contributing path is always the best path through the most critical
   unassigned gate: one sort (criticality descending, then gate id
   ascending) replaces a heap of partial paths. Calls [consume ~assigned
   path criticality] on each consumed path, source to output, with
   [assigned] marking the gates of earlier paths; returns the final
   [assigned]. Gates on no PI-to-PO path are never consumed. *)
let iter_paths (f : Flat.t) consume =
  let kinds = f.Flat.kinds in
  let has_pi_fanin g =
    let rec go e =
      e < f.Flat.fanin_off.(g + 1)
      && (kinds.(f.Flat.fanin_edges.(e)) = Gate.Input || go (e + 1))
    in
    go f.Flat.fanin_off.(g)
  in
  let up, up_back = up_chains ~seed:has_pi_fanin f in
  let down, down_back = down_chains ~seed:(fun g -> f.Flat.is_output.(g)) f in
  let crit g = up.(g) + down.(g) - effective_fanout f.Flat.circuit g in
  let order =
    Array.of_list
      (List.filter
         (fun g -> up.(g) <> none && down.(g) <> none)
         (Array.to_list f.Flat.gate_level_order))
  in
  Array.stable_sort
    (fun a b -> match Int.compare (crit b) (crit a) with 0 -> Int.compare a b | c -> c)
    order;
  let assigned = Array.make f.Flat.n false in
  Array.iter
    (fun g ->
      if not assigned.(g) then begin
        let rec to_output acc v =
          if v < 0 then List.rev acc else to_output (v :: acc) down_back.(v)
        in
        let rec from_input acc v =
          if v < 0 then acc else from_input (v :: acc) up_back.(v)
        in
        let path = from_input (to_output [] g) up_back.(g) in
        consume ~assigned path (crit g);
        List.iter (fun id -> assigned.(id) <- true) path
      end)
    order;
  assigned

let consumed_paths circuit =
  if not (Circuit.is_combinational circuit) then
    invalid_arg "Delay_assign.consumed_paths: circuit is sequential";
  let acc = ref [] in
  ignore
    (iter_paths (Flat.of_circuit circuit) (fun ~assigned:_ gate_ids criticality ->
         acc := { gate_ids; criticality } :: !acc));
  List.rev !acc

let assign ?(skew_factor = 0.95) ?(slope_guard = 0.3) ?constraints circuit
    ~cycle_time =
  Dcopt_obs.Span.with_ "procedure1.assign"
    ~args:[ ("circuit", Circuit.name circuit) ]
  @@ fun () ->
  (* A constraint set collapses to the single scalar Procedure 1
     distributes: its tightest clock period / global max-delay bound.
     (Per-endpoint bounds are enforced by the STA feasibility check, not
     by the budget split.) The scalar compatibility set [of_cycle_time
     ct] yields exactly [ct], so legacy runs are bit-identical. *)
  let cycle_time =
    match constraints with
    | None -> cycle_time
    | Some c -> Constraints.tightest_cycle_time c ~default:cycle_time
  in
  if not (Circuit.is_combinational circuit) then
    invalid_arg "Delay_assign.assign: circuit is sequential";
  if cycle_time <= 0.0 then invalid_arg "Delay_assign.assign: cycle_time <= 0";
  if not (skew_factor > 0.0 && skew_factor <= 1.0) then
    invalid_arg "Delay_assign.assign: skew_factor out of (0, 1]";
  let f = Flat.of_circuit circuit in
  let available = skew_factor *. cycle_time in
  let t_max = Array.make f.Flat.n 0.0 in
  let w id = float_of_int (effective_fanout circuit id) in
  let paths_used = ref 0 in
  let assigned =
    iter_paths f (fun ~assigned gate_ids _ ->
        incr paths_used;
        let unassigned = List.filter (fun id -> not assigned.(id)) gate_ids in
        let already =
          List.fold_left
            (fun acc id -> if assigned.(id) then acc +. t_max.(id) else acc)
            0.0 gate_ids
        in
        let denom = List.fold_left (fun acc id -> acc +. w id) 0.0 unassigned in
        (* eq. (3); if more critical paths already ate the whole budget,
           give the stragglers a tiny positive share and let the final
           scaling pass restore the guarantee. *)
        let share =
          Float.max (0.01 *. available) (available -. already) /. denom
        in
        List.iter (fun id -> t_max.(id) <- w id *. share) unassigned)
  in
  (* Fallback for gates on no PI-to-PO path (dead logic): the analogous
     share of the heaviest chain through the gate, chains allowed to start
     and stop anywhere. *)
  let dead =
    List.filter
      (fun g -> not assigned.(g))
      (Array.to_list f.Flat.gate_level_order)
  in
  if dead <> [] then begin
    let up, _ = up_chains ~seed:(fun _ -> true) f in
    let down, _ = down_chains ~seed:(fun _ -> true) f in
    List.iter
      (fun g ->
        let crit = float_of_int (up.(g) + down.(g)) -. w g in
        t_max.(g) <- available *. w g /. Float.max (w g) crit)
      dead
  end;
  let fallback_gates = List.length dead in
  (* Slope-feasibility lift (paper: post processing so the driven gate's
     budget is achievable given its drivers' budgets). Inputs hold 0, and
     every fanin is final before its level is reached. *)
  let slope_adjusted = ref 0 in
  Array.iter
    (fun g ->
      let worst_fanin = ref 0.0 in
      for e = f.Flat.fanin_off.(g) to f.Flat.fanin_off.(g + 1) - 1 do
        worst_fanin := Float.max !worst_fanin t_max.(f.Flat.fanin_edges.(e))
      done;
      let floor_needed = slope_guard *. !worst_fanin in
      if t_max.(g) < floor_needed then begin
        t_max.(g) <- floor_needed;
        incr slope_adjusted
      end)
    f.Flat.gate_level_order;
  (* Final guarantee: scale so no path exceeds the distributed budget. *)
  let _, critical_delay = Flat_sta.forward f ~delays:t_max in
  if critical_delay > available && critical_delay > 0.0 then begin
    let scale = available /. critical_delay in
    Array.iteri (fun id v -> t_max.(id) <- v *. scale) t_max
  end;
  Metrics.incr assign_counter;
  Metrics.incr ~by:!paths_used paths_counter;
  Metrics.incr ~by:fallback_gates fallback_counter;
  Metrics.incr ~by:!slope_adjusted slope_counter;
  {
    t_max;
    cycle_budget = available;
    paths_used = !paths_used;
    fallback_gates;
    slope_adjusted = !slope_adjusted;
  }

let verify circuit budget ~cycle_time =
  let _, critical_delay =
    Flat_sta.forward (Flat.of_circuit circuit) ~delays:budget.t_max
  in
  critical_delay <= cycle_time *. (1.0 +. 1e-6)
