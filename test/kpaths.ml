module Circuit = Dcopt_netlist.Circuit
module Gate = Dcopt_netlist.Gate

type path = { gate_ids : int list; criticality : int }

let effective_fanout = Dcopt_timing.Delay_assign.effective_fanout

(* best.(n) = largest criticality obtainable from gate n (inclusive) to any
   primary output; neg_infinity marks dead ends (dangling logic). *)
let best_completion circuit =
  let n = Circuit.size circuit in
  let best = Array.make n neg_infinity in
  let order = Circuit.topo_order circuit in
  for i = Array.length order - 1 downto 0 do
    let id = order.(i) in
    let nd = Circuit.node circuit id in
    match nd.Circuit.kind with
    | Gate.Input -> ()
    | _ ->
      let w = float_of_int (effective_fanout circuit id) in
      let continuation =
        Array.fold_left
          (fun acc g ->
            match (Circuit.node circuit g).Circuit.kind with
            | Gate.Input | Gate.Dff -> acc
            | _ -> Float.max acc best.(g))
          neg_infinity (Circuit.fanouts circuit id)
      in
      let here = if Circuit.is_output circuit id then 0.0 else neg_infinity in
      let tail = Float.max here continuation in
      if tail > neg_infinity then best.(id) <- w +. tail
  done;
  best

type item =
  | Partial of int list * int  (* gates so far (reversed), criticality so far *)
  | Complete of int list * int

let enumerate ?max_paths circuit =
  if not (Circuit.is_combinational circuit) then
    invalid_arg "Kpaths.enumerate: circuit is sequential";
  let limit = Option.value max_paths ~default:max_int in
  let best = best_completion circuit in
  let heap = Dcopt_util.Heap.create () in
  let gate_fanouts id =
    Array.to_list (Circuit.fanouts circuit id)
    |> List.filter (fun g ->
           match (Circuit.node circuit g).Circuit.kind with
           | Gate.Input | Gate.Dff -> false
           | _ -> true)
  in
  let has_pi_fanin nd =
    Array.exists
      (fun f -> (Circuit.node circuit f).Circuit.kind = Gate.Input)
      nd.Circuit.fanins
  in
  Array.iter
    (fun nd ->
      match nd.Circuit.kind with
      | Gate.Input | Gate.Dff -> ()
      | _ ->
        if has_pi_fanin nd && best.(nd.Circuit.id) > neg_infinity then
          Dcopt_util.Heap.push heap ~priority:best.(nd.Circuit.id)
            (Partial ([ nd.Circuit.id ], effective_fanout circuit nd.Circuit.id)))
    (Circuit.nodes circuit);
  let emitted = ref 0 in
  let rec next () =
    if !emitted >= limit then Seq.Nil
    else
      match Dcopt_util.Heap.pop heap with
      | None -> Seq.Nil
      | Some (_, Complete (rev_gates, crit)) ->
        incr emitted;
        Seq.Cons
          ( { gate_ids = List.rev rev_gates; criticality = crit },
            fun () -> next () )
      | Some (_, Partial (rev_gates, crit)) ->
        let head =
          match rev_gates with
          | h :: _ -> h
          | [] -> assert false
        in
        if Circuit.is_output circuit head then
          Dcopt_util.Heap.push heap ~priority:(float_of_int crit)
            (Complete (rev_gates, crit));
        List.iter
          (fun g ->
            if best.(g) > neg_infinity then
              let crit' = crit + effective_fanout circuit g in
              let bound =
                float_of_int crit
                +. best.(g)
              in
              Dcopt_util.Heap.push heap ~priority:bound
                (Partial (g :: rev_gates, crit')))
          (gate_fanouts head);
        next ()
  in
  fun () -> next ()

let most_critical circuit =
  match (enumerate ~max_paths:1 circuit) () with
  | Seq.Nil -> None
  | Seq.Cons (p, _) -> Some p
