(* Per-span self time and coverage over recorded Span buffers. *)

module Span = Dcopt_obs.Span

type row = {
  name : string;
  calls : int;
  total_s : float;
  self_s : float;  (* total minus the time its direct children cover *)
}

(* The layer a span belongs to. The benchmark names its own spans after
   the public function they wrap ("Flow.prepare"); the program's own
   spans keep the names it records. *)
let layer_of name =
  match name with
  | "Generator.random_dag" | "Suite.find" | "Bench_format.parse_string"
  | "Flat.of_circuit" | "core-extraction" ->
    "netlist"
  | "activity" -> "activity"
  | "wire-load" -> "wiring"
  | "budgeting" | "budget-repair" | "Sta.meets" | "Flat_sta.analyze"
  | "Delay_assign.verify" ->
    "timing"
  | "search" | "Power_model.size_all" | "Power_model.evaluate" -> "opt"
  | "Flow.prepare" | "Optimizer.run" | "Scenario.finalize" | "flow.prepare"
  | "optimize" ->
    "core"
  | "Fleet.run_batch" | "Fleet.create" -> "fleet"
  | _ ->
    let has prefix = String.starts_with ~prefix name in
    if has "procedure1" || has "sta." then "timing"
    else if has "activity." then "activity"
    else if has "par." then "par"
    else if has "service." || has "Service." || has "Store." || has "Job." then
      "service"
    else "other"

(* Aggregate spans by name. Spans of one domain nest by time
   containment, so a sweep in start order with a stack of open spans
   finds each span's direct parent. *)
let rows (spans : (int * Span.span) list) =
  let order = ref [] in
  let tbl = Hashtbl.create 32 in
  let add name dur child =
    let calls, total, self =
      match Hashtbl.find_opt tbl name with
      | Some v -> v
      | None ->
        order := name :: !order;
        (0, 0L, 0L)
    in
    Hashtbl.replace tbl name
      (calls + 1, Int64.add total dur, Int64.add self (Int64.sub dur child))
  in
  let sorted =
    List.stable_sort
      (fun (ta, (a : Span.span)) (tb, (b : Span.span)) ->
        match compare ta tb with
        | 0 -> (
          match Int64.compare a.start_ns b.start_ns with
          | 0 -> Int64.compare b.dur_ns a.dur_ns
          | c -> c)
        | c -> c)
      spans
  in
  (* open spans: (tid, end_ns, span, children's time so far) *)
  let stack = ref [] in
  let close () =
    match !stack with
    | (_, _, (s : Span.span), child) :: rest ->
      add s.name s.dur_ns !child;
      stack := rest
    | [] -> ()
  in
  List.iter
    (fun (tid, (s : Span.span)) ->
      let rec pop () =
        match !stack with
        | (t, end_ns, _, _) :: _
          when t <> tid || Int64.compare end_ns s.start_ns <= 0 ->
          close ();
          pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
      | (_, _, _, child) :: _ -> child := Int64.add !child s.dur_ns
      | [] -> ());
      stack := (tid, Int64.add s.start_ns s.dur_ns, s, ref 0L) :: !stack)
    sorted;
  while !stack <> [] do
    close ()
  done;
  List.rev_map
    (fun name ->
      let calls, total, self = Hashtbl.find tbl name in
      {
        name;
        calls;
        total_s = Int64.to_float total /. 1e9;
        self_s = Int64.to_float self /. 1e9;
      })
    !order

(* Total seconds of the spans with this name, over every domain. *)
let total rows name =
  List.fold_left
    (fun acc r -> if r.name = name then acc +. r.total_s else acc)
    0.0 rows

(* Seconds covered by the depth-0 spans of domain [tid], leaving out
   the spans named in [exclude]. *)
let top_level_s ~tid ~exclude (spans : (int * Span.span) list) =
  List.fold_left
    (fun acc (t, (s : Span.span)) ->
      if t = tid && s.depth = 0 && not (List.mem s.name exclude) then
        acc +. (Int64.to_float s.dur_ns /. 1e9)
      else acc)
    0.0 spans

(* The table: one line per span name, heaviest self time first, with
   times per batch and shares of the traced wall time. *)
let render ~batches ~wall_s rows =
  let per x = x /. float_of_int batches in
  let rows = List.sort (fun a b -> compare b.self_s a.self_s) rows in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "  %-28s %-9s %9s %12s %12s %8s\n" "span" "layer"
    "calls/b" "total s/b" "self s/b" "self %";
  List.iter
    (fun r ->
      Printf.bprintf buf "  %-28s %-9s %9.1f %12.6f %12.6f %7.2f%%\n" r.name
        (layer_of r.name)
        (per (float_of_int r.calls))
        (per r.total_s) (per r.self_s)
        (100.0 *. r.self_s /. wall_s))
    rows;
  Buffer.contents buf

(* Per-call times, for spans timed outside the traced wall time. *)
let render_calls rows =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "  %-28s %-9s %9s %12s %12s\n" "span" "layer" "calls"
    "total s" "s/call";
  List.iter
    (fun r ->
      Printf.bprintf buf "  %-28s %-9s %9d %12.6f %12.9f\n" r.name
        (layer_of r.name) r.calls r.total_s
        (r.total_s /. float_of_int r.calls))
    rows;
  Buffer.contents buf
