module Json = Dcopt_util.Json

type row = {
  layer : string;
  name : string;
  unit : string;
  value : float;
  gated : bool;
}

type measurement = { name : string; ns : float }

type verdict = {
  v_name : string;
  baseline_ns : float;
  current_ns : float option; (* None: in the baseline, not measured now *)
  ratio : float; (* current / baseline; nan when current is None *)
  v_ok : bool;
}

let default_threshold = 1.5
let schema = "dcopt-bench-timing/2"
let key (r : row) = r.layer ^ "/" ^ r.name

let to_json_string ~quick ~jobs ~cpus rows =
  let row_json (r : row) =
    Json.Obj
      [
        ("layer", Json.String r.layer);
        ("name", Json.String r.name);
        ("unit", Json.String r.unit);
        ( "value",
          if Float.is_finite r.value then Json.Float r.value else Json.Null );
        ("gated", Json.Bool r.gated);
      ]
  in
  (* one row per line, so a refreshed baseline diffs row by row *)
  Printf.sprintf
    "{\n\
    \  \"schema\": %s,\n\
    \  \"quick\": %b,\n\
    \  \"jobs\": %d,\n\
    \  \"cpus\": %d,\n\
    \  \"rows\": [\n\
     %s\n\
    \  ]\n\
     }\n"
    (Json.to_string (Json.String schema))
    quick jobs cpus
    (String.concat ",\n"
       (List.map (fun r -> "    " ^ Json.to_string (row_json r)) rows))

let measurements rows =
  let gated = List.filter (fun (r : row) -> r.gated) rows in
  match
    List.find_opt
      (fun (r : row) -> not (Float.is_finite r.value && r.value > 0.0))
      gated
  with
  | Some r ->
    Error (Printf.sprintf "gated row %S has no finite positive value" (key r))
  | None -> Ok (List.map (fun r -> { name = key r; ns = r.value }) gated)

let measurements_of_json json =
  let str name item = Option.bind (Json.field name item) Json.get_string in
  let row_of_json item =
    match
      ( str "layer" item,
        str "name" item,
        str "unit" item,
        Option.bind (Json.field "gated" item) Json.get_bool )
    with
    | Some layer, Some name, Some unit, Some gated ->
      let value =
        Option.value ~default:nan
          (Option.bind (Json.field "value" item) Json.get_float)
      in
      { layer; name; unit; value; gated }
    | _ ->
      failwith ("row lacks layer, name, unit or gated: " ^ Json.to_string item)
  in
  match str "schema" json with
  | Some s when String.equal s schema ->
    let items =
      Option.value ~default:[]
        (Option.bind (Json.field "rows" json) Json.get_list)
    in
    (match List.map row_of_json items with
    | rows -> measurements rows
    | exception Failure e -> Error e)
  | Some s -> Error (Printf.sprintf "schema %S is not %S" s schema)
  | None -> Error (Printf.sprintf "not a %s document" schema)

let load_baseline path =
  match Json.read_file path with
  | Error e -> Error e
  | Ok json -> (
    match measurements_of_json json with
    | Error e -> Error (path ^ ": " ^ e)
    | Ok [] -> Error (path ^ ": baseline contains no gated rows")
    | Ok ms -> Ok ms)

let check ?(threshold = default_threshold) ?(optional = fun _ -> false)
    ~baseline ~current () =
  List.map
    (fun b ->
      match List.find_opt (fun c -> String.equal c.name b.name) current with
      | None ->
        (* a row that vanished from the bench is silent coverage rot,
           which is exactly what the gate exists to catch — unless the
           caller declares the key optional (e.g. scale rows that a quick
           run legitimately skips), in which case absence is a skip, not
           a failure *)
        {
          v_name = b.name;
          baseline_ns = b.ns;
          current_ns = None;
          ratio = nan;
          v_ok = optional b.name;
        }
      | Some c ->
        let ratio = c.ns /. b.ns in
        {
          v_name = b.name;
          baseline_ns = b.ns;
          current_ns = Some c.ns;
          ratio;
          v_ok = ratio <= threshold;
        })
    baseline

let all_ok verdicts = List.for_all (fun v -> v.v_ok) verdicts
let failures verdicts = List.filter (fun v -> not v.v_ok) verdicts

let render ?(threshold = default_threshold) verdicts =
  let table =
    Dcopt_util.Text_table.create
      ~headers:[ "Row (layer/name)"; "Baseline"; "Current"; "Ratio"; "Gate" ]
  in
  List.iter
    (fun v ->
      let fmt_ns ns = Dcopt_util.Si.format ~unit:"s" (ns *. 1e-9) in
      Dcopt_util.Text_table.add_row table
        [
          v.v_name;
          fmt_ns v.baseline_ns;
          (match v.current_ns with Some ns -> fmt_ns ns | None -> "missing");
          (match v.current_ns with
          | Some _ -> Printf.sprintf "%.2fx" v.ratio
          | None -> "-");
          (match (v.v_ok, v.current_ns) with
          | true, None -> "skipped (optional)"
          | true, Some _ -> "ok"
          | false, _ -> Printf.sprintf "FAIL (> %.2fx)" threshold);
        ])
    verdicts;
  Dcopt_util.Text_table.render table
