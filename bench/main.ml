(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (DAC'97, section 5) plus the ablations listed in DESIGN.md,
   and times the optimizer layers.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe table1          # one experiment
     dune exec bench/main.exe table2 fig2a    # any subset

   An unknown name lists the experiments. *)

module Experiments = Dcopt_core.Experiments
module Flow = Dcopt_core.Flow
module Suite = Dcopt_suite.Suite
module Circuit = Dcopt_netlist.Circuit
module Bench_gate = Dcopt_obs.Bench_gate

(* --quick: shrink quotas so the timing experiment can run as a smoke
   test under `dune runtest` (numbers are then indicative only). *)
let quick = ref false

(* --json FILE: write the timing rows as machine-readable JSON, so CI
   keeps a perf trajectory across commits. *)
let json_out : string option ref = ref None

(* --check FILE: gate the timing rows against a committed baseline
   (test/BENCH_timing.json) and exit non-zero past the threshold. *)
let check_baseline : string option ref = ref None

(* --scale: force the large-circuit STA rows (sta_100k) even in quick
   mode — used to refresh the committed baseline. Full (non-quick) runs
   always measure them, plus the million-gate row. *)
let scale = ref false

let header title =
  let bar = String.make 72 '=' in
  Printf.printf "\n%s\n%s\n%s\n\n" bar title bar

let wall f =
  let t0 = Dcopt_util.Clock.monotonic_s () in
  let r = f () in
  (r, Dcopt_util.Clock.monotonic_s () -. t0)

(* ------------------------------------------------------------------ *)
(* Paper experiments                                                   *)

(* One experiment: [run] prints its report, then the harness prints
   [note] and the wall time of [run]. *)
type experiment = {
  name : string;
  title : string;
  run : unit -> unit;
  note : string;
}

let show render f () = print_string (render (f ()))
let ablation = Experiments.render_ablation ~title:""

let table2 () =
  let rows = Experiments.table2 () in
  print_string (Experiments.render_table ~title:"" rows);
  let savings = List.filter_map (fun r -> r.Experiments.savings) rows in
  match Array.of_list savings with
  | [||] -> ()
  | savings ->
    let lo, hi = Dcopt_util.Stats.min_max savings in
    Printf.printf
      "\nSavings vs Table 1: %.1fx-%.1fx (geomean %.1fx; paper: \"factors \
       larger than 10\").\n"
      lo hi
      (Dcopt_util.Stats.geometric_mean savings)

let pipeline () =
  let rows = Experiments.beyond_paper_pipeline () in
  print_string (ablation rows);
  match (rows, List.rev rows) with
  | first :: _, last :: _ ->
    Printf.printf
      "\nStacking the extensions on the paper's own result buys another \
       %.1fx.\n"
      (first.Experiments.value /. last.Experiments.value)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Timing rows                                                         *)

(* Every timing measurement is one Bench_gate.row, keyed "layer/name" by
   the lib/ layer it times. Gated rows are nanosecond costs stable enough
   to compare against the committed baseline; the rest (wall-clock of
   millisecond runs, reference costs, counts) are kept for reading. *)
let row ?(gated = false) layer name unit value =
  { Bench_gate.layer; name; unit; value; gated }

let bechamel_tests () =
  let open Bechamel in
  let core = Circuit.combinational_core (Suite.find_exn "s298") in
  let specs =
    Dcopt_activity.Activity.uniform_inputs core ~probability:0.5 ~density:0.1
  in
  let profile = Dcopt_activity.Activity.local_profile core specs in
  let env =
    Dcopt_opt.Power_model.make_env ~tech:Dcopt_device.Tech.default ~fc:300e6
      core profile
  in
  let budgets =
    (Dcopt_timing.Delay_assign.assign core ~cycle_time:(1.0 /. 300e6))
      .Dcopt_timing.Delay_assign.t_max
  in
  let n = Circuit.size core in
  (* constrained-vs-scalar STA pair, small and large: the same forward +
     backward analysis with a scalar target vs per-endpoint required
     seeds (one tightened output, the Constraints projection shape) *)
  let module Constraints = Dcopt_timing.Constraints in
  let module Sta = Dcopt_timing.Sta in
  let module Flat_sta = Dcopt_timing.Flat_sta in
  let tc = 1.0 /. 300e6 in
  let req_of circuit =
    let out_name id = (Circuit.node circuit id).Circuit.name in
    let victim = out_name (Circuit.outputs circuit).(0) in
    Constraints.required_times
      {
        (Constraints.of_cycle_time tc) with
        Constraints.output_delays =
          [
            { Constraints.port = victim; io_clock = None; io_delay = 0.1 *. tc };
          ];
      }
      ~default:tc circuit
  in
  let req = req_of core in
  let dag =
    Dcopt_netlist.Generator.(random_dag (default_dag ~name:"dag10k" ~seed:7L ~gates:10_000 ()))
  in
  let dag_flat = Dcopt_netlist.Flat.of_circuit dag in
  let dag_req = req_of dag in
  let dag_delays =
    let rng = Dcopt_util.Prng.create 13L in
    Array.init (Circuit.size dag) (fun _ -> Dcopt_util.Prng.float rng 1e-9)
  in
  [
    Test.make ~name:"activity/first-order (s298)"
      (Staged.stage (fun () ->
           ignore (Dcopt_activity.Activity.local_profile core specs)));
    Test.make ~name:"timing/sta scalar (s298)"
      (Staged.stage (fun () ->
           ignore (Sta.analyze ~required_time:tc core ~delays:budgets)));
    Test.make ~name:"timing/sta constrained (s298)"
      (Staged.stage (fun () ->
           ignore (Sta.analyze ~required_times:req core ~delays:budgets)));
    Test.make ~name:"timing/sta scalar (dag10k)"
      (Staged.stage (fun () ->
           ignore (Flat_sta.analyze ~required_time:tc dag_flat ~delays:dag_delays)));
    Test.make ~name:"timing/sta constrained (dag10k)"
      (Staged.stage (fun () ->
           ignore
             (Flat_sta.analyze ~required_times:dag_req dag_flat
                ~delays:dag_delays)));
    Test.make ~name:"timing/procedure-1 budgets (s298)"
      (Staged.stage (fun () ->
           ignore
             (Dcopt_timing.Delay_assign.assign core
                ~cycle_time:(1.0 /. 300e6))));
    Test.make ~name:"opt/sizing pass (s298)"
      (Staged.stage (fun () ->
           ignore
             (Dcopt_opt.Power_model.size_all env ~vdd:1.0
                ~vt:(Array.make n 0.15) ~budgets)));
    Test.make ~name:"opt/full evaluation (s298)"
      (Staged.stage
         (let design =
            Dcopt_opt.Power_model.uniform_design env ~vdd:1.0 ~vt:0.15 ~w:4.0
          in
          fun () -> ignore (Dcopt_opt.Power_model.evaluate env design)));
  ]

(* One bechamel pass over the kernel suite, sorted by name. A kernel
   without a positive estimate yields no row, so the gate reports it
   missing rather than comparing a meaningless number. *)
let kernel_rows () =
  let open Bechamel in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    if !quick then
      Benchmark.cfg ~limit:200 ~quota:(Time.second 0.05) ~stabilize:true ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"dcopt" (bechamel_tests ()))
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
  |> List.sort compare
  |> List.filter_map (fun (name, ols) ->
         (* bechamel names are "dcopt/LAYER/NAME" *)
         match (String.split_on_char '/' name, Analyze.OLS.estimates ols) with
         | [ _; layer; name ], Some (ns :: _) when ns > 0.0 ->
           Some (row ~gated:true layer name "ns/run" ns)
         | _ -> None)

(* Wall clock of the whole joint optimization; the paper reports 5-20 s
   per circuit on 1997 hardware. A millisecond run under parallel test
   load is too noisy to gate. *)
let joint_rows () =
  List.map
    (fun name ->
      let p = Flow.prepare (Suite.find_exn name) in
      let _, dt =
        wall (fun () ->
            (Dcopt_core.Optimizer.get "joint").Dcopt_core.Optimizer.run
              (Dcopt_core.Scenario.of_prepared p))
      in
      row "core" (Printf.sprintf "joint optimize (%s)" name) "s" dt)
    (if !quick then [ "s27" ] else [ "s27"; "s298"; "s344"; "s510" ])

(* Incremental vs full per-move cost on s298 — the Incr engine's reason to
   exist. Both variants replay one deterministic width-move schedule:

   - sizing (TILOS accepted-move shape): apply the width, recover delays,
     energies and the critical path. Full = whole-circuit evaluate + STA
     walk; incremental = set_width + commit + arrival-walk.
   - annealing width-move shape: evaluate the perturbed design, accept
     every other move. Full = candidate copy + whole-circuit evaluate;
     incremental = in-place set_width + commit/rollback. *)
let incremental_rows () =
  let module Power_model = Dcopt_opt.Power_model in
  let module Incr = Dcopt_opt.Power_model.Incr in
  let module Prng = Dcopt_util.Prng in
  let tech = Dcopt_device.Tech.default in
  let core = Circuit.combinational_core (Suite.find_exn "s298") in
  let specs =
    Dcopt_activity.Activity.uniform_inputs core ~probability:0.5 ~density:0.1
  in
  let profile = Dcopt_activity.Activity.local_profile core specs in
  let env = Power_model.make_env ~tech ~fc:300e6 core profile in
  let gates = Power_model.gate_ids env in
  let gate_count = Array.length gates in
  let moves = if !quick then 300 else 3000 in
  let clamp_w w =
    Dcopt_util.Numeric.clamp ~lo:tech.Dcopt_device.Tech.w_min
      ~hi:tech.Dcopt_device.Tech.w_max w
  in
  let schedule =
    let rng = Prng.create 0xBE7CL in
    Array.init moves (fun _ ->
        ( gates.(Prng.int rng gate_count),
          exp (Prng.gaussian rng ~mean:0.0 ~sigma:0.4) ))
  in
  let fresh_design () = Power_model.uniform_design env ~vdd:1.0 ~vt:0.2 ~w:4.0 in
  let sizing_full () =
    let design = fresh_design () in
    Array.iter
      (fun (id, factor) ->
        design.Power_model.widths.(id) <-
          clamp_w (design.Power_model.widths.(id) *. factor);
        let e = Power_model.evaluate env design in
        ignore
          (Dcopt_timing.Sta.critical_path core ~delays:e.Power_model.delays))
      schedule
  in
  let sizing_incr () =
    let inc = Incr.create env (fresh_design ()) in
    Array.iter
      (fun (id, factor) ->
        Incr.set_width inc id
          (clamp_w ((Incr.design inc).Power_model.widths.(id) *. factor));
        Incr.commit inc;
        ignore (Incr.critical_path inc))
      schedule
  in
  let anneal_full () =
    let design = ref (fresh_design ()) in
    Array.iteri
      (fun i (id, factor) ->
        let cand =
          {
            !design with
            Power_model.vt = Array.copy !design.Power_model.vt;
            widths = Array.copy !design.Power_model.widths;
          }
        in
        cand.Power_model.widths.(id) <-
          clamp_w (cand.Power_model.widths.(id) *. factor);
        ignore (Power_model.evaluate env cand);
        if i land 1 = 0 then design := cand)
      schedule
  in
  let anneal_incr () =
    let inc = Incr.create env (fresh_design ()) in
    Array.iteri
      (fun i (id, factor) ->
        Incr.set_width inc id
          (clamp_w ((Incr.design inc).Power_model.widths.(id) *. factor));
        ignore (Incr.total_energy inc);
        if i land 1 = 0 then Incr.commit inc else Incr.rollback inc)
      schedule
  in
  let per_move f =
    let _, dt = wall f in
    dt /. float_of_int moves *. 1e9
  in
  let dirty = Dcopt_obs.Metrics.counter "incr.dirty_gates" in
  let moves_c = Dcopt_obs.Metrics.counter "incr.moves" in
  let measure name full incr =
    let full_ns = per_move full in
    let d0 = Dcopt_obs.Metrics.value dirty in
    let m0 = Dcopt_obs.Metrics.value moves_c in
    let incr_ns = per_move incr in
    let dirty_per_move =
      float_of_int (Dcopt_obs.Metrics.value dirty - d0)
      /. float_of_int (max 1 (Dcopt_obs.Metrics.value moves_c - m0))
    in
    [
      row "opt" (name ^ "_full") "ns/move" full_ns;
      row ~gated:true "opt" (name ^ "_incr") "ns/move" incr_ns;
      row "opt" (name ^ "_incr dirty") "gates/move" dirty_per_move;
    ]
  in
  measure "sizing" sizing_full sizing_incr
  @ measure "anneal" anneal_full anneal_incr
  @ [ row "opt" "s298 core" "gates" (float_of_int gate_count) ]

(* Large-circuit STA scale rows: full timing analysis (forward +
   backward sweep) on generated 100k/1M-gate random DAGs, flat levelized
   kernel vs the pointer-chasing Sta it replaces. Measured as interleaved
   min-of-k — the variants alternate inside one loop so machine-wide
   noise hits both equally, and the minimum is a far tighter estimator of
   the true cost than any single reading. Every run also re-checks the
   determinism contract (arrival/required/slack arrays byte-identical
   between --jobs 1 and --jobs 4) and exits 1 when it breaks. *)

let scale_sizes ~quick =
  if quick then [ ("sta_100k", 100_000, 5); ("sta_constrained", 100_000, 5) ]
  else
    [
      ("sta_100k", 100_000, 8);
      ("sta_constrained", 100_000, 8);
      ("sta_1m", 1_000_000, 3);
    ]

let scale_rows () =
  let module G = Dcopt_netlist.Generator in
  let module Flat = Dcopt_netlist.Flat in
  let module Sta = Dcopt_timing.Sta in
  let module Flat_sta = Dcopt_timing.Flat_sta in
  let module Prng = Dcopt_util.Prng in
  let one (name, gates, reps) =
    (* the sta_constrained row measures the same flat-vs-pointer pair on
       the per-endpoint required-time path: finite capture budgets at
       every primary output, infinity elsewhere — the shape
       Constraints.required_times projects, so the dedicated _req
       backward kernel is the one on the clock *)
    let constrained = String.equal name "sta_constrained" in
    let d = G.default_dag ~name ~seed:42L ~gates () in
    let c = G.random_dag d in
    let f = Flat.of_circuit c in
    let n = Circuit.size c in
    let rng = Prng.create 9L in
    let delays = Array.init n (fun _ -> Prng.float rng 1e-9) in
    let required_times =
      if not constrained then None
      else begin
        let req = Array.make n infinity in
        let rng = Prng.create 11L in
        Array.iter
          (fun id -> req.(id) <- 0.5e-9 +. Prng.float rng 1e-9)
          (Circuit.outputs c);
        Some req
      end
    in
    let best_ptr = ref infinity and best_flat = ref infinity in
    for _ = 1 to reps do
      let _, dt = wall (fun () -> Sta.analyze ?required_times c ~delays) in
      if dt < !best_ptr then best_ptr := dt;
      let _, dt =
        wall (fun () -> Flat_sta.analyze ?required_times f ~jobs:1 ~delays)
      in
      if dt < !best_flat then best_flat := dt
    done;
    let r1 = Flat_sta.analyze ?required_times f ~jobs:1 ~delays in
    let r4 = Flat_sta.analyze ?required_times f ~jobs:4 ~delays in
    (* Bitwise, like test_flat.ml: (=) conflates 0. with -0. and never
       matches NaN, which is weaker than the byte-identical contract. *)
    let bits_equal a b =
      Array.length a = Array.length b
      && begin
           let ok = ref true in
           for i = 0 to Array.length a - 1 do
             if Int64.bits_of_float a.(i) <> Int64.bits_of_float b.(i) then
               ok := false
           done;
           !ok
         end
    in
    let jobs_identical =
      bits_equal r1.Flat_sta.arrival r4.Flat_sta.arrival
      && bits_equal r1.Flat_sta.required r4.Flat_sta.required
      && bits_equal r1.Flat_sta.slack r4.Flat_sta.slack
      && Int64.bits_of_float r1.Flat_sta.critical_delay
         = Int64.bits_of_float r4.Flat_sta.critical_delay
    in
    if not jobs_identical then begin
      Printf.eprintf "scale row %s: --jobs 4 result differs from --jobs 1\n"
        name;
      exit 1
    end;
    let g = float_of_int gates in
    [
      row ~gated:true "timing" name "ns/gate" (!best_flat *. 1e9 /. g);
      row "timing" (name ^ " pointer") "ns/gate" (!best_ptr *. 1e9 /. g);
      row "timing" (name ^ " gates") "gates" g;
      row "timing" (name ^ " nodes") "nodes" (float_of_int n);
    ]
  in
  List.concat_map one (scale_sizes ~quick:!quick)

(* Procedure-1 rows: delay budgeting on the generated seed-5 DAGs at
   50 MHz, the circuits ROADMAP quotes, as min-of-k wall clock (one run
   is milliseconds, too long for a bechamel quota). The 10k row is always
   measured; the 100k row runs with the scale rows. *)

let proc1_name label = Printf.sprintf "procedure-1 budgets (%s)" label

let proc1_sizes ~with_scale =
  ("dag10k", 10_000, 10)
  :: (if with_scale then [ ("100k", 100_000, 3) ] else [])

let proc1_rows () =
  let module G = Dcopt_netlist.Generator in
  let one (label, gates, reps) =
    let c = G.random_dag (G.default_dag ~seed:5L ~gates ()) in
    let best = ref infinity in
    for _ = 1 to reps do
      let _, dt =
        wall (fun () ->
            Dcopt_timing.Delay_assign.assign c ~cycle_time:(1.0 /. 50e6))
      in
      best := Float.min !best dt
    done;
    row ~gated:true "timing" (proc1_name label) "ns/run" (!best *. 1e9)
  in
  List.map one (proc1_sizes ~with_scale:((not !quick) || !scale))

(* Fleet throughput rows: the same 64-job batch (s27 joint, one
   distinct operating point per job) through a 4-worker fleet vs a
   1-worker fleet. Both sides go through identical machinery — fresh
   worker processes, dispatch, heartbeats, result framing — with the
   workers spawned and connected by a warm-up batch outside the clock,
   so the ratio of the two rows isolates what adding workers buys and
   the gated ns/job measures steady-state distribution cost, not
   one-time process spawn. (The in-process Service.run_batch path is
   deliberately NOT the timing baseline: by this point the bench process
   carries a large live heap from bechamel and the 100k-gate scale
   kernels, which inflates its per-job cost by ~2x vs a fresh process —
   a process-state artifact, not a fleet property. It still supplies the
   reference rows: fleet rows that differ from it bytewise exit 1.) The
   document header records the host's core count: on a single-core host
   extra workers cannot help, while the same rows show real scaling on
   multi-core hosts. *)

let fleet_rows () =
  let module Service = Dcopt_service.Service in
  let module Fleet = Dcopt_service.Fleet in
  let module Job = Dcopt_service.Job in
  let module Json = Dcopt_util.Json in
  (* the coordinator spawns `minpower worker`; bench/main.exe and
     bin/minpower.exe sit side by side in the build tree *)
  let binary =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      (Filename.concat "bin" "minpower.exe")
  in
  if not (Sys.file_exists binary) then begin
    Printf.printf
      "\n(fleet rows skipped: %s not built — run through dune so the \
       coordinator can spawn workers)\n"
      binary;
    []
  end
  else begin
    let n_jobs = 64 and workers = 4 in
    let job i =
      Job.make
        ~id:(Printf.sprintf "f%02d" i)
        ~optimizer:"joint"
        ~config:
          (Json.Obj
             [ ("clock_frequency", Json.Float (float_of_int (150 + i) *. 1e6)) ])
        "s27"
    in
    let jobs = List.init n_jobs job in
    let reps = if !quick then 2 else 3 in
    let row_strings rows =
      List.map (fun r -> Json.to_string (Job.row_to_json r)) rows
    in
    let timed_fleet ?listen n_workers =
      let fleet =
        Fleet.create (Fleet.options ~binary ~workers:n_workers ?listen ())
      in
      Fun.protect
        ~finally:(fun () -> Fleet.shutdown fleet)
        (fun () ->
          ignore (Fleet.run_batch fleet [ Job.make ~id:"warmup" "s27" ]);
          let best_dt = ref infinity and out = ref [] in
          for _ = 1 to reps do
            let rows, dt = wall (fun () -> Fleet.run_batch fleet jobs) in
            if dt < !best_dt then best_dt := dt;
            out := rows
          done;
          (!out, !best_dt))
    in
    let reference_rows = row_strings (Service.run_batch jobs) in
    let g = float_of_int n_jobs in
    (* the TCP row reruns the same batch with workers dialing back over
       loopback TCP instead of the unix socket: the delta against
       fleet_batch is the checksum-framed TCP transport cost per job *)
    let measure name listen =
      let w1_rows, w1_dt = timed_fleet ?listen 1 in
      let wn_rows, wn_dt = timed_fleet ?listen workers in
      if row_strings w1_rows <> reference_rows
         || row_strings wn_rows <> reference_rows
      then begin
        Printf.eprintf
          "fleet row %s: fleet rows differ from the in-process path\n" name;
        exit 1
      end;
      [
        row ~gated:true "fleet" name "ns/job" (wn_dt *. 1e9 /. g);
        row "fleet" (name ^ " one_worker") "ns/job" (w1_dt *. 1e9 /. g);
        row "fleet" (name ^ " jobs") "jobs" g;
        row "fleet" (name ^ " workers") "workers" (float_of_int workers);
      ]
    in
    measure "fleet_batch" None
    @ measure "fleet_tcp_batch"
        (Some (Dcopt_service.Wire.Tcp ("127.0.0.1", 0)))
  end

let measure_rows () =
  kernel_rows () @ proc1_rows () @ joint_rows () @ incremental_rows ()
  @ (if (not !quick) || !scale then scale_rows () else [])
  @ fleet_rows ()

let print_rows rows =
  let t =
    Dcopt_util.Text_table.create
      ~headers:[ "Layer"; "Row"; "Value"; "Unit"; "Gated" ]
  in
  Dcopt_util.Text_table.(set_align t [ Left; Left; Right; Left; Left ]);
  List.iter
    (fun (r : Bench_gate.row) ->
      Dcopt_util.Text_table.add_row t
        [
          r.layer;
          r.name;
          Printf.sprintf "%.7g" r.value;
          r.unit;
          (if r.gated then "yes" else "");
        ])
    rows;
  Dcopt_util.Text_table.print t

(* ------------------------------------------------------------------ *)
(* Regression gate (bench timing --check BASELINE.json)                *)

let merge_min a b =
  List.map
    (fun (m : Bench_gate.measurement) ->
      match
        List.find_opt
          (fun (m' : Bench_gate.measurement) -> String.equal m'.name m.name)
          b
      with
      | Some m' -> { m with Bench_gate.ns = Float.min m.ns m'.ns }
      | None -> m)
    a

(* Quick-mode bechamel estimates scatter under parallel test load, so a
   single slow reading is not a regression: on a miss, re-measure and
   keep the per-row minimum — min-of-k is a far tighter estimator of the
   true cost than any single run — and only fail once the minimum of
   three passes still exceeds the threshold. *)
let run_gate baseline_path rows =
  let fail e =
    Printf.eprintf "bench gate: %s\n" e;
    exit 1
  in
  let gated rows =
    match Bench_gate.measurements rows with Ok ms -> ms | Error e -> fail e
  in
  (* scale and fleet rows are optional on the baseline side: a quick run
     without --scale legitimately skips the former (the 100k Procedure-1
     row included), and a bench binary run without bin/minpower.exe
     built cannot spawn the latter (they gate whenever measured) *)
  let optional key =
    String.starts_with ~prefix:"fleet/" key
    || List.exists
         (fun (name, _, _) -> String.equal key ("timing/" ^ name))
         (scale_sizes ~quick:false)
    || String.equal key ("timing/" ^ proc1_name "100k")
  in
  match Bench_gate.load_baseline baseline_path with
  | Error e -> fail e
  | Ok baseline ->
    let max_attempts = 3 in
    let rec attempt n current =
      let verdicts = Bench_gate.check ~baseline ~current ~optional () in
      if Bench_gate.all_ok verdicts then
        Printf.printf "\nbench gate vs %s: ok (%d rows within %.2fx)\n%s"
          baseline_path (List.length verdicts) Bench_gate.default_threshold
          (Bench_gate.render verdicts)
      else if n < max_attempts then begin
        Printf.printf
          "\nbench gate: %d row(s) over threshold; re-measuring (attempt \
           %d/%d)\n"
          (List.length (Bench_gate.failures verdicts))
          (n + 1) max_attempts;
        attempt (n + 1) (merge_min current (gated (measure_rows ())))
      end
      else begin
        Printf.printf "\nbench gate vs %s: FAILED\n%s" baseline_path
          (Bench_gate.render verdicts);
        exit 1
      end
    in
    attempt 1 (gated rows)

let run_timing () =
  let rows = measure_rows () in
  print_rows rows;
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc
            (Bench_gate.to_json_string ~quick:!quick
               ~jobs:(Dcopt_par.Par.jobs ())
               ~cpus:(Domain.recommended_domain_count ())
               rows));
      Printf.printf "\nwrote timing rows to %s\n" path)
    !json_out;
  Option.iter (fun path -> run_gate path rows) !check_baseline

(* ------------------------------------------------------------------ *)

let experiments =
  [
    {
      name = "table1";
      title =
        "Table 1: baseline — Vt fixed at 700 mV, Vdd and widths optimized \
         (fc = 300 MHz)";
      run = show (Experiments.render_table ~title:"") Experiments.table1;
      note =
        "Shape checks vs the paper: leakage negligible at 700 mV (static << \
         dynamic); supply lands high (timing-bound at this threshold).";
    };
    {
      name = "table2";
      title =
        "Table 2: joint (Vdd, Vt, width) optimization and savings vs Table 1";
      run = table2;
      note =
        "Shape checks vs the paper: Vt lands in the 100-250 mV band (paper: \
         150-250 mV); Vdd in 0.45-1.2 V (paper: 0.6-1.2 V); static and \
         dynamic components comparable at the optimum; savings grow with \
         input activity.";
    };
    {
      name = "fig2a";
      title = "Figure 2(a): power savings vs threshold-voltage variation (s298)";
      run = show Experiments.render_fig2a Experiments.fig2a;
      note =
        "Shape check vs the paper: savings shrink monotonically as the \
         worst-case Vt spread grows.";
    };
    {
      name = "fig2b";
      title = "Figure 2(b): power savings vs available cycle-time slack (s298)";
      run = show Experiments.render_fig2b Experiments.fig2b;
      note =
        "Shape check vs the paper: savings against the fixed 300 MHz baseline \
         grow with slack, crossing ~25x (the paper's headline factor); the \
         optimizer rides Vdd down and lets Vt rise as leakage integrates over \
         longer cycles.";
    };
    {
      name = "annealing";
      title = "Section 5: Procedure-2 heuristic vs multi-pass simulated annealing";
      run = show Experiments.render_annealing Experiments.annealing_comparison;
      note =
        "Shape check vs the paper: the heuristic reaches the same energy \
         regime orders of magnitude faster; cold-started annealing needs far \
         more evaluations to compete.";
    };
    {
      name = "ablation-activity";
      title = "Ablation: first-order vs BDD-exact transition densities (s298)";
      run = show ablation Experiments.ablation_activity;
      note =
        "The paper's first-order method (no input correlation) is a close \
         proxy for the exact densities on random logic.";
    };
    {
      name = "ablation-budget";
      title =
        "Ablation: Procedure-1 criticality budgets vs uniform per-gate \
         budgets (s298)";
      run = show ablation Experiments.ablation_budget;
      note =
        "See EXPERIMENTS.md: on shallow synthetic cores a uniform split can \
         beat fanout-proportional budgeting — a real limitation of the \
         criticality heuristic worth knowing about.";
    };
    {
      name = "ablation-multivt";
      title = "Ablation: single-Vt vs dual-Vt optimization (s298)";
      run = show ablation Experiments.ablation_multi_vt;
      note =
        "A second threshold lets slack-rich gates trade speed for leakage \
         (the paper's n_v > 1 case).";
    };
    {
      name = "ablation-multivdd";
      title = "Extension: dual supply voltages (clustered voltage scaling, s298)";
      run = show ablation Experiments.ablation_multi_vdd;
      note =
        "Slack-rich gates move to a second, lower rail; level converters at \
         register/output boundaries are costed in energy and delay.";
    };
    {
      name = "ablation-shortcircuit";
      title = "Extension: Veendrick short-circuit dissipation in the cost";
      run = show ablation Experiments.ablation_short_circuit;
      note =
        "The paper neglects crowbar current (an order of magnitude below \
         switching at typical slopes) but announces it for the next tool \
         version; enabling it here shifts the optimum little because low-Vdd \
         designs have Vdd < 2Vt, where the crowbar window closes.";
    };
    {
      name = "yield";
      title = "Extension: Monte-Carlo timing yield under Vt variation (s298)";
      run = show Experiments.render_yield Experiments.yield_study;
      note =
        "The statistical companion to Fig. 2(a): the nominal optimum loses \
         yield as the die-to-die threshold spread grows, while the 3-sigma \
         corner-margined design holds yield at the listed energy premium.";
    };
    {
      name = "scaling";
      title = "Extension: optimal operating point across scaled technology nodes";
      run = show Experiments.render_scaling Experiments.scaling_study;
      note =
        "Constant-field scaling shrinks capacitance and the supply ceiling, \
         but the subthreshold swing is set by kT/q and does not scale: the \
         static share of the optimum grows with each node — the trend that \
         made this paper's joint optimization mainstream.";
    };
    {
      name = "glitch";
      title = "Extension: glitch power missed by zero-delay activity analysis";
      run = show Experiments.render_glitch Experiments.glitch_study;
      note =
        "Two effects the paper's zero-delay densities miss, made visible by \
         event-driven simulation: simultaneous input toggles cancel (Najm \
         over-counts XOR-rich logic), while unbalanced arrival times glitch \
         (Najm under-counts arithmetic arrays -- the multiplier's transitions \
         are mostly hazards).";
    };
    {
      name = "state-activity";
      title = "Extension: trace-measured state-bit activity (Seq_sim)";
      run =
        show Experiments.render_state_activity
          Experiments.state_activity_study;
      note =
        "The paper assumes pseudo-inputs (register outputs) toggle like true \
         inputs; cycle simulation of the sequential circuit measures how the \
         reachable-state structure actually drives them, and the optimizer \
         re-targets under the measured profile.";
    };
    {
      name = "ablation-sizing";
      title =
        "Ablation: budget-decomposed (Procedure 2) vs budget-free (TILOS) \
         sizing (s298)";
      run = show ablation Experiments.ablation_sizing;
      note =
        "Procedure 1's per-gate budgets make the heuristic O(M^3)-fast but \
         over-constrain gates on slack-rich paths; TILOS's global greedy \
         sizing finds substantially lower energy at much higher runtime -- \
         the price of the paper's decomposition, quantified.";
    };
    {
      name = "ablation-fanin";
      title = "Extension: bounded-fanin decomposition before optimization (s298)";
      run = show ablation Experiments.ablation_fanin;
      note =
        "Narrow gates trade series-stack delay for extra logic depth and \
         switched capacitance; the optimizer arbitrates.";
    };
    {
      name = "pipeline";
      title = "Extension: the cumulative beyond-paper recipe (s298)";
      run = pipeline;
      note = "That factor comes on top of the paper's >10x baseline savings.";
    };
    {
      name = "temperature";
      title = "Extension: optimal operating point vs junction temperature (s298)";
      run = show ablation Experiments.temperature_study;
      note =
        "The subthreshold swing scales with kT/q: hot dies leak \
         exponentially more, so the optimizer raises Vt (and pays Vdd) as \
         the junction heats -- the other reason real designs keep margin on \
         the paper's razor-edge optimum.";
    };
    {
      name = "timing";
      title = "Timing rows per layer (Bechamel kernels and wall-clock runs)";
      run = run_timing;
      note =
        "(The paper quotes 5-20 s per circuit on 1997 hardware for the same \
         O(M^3) procedure; compare the core/joint optimize rows.)";
    };
  ]

let () =
  let rec parse acc = function
    | [] -> List.rev acc
    | "--quick" :: rest ->
      quick := true;
      parse acc rest
    | "--scale" :: rest ->
      scale := true;
      parse acc rest
    | "--json" :: path :: rest ->
      json_out := Some path;
      parse acc rest
    | "--check" :: path :: rest ->
      check_baseline := Some path;
      parse acc rest
    | "--jobs" :: value :: rest ->
      (match int_of_string_opt value with
      | Some n when n >= 1 -> Dcopt_par.Par.set_jobs n
      | Some _ | None ->
        Printf.eprintf "--jobs expects an integer >= 1, got %S\n" value;
        exit 2);
      parse acc rest
    | ("--json" | "--jobs" | "--check") :: [] ->
      Printf.eprintf "--json/--jobs/--check expect an argument\n";
      exit 2
    | a :: rest -> parse (a :: acc) rest
  in
  let args =
    parse []
      (match Array.to_list Sys.argv with _ :: args -> args | [] -> [])
  in
  let names = List.map (fun e -> e.name) experiments in
  let requested =
    match args with [] | [ "all" ] -> names | args -> args
  in
  let unknown = List.filter (fun a -> not (List.mem a names)) requested in
  if unknown <> [] then begin
    Printf.eprintf "unknown experiment(s): %s\navailable: %s all\n"
      (String.concat " " unknown) (String.concat " " names);
    exit 2
  end;
  List.iter
    (fun name ->
      let e = List.find (fun e -> String.equal e.name name) experiments in
      header e.title;
      let (), dt = wall e.run in
      Printf.printf "\n%s [%.1f s]\n" e.note dt)
    requested
