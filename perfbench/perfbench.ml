(* End-to-end benchmark of the optimization pipeline: one workload per
   run, outputs checked, one JSON result line last on stdout.

     perfbench.exe --workload dag10k --seed 1 --seconds 10 --trace 0

   Workloads:
   - dag10k: one joint optimize (Flow.prepare -> Optimizer.run ->
     Scenario.finalize) of a seeded 10k-gate random DAG at 50 MHz.
   - iscas_batch: the 13 suite circuits x {joint, baseline} x 3 seeded
     clock targets in 150-400 MHz through Service.run_batch into an
     empty store.
   - iscas_replay: the same jobs against the store set-up filled (not
     declared in BENCHMARK.json: too noisy to hold a bound; see
     README.md).
   - iscas_fleet: the iscas_batch jobs through Fleet.run_batch with 2
     pre-spawned worker processes, into an empty store.

   With --trace 0 the run measures for --seconds with tracing off and
   reports the end-to-end metrics. With --trace 1 it measures half the
   time untraced and half traced, replays single layers on the traced
   results, prints a per-layer table and reports the per-layer
   metrics. *)

module Circuit = Dcopt_netlist.Circuit
module Generator = Dcopt_netlist.Generator
module Bench_format = Dcopt_netlist.Bench_format
module Flat = Dcopt_netlist.Flat
module Flow = Dcopt_core.Flow
module Optimizer = Dcopt_core.Optimizer
module Scenario = Dcopt_core.Scenario
module Solution = Dcopt_opt.Solution
module Power_model = Dcopt_opt.Power_model
module Sta = Dcopt_timing.Sta
module Flat_sta = Dcopt_timing.Flat_sta
module Delay_assign = Dcopt_timing.Delay_assign
module Service = Dcopt_service.Service
module Store = Dcopt_service.Store
module Fleet = Dcopt_service.Fleet
module Job = Dcopt_service.Job
module Span = Dcopt_obs.Span
module Metrics = Dcopt_obs.Metrics
module Telemetry = Dcopt_obs.Telemetry
module Par = Dcopt_par.Par
module Suite = Dcopt_suite.Suite
module Json = Dcopt_util.Json
module Prng = Dcopt_util.Prng
module Stats = Dcopt_util.Stats
module Clock = Dcopt_util.Clock

(* ------------------------------------------------------------------ *)
(* Settings                                                            *)

let par_jobs = 2 (* in-process domains, sized for a 2-CPU host *)
let fleet_workers = 2 (* worker processes, each at jobs = 1 *)
(* set-ups per run, setup_s being their median: fewer where one set-up
   runs a whole cold batch *)
let setup_reps workload = if workload = "iscas_replay" then 3 else 7
let dag_fc = 50e6
let replay_group = 10 (* replayed batches per measured iteration *)
let optimizers = [ "joint"; "baseline" ]

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  reduced : bool;  (* the self-test size: 1k-gate DAG, 3-circuit batch *)
  work_dir : string;
  nproc : int;
  commit : string;
}

let dag_gates o = if o.reduced then 1_000 else 10_000
let is_fleet o = o.workload = "iscas_fleet"

(* The coordinator of a fleet computes nothing itself. *)
let jobs_of o = if is_fleet o then 1 else par_jobs

let circuits o =
  if o.reduced then [ "s27"; "s298"; "s344" ] else Suite.names

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)

let now = Clock.monotonic_s

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median xs = Stats.median (Array.of_list xs)

(* Run [f] at least [min] times and until [seconds] have passed. *)
let repeat_for ~min ~seconds f =
  let t0 = now () in
  let rec go n acc =
    let acc = f () :: acc in
    if n + 1 < min || now () -. t0 < seconds then go (n + 1) acc
    else List.rev acc
  in
  go 0 []

(* Median seconds per call of [f] over [reps] timed calls. *)
let per_call ~reps f = median (List.init reps (fun _ -> snd (timed f)))

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let store_seq = ref 0

(* A fresh, empty result store under the run's work directory. *)
let fresh_store o =
  incr store_seq;
  Store.open_
    (Filename.concat o.work_dir (Printf.sprintf "store%d" !store_seq))

let counter name = Metrics.value (Metrics.counter name)

(* Every non-zero counter of the program's registry (gauges and
   histograms are skipped: registering a name under another type
   raises). *)
let nonzero_counters () =
  List.filter_map
    (fun name ->
      match counter name with
      | v when v > 0 -> Some (name, v)
      | _ -> None
      | exception Invalid_argument _ -> None)
    (Metrics.names ())

(* Output checks: every job attempted and every job that is [Failed]
   or fails a check; the first few failures are printed. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      tally.attempted <- tally.attempted + 1;
      if not ok then begin
        tally.failed <- tally.failed + 1;
        if tally.failed <= 10 then Printf.printf "CHECK FAILED: %s\n%!" msg
      end)
    fmt

let energy_pj sol = Solution.total_energy sol *. 1e12

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)

(* The seed's rendering of a netlist: every net renamed through a
   seeded bijection and the gate definitions in a seeded order. The
   circuit is the same; its node ids, and so every tie the program
   breaks by id, are not. *)
let permute_bench rng text =
  let lines =
    List.filter
      (fun l -> l <> "" && l.[0] <> '#')
      (String.split_on_char '\n' text)
  in
  let starts prefix l = String.starts_with ~prefix l in
  let is_decl l = starts "INPUT(" l || starts "OUTPUT(" l in
  let decls, gates = List.partition is_decl lines in
  let defined l =
    if is_decl l then
      let i = String.index l '(' in
      String.sub l (i + 1) (String.length l - i - 2)
    else String.trim (String.sub l 0 (String.index l '='))
  in
  let names =
    Array.of_list
      (List.filter_map
         (fun l -> if starts "OUTPUT(" l then None else Some (defined l))
         lines)
  in
  let ids = Array.init (Array.length names) Fun.id in
  Prng.shuffle rng ids;
  let rename = Hashtbl.create (Array.length names) in
  Array.iteri
    (fun i name -> Hashtbl.replace rename name (Printf.sprintf "n%d" ids.(i)))
    names;
  let r name = Hashtbl.find rename (String.trim name) in
  let decl l =
    let i = String.index l '(' in
    Printf.sprintf "%s(%s)" (String.sub l 0 i) (r (defined l))
  in
  let gate l =
    let eq = String.index l '=' and lp = String.index l '(' in
    let args = String.sub l (lp + 1) (String.rindex l ')' - lp - 1) in
    Printf.sprintf "%s = %s(%s)" (r (defined l))
      (String.trim (String.sub l (eq + 1) (lp - eq - 1)))
      (String.concat ", " (List.map r (String.split_on_char ',' args)))
  in
  let gates = Array.of_list gates in
  Prng.shuffle rng gates;
  String.concat "\n"
    (List.map decl decls @ List.map gate (Array.to_list gates))
  ^ "\n"

(* ROADMAP's scale row, `minpower generate -n 10000 --seed 5`,
   rendered in the seed's permutation: the program sees only that
   netlist text. *)
let dag_circuit o =
  let spec =
    Generator.default_dag ~name:"dag10k" ~seed:5L ~gates:(dag_gates o) ()
  in
  let dag =
    Span.with_ "Generator.random_dag" (fun () -> Generator.random_dag spec)
  in
  let rng = Prng.of_string (Printf.sprintf "dag/%d" o.seed) in
  let text = permute_bench rng (Bench_format.to_string dag) in
  Span.with_ "Bench_format.parse_string" (fun () ->
      Bench_format.parse_string ~name:spec.Generator.dag_name text)

(* Three clock targets per circuit, one drawn uniformly from each third
   of 150-400 MHz (rounded to 1 kHz), shared by both optimizers. *)
let batch_jobs o =
  let rng = Prng.of_string (Printf.sprintf "clocks/%d" o.seed) in
  let third = 250e6 /. 3.0 in
  List.concat_map
    (fun name ->
      let fcs =
        List.init 3 (fun k ->
            let lo = 150e6 +. (float_of_int k *. third) in
            Float.round ((lo +. Prng.float rng third) /. 1e3) *. 1e3)
      in
      List.concat_map
        (fun optimizer ->
          List.map
            (fun fc ->
              Job.make
                ~id:(Printf.sprintf "%s-%s-%.0fk" name optimizer (fc /. 1e3))
                ~optimizer
                ~config:(Json.Obj [ ("clock_frequency", Json.Float fc) ])
                name)
            fcs)
        optimizers)
    (circuits o)

(* The batch workloads' inputs: the suite circuits the jobs name,
   generated on first use (set-up fills the suite's cache), and the job
   specs. Parsing the circuits' .bench text times the netlist reader on
   the same inputs. *)
let batch_inputs o =
  let texts =
    List.map
      (fun name ->
        let c = Span.with_ "Suite.find" (fun () -> Suite.find_exn name) in
        (name, Bench_format.to_string c))
      (circuits o)
  in
  Span.with_ "Bench_format.parse_string" (fun () ->
      List.iter
        (fun (name, text) -> ignore (Bench_format.parse_string ~name text))
        texts);
  batch_jobs o

(* ------------------------------------------------------------------ *)
(* Results                                                             *)

type e2e = {
  optimize_s : float;
  jobs_per_s : float;
  energy_pj : float;
  peak_rss_mb : float;
  setup_s : float;
  samples : float list;  (* the per-batch seconds behind optimize_s *)
}

(* The end-to-end metrics as (name, unit, value), in report order. *)
let e2e_metrics e =
  [
    ("optimize_s", "s", e.optimize_s);
    ("jobs_per_s", "1/s", e.jobs_per_s);
    ("energy_pj", "pJ", e.energy_pj);
    ("peak_rss_mb", "MB", e.peak_rss_mb);
    ("setup_s", "s", e.setup_s);
  ]

(* Per-layer metrics in report order, with units. *)
let layer_units =
  [
    ("netlist.generate_s", "s");
    ("netlist.parse_s", "s");
    ("netlist.flat_build_s", "s");
    ("activity.profile_s", "s");
    ("timing.proc1_s", "s");
    ("timing.proc1_paths_used", "count");
    ("timing.proc1_fallback_gates", "count");
    ("timing.proc1_fallback_share", "share");
    ("timing.budget_repair_s", "s");
    ("timing.sta_ns_per_gate", "ns");
    ("opt.trials", "count");
    ("opt.feasible_share", "share");
    ("opt.size_all_ns_per_gate", "ns");
    ("opt.evaluate_ns_per_gate", "ns");
    ("opt.search_explained_share", "share");
    ("core.prepare_s", "s");
    ("core.run_s", "s");
    ("core.finalize_s", "s");
    ("par.tasks", "count");
    ("par.batches", "count");
    ("service.batch_s", "s");
    ("service.job_latency_p50_s", "s");
    ("service.job_latency_p90_s", "s");
    ("service.cache_hit_share", "share");
    ("service.store_put_us", "us");
    ("service.store_find_us", "us");
    ("service.digest_us", "us");
    ("service.resolve_us", "us");
    ("service.row_encode_us", "us");
    ("fleet.overhead_s_per_job", "s");
    ("fleet.spawned", "count");
    ("fleet.dispatched", "count");
    ("fleet.requeues", "count");
    ("fleet.lost", "count");
    ("failed_share", "share");
  ]

let result_line metrics =
  let finite x = if Float.is_finite x then x else 0.0 in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (tally.failed = 0));
         ("attempted", Json.Int (max 1 tally.attempted));
         ("failed", Json.Int tally.failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, unit, v) ->
                  ( name,
                    Json.Obj
                      [
                        ("value", Json.Float (finite v));
                        ("unit", Json.String unit);
                      ] ))
                metrics) );
       ])

let failed_share () =
  float_of_int tally.failed /. float_of_int (max 1 tally.attempted)

(* Median and spread of a timing, with its sample count. *)
let describe_samples xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  let lo, hi = Stats.min_max a in
  if n >= 100 then
    Printf.sprintf "median of %d; p90 %.6g, min %.6g, max %.6g" n
      (Stats.quantile a 0.9) lo hi
  else Printf.sprintf "median of %d; min %.6g, max %.6g" n lo hi

let print_e2e ~label e =
  Printf.printf "\n%s end-to-end metrics:\n" label;
  List.iter
    (fun (name, unit, v) ->
      let note =
        if name = "optimize_s" then describe_samples e.samples else ""
      in
      Printf.printf "  %-12s %14.6g %-4s %s\n" name v unit note)
    (e2e_metrics e);
  Printf.printf "  %-12s %14.6g %-4s (%d failed of %d attempted)\n%!"
    "failed_share" (failed_share ()) "share" tally.failed tally.attempted

(* ------------------------------------------------------------------ *)
(* The pipeline and its checks                                         *)

let joint = Optimizer.get "joint"

let optimize ?observer ~config circuit =
  let p = Span.with_ "Flow.prepare" (fun () -> Flow.prepare ~config circuit) in
  let s = Scenario.of_prepared p in
  let sol =
    Span.with_ "Optimizer.run" (fun () -> joint.Optimizer.run ?observer s)
  in
  let sol =
    Span.with_ "Scenario.finalize" (fun () -> Scenario.finalize s sol)
  in
  (p, sol)

(* Spans of output checks: outside the measured time. *)
let check_spans = [ "Sta.meets" ]

(* The repository's reference STA (the pointer engine, independent of
   Flat_sta) must confirm the design meets 1/fc. *)
let check_design (p : Flow.prepared) sol =
  let cycle_time = 1.0 /. p.Flow.config.Flow.clock_frequency in
  match sol with
  | None -> check false "%s: no feasible design" (Circuit.name p.Flow.core)
  | Some sol ->
    let meets =
      Span.with_ "Sta.meets" (fun () ->
          Sta.meets p.Flow.core ~delays:sol.Solution.evaluation.delays
            ~cycle_time)
    in
    check
      (meets && Solution.feasible sol)
      "%s: pointer STA says the design misses 1/fc = %g s"
      (Circuit.name p.Flow.core) cycle_time

let encode rows =
  Array.of_list (List.map (fun r -> Json.to_string (Job.row_to_json r)) rows)

let row_energy_pj rows =
  let es =
    List.filter_map
      (fun (r : Job.row) ->
        match r.Job.outcome with
        | Job.Solved sol -> Some (energy_pj sol)
        | Job.Infeasible | Job.Failed _ -> None)
      rows
  in
  if es = [] then 0.0 else Stats.geometric_mean (Array.of_list es)

(* Check one batch's rows and their encoded lines: no row [Failed],
   solved designs feasible, the expected cache flag, and each line
   byte-identical to the expected one when there is one. *)
let check_rows ~what ~cache_hit ?expected rows lines =
  List.iteri
    (fun i (r : Job.row) ->
      let ok_outcome =
        match r.Job.outcome with
        | Job.Solved sol -> Solution.feasible sol
        | Job.Infeasible -> true
        | Job.Failed _ -> false
      in
      let same =
        match expected with
        | None -> true
        | Some e -> i < Array.length e && e.(i) = lines.(i)
      in
      check
        (ok_outcome && r.Job.cache_hit = cache_hit && same)
        "%s row %s: outcome ok %b, cache_hit %b (want %b), equals reference %b"
        what r.Job.job_id ok_outcome r.Job.cache_hit cache_hit same)
    rows

(* ------------------------------------------------------------------ *)
(* Per-layer replays: single public calls timed on the traced results  *)

type layers = (string, float) Hashtbl.t

let set (l : layers) name v = Hashtbl.replace l name v
let get (l : layers) name = Option.value ~default:0.0 (Hashtbl.find_opt l name)
let add (l : layers) name v = set l name (v +. get l name)

(* Replays on one optimized circuit: Procedure 1's postcondition
   re-checked, Flat build, Flat_sta on the final delays,
   Power_model.size_all and evaluate at the chosen (Vdd, Vt) on the
   repaired budgets. Adds counts and seconds into [l]. *)
let replay_compute l (p : Flow.prepared) sol ~trials ~feasible =
  let core = p.Flow.core in
  let gates = float_of_int (Circuit.gate_count core) in
  let b = p.Flow.budget in
  let cycle_time = 1.0 /. p.Flow.config.Flow.clock_frequency in
  check
    (Span.with_ "Delay_assign.verify" (fun () ->
         Delay_assign.verify core b ~cycle_time))
    "%s: Procedure-1 budgets miss the cycle time" (Circuit.name core);
  add l "gates" gates;
  add l "timing.proc1_paths_used" (float_of_int b.Delay_assign.paths_used);
  add l "timing.proc1_fallback_gates"
    (float_of_int b.Delay_assign.fallback_gates);
  add l "opt.trials" (float_of_int trials);
  add l "opt.feasible" (float_of_int feasible);
  add l "netlist.flat_build_s"
    (per_call ~reps:5 (fun () ->
         Span.with_ "Flat.of_circuit" (fun () ->
             ignore (Flat.of_circuit core))));
  match (sol, Flow.fast_budgets p) with
  | Some (sol : Solution.t), Some budgets ->
    let flat = Power_model.flat p.Flow.env in
    let delays = sol.Solution.evaluation.delays in
    let reps = if gates > 5000.0 then 5 else 20 in
    add l "sta_s"
      (per_call ~reps:(4 * reps) (fun () ->
           Span.with_ "Flat_sta.analyze" (fun () ->
               ignore (Flat_sta.analyze flat ~delays))));
    let design = sol.Solution.design in
    let size_all =
      per_call ~reps (fun () ->
          Span.with_ "Power_model.size_all" (fun () ->
              ignore
                (Power_model.size_all p.Flow.env ~vdd:design.Power_model.vdd
                   ~vt:design.Power_model.vt ~budgets)))
    in
    let evaluate =
      per_call ~reps:(2 * reps) (fun () ->
          Span.with_ "Power_model.evaluate" (fun () ->
              ignore (Power_model.evaluate p.Flow.env design)))
    in
    add l "size_all_s" size_all;
    add l "evaluate_s" evaluate;
    add l "explained_s" (float_of_int trials *. (size_all +. evaluate))
  | _ -> ()

(* Ratios over the sums [replay_compute] accumulated. *)
let finish_compute l ~search_s =
  let gates = get l "gates" in
  if gates > 0.0 then begin
    set l "timing.proc1_fallback_share"
      (get l "timing.proc1_fallback_gates" /. gates);
    set l "timing.sta_ns_per_gate" (get l "sta_s" *. 1e9 /. gates);
    set l "opt.size_all_ns_per_gate" (get l "size_all_s" *. 1e9 /. gates);
    set l "opt.evaluate_ns_per_gate" (get l "evaluate_s" *. 1e9 /. gates);
    set l "opt.feasible_share"
      (get l "opt.feasible" /. Float.max 1.0 (get l "opt.trials"));
    if search_s > 0.0 then
      set l "opt.search_explained_share" (get l "explained_s" /. search_s)
  end

let trial_counts recorder =
  let its = Telemetry.iterations recorder in
  ( Array.length its,
    Array.fold_left
      (fun n (it : Telemetry.iteration) ->
        if it.Telemetry.feasible then n + 1 else n)
      0 its )

(* Microseconds per job of the service's per-job steps, each replayed
   over the whole job list: circuit resolution, digest, store lookup
   with decode, store write (into a scratch store) and row encoding. *)
let replay_service o l ~store jobs rows =
  let n = float_of_int (List.length jobs) in
  let us name f = set l name (per_call ~reps:5 f *. 1e6 /. n) in
  let resolved =
    List.map
      (fun (j : Job.t) ->
        let circuit = Result.get_ok (Service.resolve_circuit j.Job.circuit) in
        let config =
          match j.Job.config with
          | None -> Flow.default_config
          | Some c -> Result.get_ok (Flow.config_of_json c)
        in
        (j, circuit, config))
      jobs
  in
  us "service.resolve_us" (fun () ->
      List.iter
        (fun (j : Job.t) ->
          Span.with_ "Service.resolve_circuit" (fun () ->
              ignore (Service.resolve_circuit j.Job.circuit));
          Option.iter (fun c -> ignore (Flow.config_of_json c)) j.Job.config)
        jobs);
  let digests =
    List.map
      (fun ((j : Job.t), circuit, config) ->
        Store.digest ~optimizer:j.Job.optimizer ~config circuit)
      resolved
  in
  us "service.digest_us" (fun () ->
      List.iter
        (fun ((j : Job.t), circuit, config) ->
          Span.with_ "Store.digest" (fun () ->
              ignore (Store.digest ~optimizer:j.Job.optimizer ~config circuit)))
        resolved);
  us "service.store_find_us" (fun () ->
      List.iter
        (fun d ->
          Span.with_ "Store.find" (fun () ->
              ignore
                (Option.map Job.outcome_of_store_json (Store.find store d))))
        digests);
  let docs =
    List.filter_map
      (fun (r : Job.row) ->
        Option.map
          (fun doc -> (r.Job.digest, doc))
          (Job.outcome_to_store_json r.Job.outcome))
      rows
  in
  let scratch = fresh_store o in
  us "service.store_put_us" (fun () ->
      List.iter
        (fun (d, doc) ->
          Span.with_ "Store.put" (fun () -> Store.put scratch d doc))
        docs);
  us "service.row_encode_us" (fun () ->
      Span.with_ "Job.row_to_json" (fun () -> ignore (encode rows)))

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

(* Part of every in-process set-up: two small jobs through the service,
   so the program's lazily built tables exist before the first measured
   iteration. Set-ups then shut down the Par pool their batches started:
   idle pool domains would have to join every minor collection of a
   single-threaded phase that follows (on iscas_replay: 6x the context
   switches, a 14% slower median, 2.4x the run-to-run spread), and a
   process that has not computed in parallel has no pool. *)
let warm_up () =
  ignore
    (Service.run_batch
       (List.map
          (fun optimizer ->
            Job.make ~id:("warmup-" ^ optimizer) ~optimizer "s27")
          optimizers));
  Par.shutdown ()

(* A workload: [setup] prepares the inputs (run [setup_reps] times with
   [teardown] between, the last one's state kept); [iterate] is one
   measured unit of work and returns its seconds per batch; [finish]
   runs the checks that need the whole run and tears down; [layers]
   fills the per-layer metrics from the traced spans and replays. *)
type workload = {
  jobs_per_batch : int;  (* a batch: one optimize on dag10k *)
  batches_per_iteration : int;
  min_iterations : int;
  setup : unit -> unit;
  iterate : traced:bool -> float;
  energy : unit -> float;
  peak_rss : unit -> float;
  finish : unit -> unit;
  teardown : unit -> unit;  (* undo a set-up, untimed, before the next *)
  layers : layers -> Span_report.row list -> batches:int -> unit;
}

let dag10k o =
  let config = { Flow.default_config with Flow.clock_frequency = dag_fc } in
  let circuit = ref None in
  let last = ref None and energies = ref [] in
  let recorder = ref (Telemetry.recorder ()) in
  let iterate ~traced =
    let c = Option.get !circuit in
    let observer =
      if traced then begin
        recorder := Telemetry.recorder ();
        Some (Telemetry.record !recorder)
      end
      else None
    in
    let (p, sol), dt = timed (fun () -> optimize ?observer ~config c) in
    check_design p sol;
    Option.iter (fun s -> energies := energy_pj s :: !energies) sol;
    last := Some (p, sol);
    dt
  in
  let layers l rows ~batches =
    let per name = Span_report.total rows name /. float_of_int batches in
    set l "activity.profile_s" (per "activity");
    set l "timing.proc1_s" (per "budgeting");
    set l "timing.budget_repair_s" (per "budget-repair");
    set l "core.prepare_s" (per "Flow.prepare");
    set l "core.run_s" (per "Optimizer.run");
    set l "core.finalize_s" (per "Scenario.finalize");
    let p, sol = Option.get !last in
    let trials, feasible = trial_counts !recorder in
    replay_compute l p sol ~trials ~feasible;
    finish_compute l ~search_s:(per "search")
  in
  {
    jobs_per_batch = 1;
    batches_per_iteration = 1;
    (* one optimize takes about as long as a run measures: a fixed
       count keeps the number of samples, and the median, from
       depending on whether the first one finished early *)
    min_iterations = 2;
    setup =
      (fun () ->
        circuit := Some (dag_circuit o);
        warm_up ());
    iterate;
    energy =
      (fun () ->
        (* deterministic for a seed: every iteration finds the same design *)
        match !energies with
        | e :: rest ->
          check
            (List.for_all
               (fun x -> Int64.bits_of_float x = Int64.bits_of_float e)
               rest)
            "dag10k: energy differs between iterations";
          e
        | [] -> 0.0);
    peak_rss = Proc_stats.self_peak_rss_mb;
    finish = ignore;
    teardown = ignore;
    layers;
  }

(* The three batch workloads share inputs, iteration and checks; they
   differ in the executor, in what the store holds when a batch starts,
   and in the reference each row is checked against. *)
type batch_kind = Cold | Replay | Fleet_run

let batch_workload o kind =
  let jobs = ref [] in
  (* the lines every measured batch must reproduce: the replay's cold
     rows marked as hits, or a cold workload's first batch *)
  let expected = ref None in
  let rows_seen = ref [] and lines_seen = ref [||] in
  let replay_store = ref None in
  let fleet = ref None in
  let walls = ref [] in
  let binary =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      (Filename.concat "bin" "minpower.exe")
  in
  let shutdown_fleet () =
    Option.iter Fleet.shutdown !fleet;
    fleet := None
  in
  (* one closed-loop batch: submit, wait for every row, encode the rows
     as the JSONL a client receives *)
  let batch run =
    timed (fun () ->
        let rows = run () in
        (rows, Span.with_ "Job.row_to_json" (fun () -> encode rows)))
  in
  let in_process ~store () =
    Span.with_ "Service.run_batch" (fun () -> Service.run_batch ~store !jobs)
  in
  let setup () =
    jobs := batch_inputs o;
    if kind <> Fleet_run then warm_up ();
    match kind with
    | Cold -> ()
    | Replay ->
      let store = fresh_store o in
      let (rows, lines), _ = batch (in_process ~store) in
      check_rows ~what:"replay fill" ~cache_hit:false rows lines;
      replay_store := Some store;
      (* no idle pool during the replay: see [warm_up] *)
      Par.shutdown ();
      let as_hit (r : Job.row) = { r with Job.cache_hit = true } in
      expected := Some (encode (List.map as_hit rows))
    | Fleet_run ->
      let f =
        Span.with_ "Fleet.create" (fun () ->
            Fleet.create (Fleet.options ~binary ~workers:fleet_workers ()))
      in
      fleet := Some f;
      (* spawn and connect the workers outside the measured batches *)
      ignore
        (Fleet.run_batch f
           (List.init fleet_workers (fun i ->
                Job.make ~id:(Printf.sprintf "warmup%d" i) "s27")))
  in
  let one_batch () =
    let (rows, lines), dt =
      match (kind, !replay_store, !fleet) with
      | Replay, Some store, _ -> batch (in_process ~store)
      | Fleet_run, _, Some f ->
        let store = fresh_store o in
        batch (fun () ->
            Span.with_ "Fleet.run_batch" (fun () ->
                Fleet.run_batch f ~store !jobs))
      | _ -> batch (in_process ~store:(fresh_store o))
    in
    (* a cold batch must also repeat its first rows byte for byte *)
    check_rows ~what:o.workload ~cache_hit:(kind = Replay) ?expected:!expected
      rows lines;
    if !expected = None then expected := Some lines;
    rows_seen := rows;
    lines_seen := lines;
    dt
  in
  (* A replayed batch takes ~0.1 s, short enough that whether a major
     GC slice lands in it decides its time: one iteration averages
     [replay_group] back-to-back batches. *)
  let group = if kind = Replay then replay_group else 1 in
  let iterate ~traced:_ =
    let dt =
      List.fold_left ( +. ) 0.0 (List.init group (fun _ -> one_batch ()))
      /. float_of_int group
    in
    walls := dt :: !walls;
    dt
  in
  (* the fleet's rows must be byte-identical to the in-process batch's;
     that batch, timed into a fresh store, is also the base of
     fleet.overhead_s_per_job *)
  let inproc_wall = ref 0.0 in
  let finish () =
    (match kind with
    | Fleet_run ->
      Par.set_jobs par_jobs;
      let (rows, lines), dt = batch (in_process ~store:(fresh_store o)) in
      Par.set_jobs 1;
      inproc_wall := dt;
      check_rows ~what:"fleet vs in-process" ~cache_hit:false
        ~expected:!lines_seen rows lines
    | Cold | Replay -> ());
    shutdown_fleet ()
  in
  let layers l rows ~batches =
    let per name = Span_report.total rows name /. float_of_int batches in
    set l "activity.profile_s" (per "activity");
    set l "timing.proc1_s" (per "budgeting");
    set l "timing.budget_repair_s" (per "budget-repair");
    set l "core.prepare_s" (per "flow.prepare");
    set l "core.run_s" (per "optimize");
    set l "service.batch_s" (per "service.batch");
    let store =
      match !replay_store with Some s -> s | None -> fresh_store o
    in
    if kind <> Replay then
      (* the store the replays read: one holding every row *)
      List.iter
        (fun (r : Job.row) ->
          Option.iter (Store.put store r.Job.digest)
            (Job.outcome_to_store_json r.Job.outcome))
        !rows_seen;
    replay_service o l ~store !jobs !rows_seen;
    (match kind with
    | Cold ->
      (* the compute layers, replayed on one joint job per circuit (its
         first clock target) with a trial recorder *)
      let first_joint =
        List.filter_map
          (fun name ->
            List.find_opt
              (fun (j : Job.t) ->
                j.Job.circuit = name && j.Job.optimizer = "joint")
              !jobs)
          (circuits o)
      in
      List.iter
        (fun (j : Job.t) ->
          let config =
            Result.get_ok (Flow.config_of_json (Option.get j.Job.config))
          in
          let recorder = Telemetry.recorder () in
          let p, sol =
            optimize ~observer:(Telemetry.record recorder) ~config
              (Suite.find_exn j.Job.circuit)
          in
          let trials, feasible = trial_counts recorder in
          replay_compute l p sol ~trials ~feasible)
        first_joint;
      let replayed = Span_report.rows (Span.merged ()) in
      set l "core.finalize_s" (Span_report.total replayed "Scenario.finalize");
      finish_compute l ~search_s:(Span_report.total replayed "search")
    | Fleet_run ->
      let n = float_of_int (List.length !jobs) in
      set l "fleet.overhead_s_per_job" ((median !walls -. !inproc_wall) /. n)
    | Replay -> ())
  in
  {
    jobs_per_batch = List.length (batch_jobs o);
    batches_per_iteration = group;
    min_iterations = 1;
    setup;
    iterate;
    energy = (fun () -> row_energy_pj !rows_seen);
    peak_rss =
      (match kind with
      | Fleet_run -> Proc_stats.tree_peak_rss_mb
      | Cold | Replay -> Proc_stats.self_peak_rss_mb);
    finish;
    teardown = shutdown_fleet;
    layers;
  }

let workload_of o =
  match o.workload with
  | "dag10k" -> Some (dag10k o)
  | "iscas_batch" -> Some (batch_workload o Cold)
  | "iscas_replay" -> Some (batch_workload o Replay)
  | "iscas_fleet" -> Some (batch_workload o Fleet_run)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)

let print_env o =
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("env", Json.String "perfbench");
            ("workload", Json.String o.workload);
            ("seed", Json.Int o.seed);
            ("seconds", Json.Float o.seconds);
            ("trace", Json.Bool o.trace);
            ("reduced", Json.Bool o.reduced);
            ("nproc", Json.Int o.nproc);
            ("par_jobs", Json.Int (jobs_of o));
            ( "fleet_workers",
              Json.Int (if is_fleet o then fleet_workers else 0) );
            ("ocaml", Json.String Sys.ocaml_version);
            ("commit", Json.String o.commit);
          ]))

(* Set up [setup_reps] times; the median is setup_s. *)
let run_setup o w =
  median
    (List.init (setup_reps o.workload) (fun i ->
         if i > 0 then w.teardown ();
         snd (timed w.setup)))

let measure w ~traced ~seconds =
  repeat_for ~min:w.min_iterations ~seconds (fun () -> w.iterate ~traced)

let e2e_of w ~setup_s samples =
  let optimize_s = median samples in
  {
    optimize_s;
    jobs_per_s = float_of_int w.jobs_per_batch /. optimize_s;
    energy_pj = w.energy ();
    peak_rss_mb = w.peak_rss ();
    setup_s;
    samples;
  }

let run_untraced o w =
  let setup_s = run_setup o w in
  let samples = measure w ~traced:false ~seconds:o.seconds in
  let e = e2e_of w ~setup_s samples in
  w.finish ();
  print_e2e ~label:o.workload e;
  e2e_metrics e

let run_traced o w =
  let main_tid = (Domain.self () :> int) in
  (* set-up with tracing on, for the netlist spans *)
  Span.reset ();
  Span.set_enabled true;
  let setup_s = run_setup o w in
  Span.set_enabled false;
  let setup_rows = Span_report.rows (Span.merged ()) in
  let per_setup name =
    Span_report.total setup_rows name /. float_of_int (setup_reps o.workload)
  in
  let half = o.seconds /. 2.0 in
  let untraced = e2e_of w ~setup_s (measure w ~traced:false ~seconds:half) in
  (* the traced half: metrics and spans start from zero *)
  Metrics.reset ();
  Span.reset ();
  Span.set_enabled true;
  let samples = measure w ~traced:true ~seconds:half in
  let group = float_of_int w.batches_per_iteration in
  let traced_wall = group *. List.fold_left ( +. ) 0.0 samples in
  Span.set_enabled false;
  let spans = Span.merged () in
  let rows = Span_report.rows spans in
  let batches = List.length samples * w.batches_per_iteration in
  let traced = e2e_of w ~setup_s samples in
  let l : layers = Hashtbl.create 64 in
  List.iter (fun (name, _) -> set l name 0.0) layer_units;
  set l "netlist.generate_s"
    (per_setup "Generator.random_dag" +. per_setup "Suite.find");
  set l "netlist.parse_s" (per_setup "Bench_format.parse_string");
  let per_batch c = float_of_int (counter c) /. float_of_int batches in
  set l "par.tasks" (per_batch "par.tasks");
  set l "par.batches" (per_batch "par.batches");
  let latency = Metrics.histogram "service.latency" in
  if Metrics.count latency > 0 then begin
    set l "service.job_latency_p50_s" (Metrics.quantile latency 0.5);
    set l "service.job_latency_p90_s" (Metrics.quantile latency 0.9)
  end;
  let jobs = counter "service.jobs" in
  if jobs > 0 then
    set l "service.cache_hit_share"
      (float_of_int (counter "service.cache.hits") /. float_of_int jobs);
  set l "fleet.spawned" (float_of_int (counter "service.fleet.spawned"));
  set l "fleet.dispatched" (per_batch "service.fleet.dispatched");
  set l "fleet.requeues" (float_of_int (counter "service.fleet.requeued"));
  set l "fleet.lost" (float_of_int (counter "service.fleet.worker_lost"));
  let program_counters = nonzero_counters () in
  w.finish ();
  (* single-layer replays, traced on their own *)
  Span.reset ();
  Span.set_enabled true;
  w.layers l rows ~batches;
  Span.set_enabled false;
  let replay_rows = Span_report.rows (Span.merged ()) in
  set l "failed_share" (failed_share ());
  Printf.printf
    "\n%s traced run: %d batch(es), %.3f s traced wall (measured \
     batches, output checks excluded)\n"
    o.workload batches traced_wall;
  print_string (Span_report.render ~batches ~wall_s:traced_wall rows);
  Printf.printf
    "  coverage: the benchmark's top-level spans account for %.2f%% of the \
     traced wall time\n"
    (100.0
    *. Span_report.top_level_s ~tid:main_tid ~exclude:check_spans spans
    /. traced_wall);
  Printf.printf
    "  tracing overhead: optimize_s %+.6f s (traced %.6f, untraced %.6f), \
     jobs_per_s %+.6f 1/s (traced %.6f, untraced %.6f)\n"
    (traced.optimize_s -. untraced.optimize_s)
    traced.optimize_s untraced.optimize_s
    (traced.jobs_per_s -. untraced.jobs_per_s)
    traced.jobs_per_s untraced.jobs_per_s;
  Printf.printf "\n%s program counters, totals over the %d traced batch(es):\n"
    o.workload batches;
  List.iter
    (fun (name, v) -> Printf.printf "  %-36s %d\n" name v)
    program_counters;
  if replay_rows <> [] then begin
    Printf.printf "\n%s single-layer replays (not in the traced wall time):\n"
      o.workload;
    print_string (Span_report.render_calls replay_rows)
  end;
  if o.workload = "dag10k" then begin
    let get name = Hashtbl.find l name in
    let share x = 100.0 *. x /. traced.optimize_s in
    Printf.printf
      "  optimize_s split: timing.proc1_s %.3f s = %.1f%% (re-anchor ~60%%), \
       core.run_s %.3f s = %.1f%% (re-anchor ~40%%), rest of core.prepare_s \
       %.3f s = %.1f%%\n"
      (get "timing.proc1_s")
      (share (get "timing.proc1_s"))
      (get "core.run_s")
      (share (get "core.run_s"))
      (get "core.prepare_s" -. get "timing.proc1_s")
      (share (get "core.prepare_s" -. get "timing.proc1_s"))
  end;
  Printf.printf "\n%s per-layer metrics:\n" o.workload;
  List.map
    (fun (name, unit) ->
      let v = Hashtbl.find l name in
      Printf.printf "  %-30s %14.6g %s\n" name v unit;
      (name, unit, v))
    layer_units

let main () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0
  and trace = ref 0 and reduced = ref false
  and work_dir = ref "perfbench/_work/run"
  and nproc = ref 0 and commit = ref "unknown" in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME dag10k | iscas_batch | iscas_replay | iscas_fleet" );
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ( "--reduced",
        Arg.Set reduced,
        " self-test size: 1k-gate DAG, 3-circuit batch" );
      ("--work-dir", Arg.Set_string work_dir, "DIR scratch directory, removed");
      ("--nproc", Arg.Set_int nproc, "N CPUs available (recorded)");
      ("--commit", Arg.Set_string commit, "ID source revision (recorded)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let o =
    {
      workload = !workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      reduced = !reduced;
      work_dir = !work_dir;
      nproc = !nproc;
      commit = !commit;
    }
  in
  match workload_of o with
  | None ->
    Printf.eprintf "perfbench: unknown workload %S\n" o.workload;
    2
  | Some w ->
    Par.set_jobs (jobs_of o);
    rm_rf o.work_dir;
    mkdir_p o.work_dir;
    print_env o;
    let metrics =
      Fun.protect
        ~finally:(fun () -> rm_rf o.work_dir)
        (fun () -> if o.trace then run_traced o w else run_untraced o w)
    in
    print_endline (result_line metrics);
    if tally.failed = 0 then 0 else 1

let () = exit (main ())
