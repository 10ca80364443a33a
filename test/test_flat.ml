(* Differential tests of the data-oriented netlist core.

   The flat levelized analyzer (Flat_sta, C sweep kernels over the
   struct-of-arrays view) promises results bit-identical to the
   pointer-chasing reference (Sta) and independent of the parallel
   chunking (--jobs N byte-identical to --jobs 1). These tests hold it
   to that promise across the whole ISCAS suite and seeded random DAGs
   at 1k and 10k gates, do the same for the flat power sweeps
   (Power_model.evaluate at ~jobs:4 vs ~jobs:1), drive the incremental
   engine through a 200-move transaction/rollback sequence on a
   generated DAG, and check that an analysis leaves the sta.level.* /
   flat.alloc_bytes metrics populated. *)

module Circuit = Dcopt_netlist.Circuit
module Flat = Dcopt_netlist.Flat
module Generator = Dcopt_netlist.Generator
module Suite = Dcopt_suite.Suite
module Sta = Dcopt_timing.Sta
module Flat_sta = Dcopt_timing.Flat_sta
module Tech = Dcopt_device.Tech
module Activity = Dcopt_activity.Activity
module Power_model = Dcopt_opt.Power_model
module Incr = Dcopt_opt.Power_model.Incr
module Metrics = Dcopt_obs.Metrics
module Prng = Dcopt_util.Prng

(* Bitwise float comparison: stricter than (=), which conflates 0. with
   -0. and can never match NaN. The determinism contract is about the
   produced bytes, so that is what we compare. *)
let check_bits what expected got =
  if Int64.bits_of_float expected <> Int64.bits_of_float got then
    Alcotest.failf "%s: expected %.17g (%Lx) got %.17g (%Lx)" what expected
      (Int64.bits_of_float expected)
      got
      (Int64.bits_of_float got)

let check_array_bits what expected got =
  if Array.length expected <> Array.length got then
    Alcotest.failf "%s: length %d vs %d" what (Array.length expected)
      (Array.length got);
  Array.iteri
    (fun i e -> check_bits (Printf.sprintf "%s[%d]" what i) e got.(i))
    expected

let check_result_bits what (a : Sta.result) (b : Sta.result) =
  check_bits (what ^ " critical_delay") a.Sta.critical_delay
    b.Sta.critical_delay;
  check_array_bits (what ^ " arrival") a.Sta.arrival b.Sta.arrival;
  check_array_bits (what ^ " required") a.Sta.required b.Sta.required;
  check_array_bits (what ^ " slack") a.Sta.slack b.Sta.slack

let random_delays seed n =
  let rng = Prng.create seed in
  Array.init n (fun _ -> Prng.float rng 1e-9)

(* One circuit, one delay assignment: the flat analyzer must reproduce
   the pointer reference bit for bit, and must produce the same bytes
   whatever the job count / dispatch width. min_par_width:1 forces even
   narrow levels through the parallel dispatch path. *)
let check_circuit what c =
  let delays = random_delays 7L (Circuit.size c) in
  let f = Flat.of_circuit c in
  let reference = Sta.analyze c ~delays in
  let flat = Flat_sta.analyze f ~jobs:1 ~delays in
  check_result_bits (what ^ " flat vs pointer") reference flat;
  let par = Flat_sta.analyze f ~jobs:4 ~min_par_width:1 ~delays in
  check_result_bits (what ^ " jobs 4 vs jobs 1") flat par;
  (* an explicit deadline changes required/slack but not the identity *)
  let reference = Sta.analyze ~required_time:0.5e-9 c ~delays in
  let flat = Flat_sta.analyze ~required_time:0.5e-9 f ~jobs:1 ~delays in
  check_result_bits (what ^ " deadline flat vs pointer") reference flat

let test_suite_differential () =
  List.iter
    (fun (name, c) -> check_circuit name (Circuit.combinational_core c))
    (Suite.all ())

let generated seed gates =
  let d = Generator.default_dag ~name:"flatdiff" ~seed ~gates () in
  (match Generator.validate_dag d with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid dag spec: %s" e);
  Generator.random_dag d

let test_random_dag_differential () =
  check_circuit "dag-1k" (generated 11L 1_000);
  check_circuit "dag-10k" (generated 12L 10_000)

let tech = Tech.default
let fc = 300e6

let make_env core =
  let specs = Activity.uniform_inputs core ~probability:0.5 ~density:0.1 in
  let profile = Activity.local_profile core specs in
  Power_model.make_env ~tech ~fc core profile

let check_evaluation_bits what (a : Power_model.evaluation)
    (b : Power_model.evaluation) =
  check_bits (what ^ " static") a.Power_model.static_energy
    b.Power_model.static_energy;
  check_bits (what ^ " dynamic") a.Power_model.dynamic_energy
    b.Power_model.dynamic_energy;
  check_bits (what ^ " short-circuit") a.Power_model.short_circuit_energy
    b.Power_model.short_circuit_energy;
  check_bits (what ^ " total") a.Power_model.total_energy
    b.Power_model.total_energy;
  check_bits (what ^ " critical") a.Power_model.critical_delay
    b.Power_model.critical_delay;
  Alcotest.(check bool) (what ^ " feasible") a.Power_model.feasible
    b.Power_model.feasible;
  check_array_bits (what ^ " delays") a.Power_model.delays
    b.Power_model.delays

(* The parallel power sweep carries the same determinism contract as the
   timing sweeps: chunking only partitions the gate index space, and the
   totals are folded sequentially afterwards. *)
let test_evaluate_jobs_differential () =
  List.iter
    (fun (what, gates) ->
      let env = make_env (generated 21L gates) in
      let design =
        Power_model.uniform_design env ~vdd:(0.8 *. tech.Tech.vdd_max)
          ~vt:(0.5 *. (tech.Tech.vt_min +. tech.Tech.vt_max))
          ~w:4.0
      in
      let seq = Power_model.evaluate ~jobs:1 env design in
      let auto = Power_model.evaluate env design in
      let p4 = Power_model.evaluate ~jobs:4 ~min_par_width:1 env design in
      check_evaluation_bits (what ^ " default vs jobs:1") seq auto;
      check_evaluation_bits (what ^ " jobs:4 vs jobs:1") seq p4)
    [ ("pm-1k", 1_000); ("pm-10k", 10_000) ]

let check_rel what reference fast =
  let err =
    if reference = fast then 0.0
    else Float.abs (fast -. reference) /. Float.max 1e-300 (Float.abs reference)
  in
  if not (err <= 1e-9) then
    Alcotest.failf "%s: reference %.17g incr %.17g (rel err %g)" what reference
      fast err

let compare_incr_state what env inc =
  let e = Power_model.evaluate env (Incr.design inc) in
  check_rel (what ^ " total") e.Power_model.total_energy
    (Incr.total_energy inc);
  check_rel (what ^ " critical") e.Power_model.critical_delay
    (Incr.critical_delay inc)

(* 200 random width/vt moves on a generated 1k-gate DAG, grouped into
   transactions that randomly commit or roll back; after every commit
   and every rollback the engine must agree with a fresh full
   evaluation. This is test_incr's oracle pointed at the generator's
   DAGs instead of the hand-built/suite circuits. *)
let test_incr_on_generated_dag () =
  let env = make_env (generated 31L 1_000) in
  let design =
    Power_model.uniform_design env ~vdd:(0.8 *. tech.Tech.vdd_max)
      ~vt:(0.5 *. (tech.Tech.vt_min +. tech.Tech.vt_max))
      ~w:4.0
  in
  let inc = Incr.create env design in
  let gates = Power_model.gate_ids env in
  let rng = Prng.create 32L in
  let moves = 200 in
  let in_txn = ref 0 in
  for move = 1 to moves do
    let id = Prng.choose rng gates in
    (if Prng.bool rng then
       Incr.set_width inc id (Prng.uniform rng 1.0 16.0)
     else
       Incr.set_vt inc id
         (Prng.uniform rng tech.Tech.vt_min tech.Tech.vt_max));
    incr in_txn;
    (* close the transaction every few moves, half the time undoing it *)
    if !in_txn >= Prng.int rng 5 + 1 || move = moves then begin
      if Prng.bool rng then Incr.commit inc else Incr.rollback inc;
      in_txn := 0;
      compare_incr_state (Printf.sprintf "move %d" move) env inc
    end
  done

(* The analyzer must leave its footprints in the metrics registry: the
   pass counter advances per analysis and the flat-view gauges hold the
   sizes of the circuit just analyzed (main domain only, which tests
   are). *)
let test_metrics_presence () =
  let c = generated 41L 1_000 in
  let f = Flat.of_circuit c in
  let delays = random_delays 42L (Circuit.size c) in
  let passes = Metrics.counter "sta.level.passes" in
  let before = Metrics.value passes in
  ignore (Flat_sta.analyze f ~jobs:1 ~delays);
  let advanced = Metrics.value passes - before in
  if advanced < 1 then
    Alcotest.failf "sta.level.passes advanced by %d, expected >= 1" advanced;
  let expect_gauge name expected =
    let got = Metrics.gauge_value (Metrics.gauge name) in
    check_bits name expected got
  in
  expect_gauge "sta.level.depth" (float_of_int (Flat.depth f));
  expect_gauge "sta.level.max_width" (float_of_int (Flat.max_level_width f));
  expect_gauge "flat.alloc_bytes" (float_of_int (Flat.alloc_bytes f))

(* forward_into hands its arrays straight to the unchecked C kernel, so
   the OCaml wrapper's length validation is the only thing between a
   short array and heap corruption. *)
let test_forward_into_validates_lengths () =
  let c = generated 51L 100 in
  let f = Flat.of_circuit c in
  let n = Flat.size f in
  let delays = random_delays 52L n in
  let arrival = Array.make n 0.0 in
  let critical = Flat_sta.forward_into f ~jobs:1 ~delays ~arrival in
  let reference = Sta.analyze c ~delays in
  check_bits "forward_into critical" reference.Sta.critical_delay critical;
  let expect_invalid what thunk =
    match thunk () with
    | (_ : float) -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "short delays" (fun () ->
      Flat_sta.forward_into f ~jobs:1 ~delays:(Array.make (n - 1) 0.0) ~arrival);
  expect_invalid "short arrival" (fun () ->
      Flat_sta.forward_into f ~jobs:1 ~delays ~arrival:(Array.make (n - 1) 0.0))

let () =
  Alcotest.run "flat"
    [
      ( "differential",
        [
          Alcotest.test_case "suite circuits: flat == pointer" `Quick
            test_suite_differential;
          Alcotest.test_case "random DAGs 1k/10k: flat == pointer" `Quick
            test_random_dag_differential;
          Alcotest.test_case "evaluate jobs:4 == jobs:1" `Quick
            test_evaluate_jobs_differential;
          Alcotest.test_case "incremental engine on generated DAG" `Quick
            test_incr_on_generated_dag;
          Alcotest.test_case "forward_into validates array lengths" `Quick
            test_forward_into_validates_lengths;
        ] );
      ( "observability",
        [
          Alcotest.test_case "sta.level.* / flat.alloc_bytes metrics" `Quick
            test_metrics_presence;
        ] );
    ]
