(* End-to-end smoke for the multi-process fleet: the same 64-job batch
   through the in-process path, a 1-worker fleet, a 4-worker fleet, a
   3-worker fleet where one worker SIGKILLs itself mid-batch (the fault
   plan w1/worker.result@2:kill makes the crash deterministic: the job is
   fully computed, the result frame is never sent — the harshest loss
   the coordinator can take), and a 2-worker fleet writing a checkpoint
   directory that an in-process run then resumes from. Every run must
   produce byte-identical result rows, and the crash run must show the
   recovery machinery firing in its OpenMetrics exposition.

   argv.(1) is the minpower binary (the dune rule passes
   %{exe:../bin/minpower.exe}). *)

let minpower = Sys.argv.(1)

let fail fmt =
  Printf.ksprintf (fun m -> prerr_endline ("FAIL: " ^ m); exit 1) fmt

let jobs_path = "fleet_smoke_jobs.jsonl"

(* 64 jobs over 56 clock frequencies; jobs 58 and 61 repeat jobs 2 and
   5 exactly, so the fleet path is exercised against within-batch dedup
   too (duplicates must read as cache hits whatever worker computed the
   first occurrence). Returns the number of distinct jobs. *)
let write_jobs () =
  let oc = open_out jobs_path in
  let specs = Hashtbl.create 64 in
  for i = 0 to 63 do
    let fc = 150 + (i mod 56) in
    let optimizer = if i mod 3 = 0 then "baseline" else "joint" in
    Hashtbl.replace specs (fc, optimizer) ();
    Printf.fprintf oc
      "{\"id\":\"j%02d\",\"circuit\":\"s27\",\"optimizer\":\"%s\",\"config\":{\"clock_frequency\":%de6}}\n"
      i optimizer fc
  done;
  close_out oc;
  Hashtbl.length specs

(* run `minpower batch` with extra args; return the JSONL rows (stdout
   lines that are JSON objects — Logs lines like the OpenMetrics notice
   are not rows) *)
let run_batch ?(env = []) ~tag extra =
  let out_path = Printf.sprintf "fleet_smoke_%s.out" tag in
  let out_fd =
    Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let argv = Array.of_list ((minpower :: "batch" :: jobs_path :: extra)) in
  let environment =
    Array.append (Unix.environment ()) (Array.of_list env)
  in
  let pid =
    Unix.create_process_env minpower argv environment Unix.stdin out_fd
      Unix.stderr
  in
  Unix.close out_fd;
  (match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> fail "batch %s exited %d" tag n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> fail "batch %s got signal %d" tag n);
  let ic = open_in out_path in
  let rec go acc =
    match input_line ic with
    | line -> go (if String.length line > 0 && line.[0] = '{' then line :: acc else acc)
    | exception End_of_file -> List.rev acc
  in
  let rows = go [] in
  close_in ic;
  rows

(* the value of a `name value` sample line *)
let metric_value om_path name =
  let ic = open_in om_path in
  let prefix = name ^ " " in
  let rec go =
    function
    | () -> (
      match input_line ic with
      | line when String.length line > String.length prefix
                  && String.sub line 0 (String.length prefix) = prefix ->
        float_of_string
          (String.sub line (String.length prefix)
             (String.length line - String.length prefix))
      | _ -> go ()
      | exception End_of_file -> fail "%s has no sample %s" om_path name)
  in
  let v = go () in
  close_in ic;
  v

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let check_identical ~tag a b =
  if List.length a <> List.length b then
    fail "%s: %d rows vs %d" tag (List.length a) (List.length b);
  List.iteri
    (fun i (x, y) ->
      if x <> y then fail "%s: row %d differs:\n  %s\n  %s" tag i x y)
    (List.combine a b)

let () =
  ignore (Unix.alarm 300);
  let unique = write_jobs () in
  let baseline = run_batch ~tag:"inproc" [] in
  if List.length baseline <> 64 then
    fail "expected 64 rows, got %d" (List.length baseline);
  let w1 = run_batch ~tag:"w1" [ "--workers"; "1" ] in
  check_identical ~tag:"in-process vs 1 worker" baseline w1;
  let w4 = run_batch ~tag:"w4" [ "--workers"; "4" ] in
  check_identical ~tag:"in-process vs 4 workers" baseline w4;
  (* crash drill: worker w1 of 3 kills itself -9 in place of delivering
     its 2nd result; the coordinator must requeue its in-flight jobs
     onto the survivors and still produce the identical batch *)
  let om = "fleet_smoke_chaos.om" in
  let chaos =
    run_batch ~tag:"chaos"
      ~env:[ "DCOPT_FAULT_PLAN=w1/worker.result@2:kill" ]
      [ "--workers"; "3"; "--open-metrics"; om ]
  in
  check_identical ~tag:"in-process vs crashed fleet" baseline chaos;
  (* w1 is respawned mid-batch under the same id and the plan kills the
     replacement too (a fresh process, fresh occurrence count), so the
     exact loss/spawn totals depend on scheduling: at least one loss, at
     least the initial 3 spawns, and never more deaths than the
     quarantine budget (2) allows for w1 *)
  let lost = metric_value om "service_fleet_worker_lost_total" in
  if lost < 1.0 || lost > 2.0 then
    fail "expected 1..2 worker losses, saw %g" lost;
  if metric_value om "service_fleet_spawned_total" < 3.0 then
    fail "expected at least 3 spawns";
  (* the un-delivered job was in flight when the worker died, so at
     least one requeue is guaranteed *)
  if metric_value om "service_fleet_requeued_total" < 1.0 then
    fail "worker loss did not requeue anything";
  (* checkpoint leg: the fleet records one entry per unique job as
     results land, and an in-process run resumes every one of them *)
  let ckpt = "fleet_smoke_ckpt" in
  remove_tree ckpt;
  let fleet_ckpt =
    run_batch ~tag:"ckpt_fleet" [ "--workers"; "2"; "--checkpoint"; ckpt ]
  in
  check_identical ~tag:"in-process vs checkpointing fleet" baseline
    fleet_ckpt;
  let entries =
    List.length
      (List.filter
         (fun f -> Filename.check_suffix f ".json")
         (Array.to_list (Sys.readdir ckpt)))
  in
  if entries <> unique then
    fail "expected %d checkpoint entries (one per unique job), saw %d" unique
      entries;
  let om = "fleet_smoke_resume.om" in
  let resumed =
    run_batch ~tag:"ckpt_resume"
      [ "--checkpoint"; ckpt; "--open-metrics"; om ]
  in
  check_identical ~tag:"in-process vs resumed from fleet checkpoint" baseline
    resumed;
  let hits = metric_value om "service_checkpoint_hits_total" in
  if hits <> float_of_int unique then
    fail "expected %d checkpoint hits on resume, saw %g" unique hits;
  print_endline
    "fleet smoke: 64-job rows byte-identical across in-process, 1-worker, \
     4-worker, SIGKILL-crashed 3-worker and checkpoint-resumed runs; loss \
     and requeue counters fired"
