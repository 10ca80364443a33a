module Flow = Dcopt_core.Flow
module Optimizer = Dcopt_core.Optimizer
module Scenario = Dcopt_core.Scenario
module Sdc = Dcopt_timing.Sdc
module Constraints = Dcopt_timing.Constraints
module Diag = Dcopt_util.Diag
module Par = Dcopt_par.Par
module Metrics = Dcopt_obs.Metrics
module Span = Dcopt_obs.Span
module Clock = Dcopt_util.Clock
module Events = Dcopt_obs.Events
module Json = Dcopt_util.Json

let jobs_c = Metrics.counter ~help:"Jobs submitted to the service" "service.jobs"
let solved_c = Metrics.counter ~help:"Jobs that found a design" "service.solved"

let infeasible_c =
  Metrics.counter ~help:"Jobs whose optimizer closed no timing" "service.infeasible"

let failed_c =
  Metrics.counter ~help:"Jobs that failed after all retries" "service.failed"

let retries_c =
  Metrics.counter ~help:"Re-attempts after a crash or timeout" "service.retries"

let cache_hits_c =
  Metrics.counter ~help:"Jobs answered from the result store or an identical \
                         sibling" "service.cache.hits"

let cache_misses_c =
  Metrics.counter ~help:"Jobs that had to compute" "service.cache.misses"

let checkpoint_hits_c =
  Metrics.counter ~help:"Batch jobs resumed from a checkpoint directory"
    "service.checkpoint.hits"

let checkpoint_writes_c =
  Metrics.counter ~help:"Per-job batch checkpoints written"
    "service.checkpoint.writes"

let queue_depth_g =
  Metrics.gauge ~help:"Distinct computations scheduled by the running batch"
    "service.queue_depth"

let in_flight_g =
  Metrics.gauge ~help:"Worker domains occupied by the running batch"
    "service.in_flight"

let latency_h =
  Metrics.histogram ~help:"Per-job compute seconds (all attempts)"
    "service.latency"

let attempts_h =
  Metrics.histogram ~help:"Attempts per computed job" "service.attempts"

let wall_ns_h =
  Metrics.histogram ~help:"Per-job compute wall-clock nanoseconds"
    "service.job.wall_ns"

let alloc_bytes_h =
  Metrics.histogram
    ~help:"Per-job bytes allocated on the computing domain's minor+major heap"
    "service.job.alloc_bytes"

(* Monotonic batch sequence for the correlation chain: every run_batch —
   including each single-job batch a serve loop runs — gets a fresh id
   that all its events carry. *)
let batch_seq = Atomic.make 0

exception Timed_out

let resolve_circuit spec =
  if Sys.file_exists spec then
    try Ok (Dcopt_netlist.Bench_format.parse_file spec)
    with Dcopt_netlist.Bench_format.Parse_error { line; message } ->
      Error (Printf.sprintf "%s:%d: %s" spec line message)
  else Dcopt_suite.Suite.find spec

(* A job whose inputs all resolved: ready to digest and run. *)
type resolved = {
  optimizer : Optimizer.t;
  config : Flow.config;
  circuit : Dcopt_netlist.Circuit.t;
  constraints : Constraints.t option;
  corners : Scenario.corner list option;
  key : string;
  timeout_s : float option;
  retries : int;
}

let ( let* ) = Result.bind

let scenarios_schema_version = 1

(* The [scenarios] job field: both members optional, any resolution
   failure (unreadable/diagnosed SDC, bad corner entry) is a typed
   per-job error. *)
let resolve_scenarios circuit = function
  | None -> Ok (None, None)
  | Some sc ->
    let* () =
      match Json.get_obj sc with
      | None -> Error "scenarios: must be an object"
      | Some members ->
        List.fold_left
          (fun acc (name, _) ->
            let* () = acc in
            match name with
            | "version" | "sdc" | "corners" -> Ok ()
            | other ->
              Error (Printf.sprintf "scenarios: unknown field %S" other))
          (Ok ()) members
    in
    let* () =
      match Json.field "version" sc with
      | Some v when Json.get_int v = Some scenarios_schema_version -> Ok ()
      | Some _ -> Error "scenarios: unsupported schema version"
      | None -> Error "scenarios: missing \"version\""
    in
    let* constraints =
      match Json.field "sdc" sc with
      | None -> Ok None
      | Some v -> (
        match Json.get_string v with
        | None -> Error "scenarios: \"sdc\" must be a file path"
        | Some path -> (
          match Sdc.parse_file_checked ~circuit path with
          | Ok c -> Ok (Some c)
          | Error diags ->
            Error
              ("sdc: "
              ^ String.concat "; " (List.map Diag.to_string diags))))
    in
    let* corners =
      match Json.field "corners" sc with
      | None -> Ok None
      | Some v -> (
        match Scenario.corners_of_json v with
        | Ok ks -> Ok (Some ks)
        | Error msg -> Error msg)
    in
    Ok (constraints, corners)

(* A canonical scenario rendering for the store key — present only for
   jobs that carry a [scenarios] field, so scenario-less digests (and
   every cached pre-scenario row) are unchanged. *)
let scenario_digest_string constraints corners =
  let c_part =
    match constraints with
    | None -> "-"
    | Some c -> Json.to_string (Constraints.to_json c)
  in
  let k_part =
    match corners with
    | None -> "-"
    | Some ks -> Scenario.corners_digest_string ks
  in
  "scenario\n" ^ c_part ^ "\n" ^ k_part

let resolve_job (job : Job.t) =
  let* circuit = resolve_circuit job.Job.circuit in
  let* optimizer =
    match Optimizer.find job.Job.optimizer with
    | Some o -> Ok o
    | None ->
      Error
        (Printf.sprintf "unknown optimizer %S (known: %s)" job.Job.optimizer
           (String.concat ", " (Optimizer.names ())))
  in
  let* config =
    match job.Job.config with
    | None -> Ok Flow.default_config
    | Some overrides -> (
      match Flow.config_of_json overrides with
      | Ok c -> Ok c
      | Error msg -> Error ("config: " ^ msg))
  in
  let* constraints, corners = resolve_scenarios circuit job.Job.scenarios in
  let scenario =
    match job.Job.scenarios with
    | None -> None
    | Some _ -> Some (scenario_digest_string constraints corners)
  in
  let key =
    Store.digest ?scenario ~optimizer:optimizer.Optimizer.name ~config circuit
  in
  Ok
    {
      optimizer;
      config;
      circuit;
      constraints;
      corners;
      key;
      timeout_s = job.Job.timeout_s;
      retries = job.Job.retries;
    }

(* Store and checkpoint are both a Store holding one value format
   (Job); a document that exists but decodes to no outcome is a corrupt
   entry: a counted miss, never a crash. *)
let find_outcome st key =
  match Store.find st key with
  | None -> None
  | Some doc ->
    let outcome = Job.outcome_of_store_json doc in
    if Option.is_none outcome then Store.note_corrupt ();
    outcome

(* Failed outcomes are never persisted: a crash is worth retrying. *)
let persist st key outcome =
  Option.iter (Store.put st key) (Job.outcome_to_store_json outcome)

type computed = {
  comp_outcome : Job.outcome;
  comp_attempts : int;
  comp_latency_s : float;
  comp_wall_ns : int64;
  comp_alloc_bytes : float;
}

let outcome_status = function
  | Job.Solved _ -> "solved"
  | Job.Infeasible -> "infeasible"
  | Job.Failed _ -> "failed"

(* One computation, fully isolated: any exception out of prepare or the
   optimizer — including the cooperative [Timed_out] the injected
   observer raises past the deadline — is retried up to [retries] times
   and then recorded as [Failed]. Runs on a pool worker, so it touches
   only counters (atomic), spans (per-domain) and events (mutexed sink) —
   never gauges/histograms; elapsed time and allocation are measured here
   and folded into histograms after the pool barrier, on the main domain.
   Deadlines and elapsed time read the monotonic clock: a wall-clock step
   (NTP, an injected clock jump) must never time a job out.
   [Gc.allocated_bytes] is per-domain and a task never migrates, so the
   delta is this job's allocation (plus any event/span bookkeeping, which
   is noise at job scale). *)
let compute r =
  let t0 = Clock.monotonic_ns () in
  let alloc0 = Gc.allocated_bytes () in
  Events.info "job.start"
    ~fields:
      [
        ("optimizer", Json.String r.optimizer.Optimizer.name);
        ("digest", Json.String r.key);
      ];
  let attempts_allowed = r.retries + 1 in
  let rec go attempt =
    let deadline =
      match r.timeout_s with
      | None -> Int64.max_int
      | Some s ->
        Int64.add (Clock.monotonic_ns ()) (Int64.of_float (s *. 1e9))
    in
    let observer _it =
      if Int64.compare (Clock.monotonic_ns ()) deadline > 0 then raise Timed_out
    in
    match
      let p = Flow.prepare ~config:r.config ?constraints:r.constraints
          r.circuit in
      let s =
        match r.corners with
        | None -> Scenario.of_prepared p
        | Some corners -> Scenario.make ~corners p
      in
      r.optimizer.Optimizer.run ~observer s
    with
    | Some sol -> (Job.Solved sol, attempt)
    | None -> (Job.Infeasible, attempt)
    | exception e ->
      let error =
        match e with
        | Timed_out ->
          Printf.sprintf "timed out after %gs"
            (match r.timeout_s with Some s -> s | None -> 0.0)
        | e -> Printexc.to_string e
      in
      if attempt < attempts_allowed then begin
        Metrics.incr retries_c;
        Events.warn "job.retry"
          ~fields:
            [ ("attempt", Json.Int attempt); ("error", Json.String error) ];
        go (attempt + 1)
      end
      else (Job.Failed { error; attempts = attempt }, attempt)
  in
  let outcome, attempts =
    Span.with_ "service.job"
      ~args:[ ("optimizer", r.optimizer.Optimizer.name); ("digest", r.key) ]
      (fun () -> go 1)
  in
  let wall_ns = Int64.sub (Clock.monotonic_ns ()) t0 in
  let alloc_bytes = Gc.allocated_bytes () -. alloc0 in
  (match outcome with
  | Job.Failed { error; _ } ->
    Events.error "job.failed"
      ~fields:
        [ ("attempts", Json.Int attempts); ("error", Json.String error) ]
  | Job.Solved _ | Job.Infeasible ->
    Events.info "job.done"
      ~fields:
        [
          ("status", Json.String (outcome_status outcome));
          ("attempts", Json.Int attempts);
          ("wall_ns", Json.Int (Int64.to_int wall_ns));
          ("alloc_bytes", Json.Float alloc_bytes);
        ]);
  {
    comp_outcome = outcome;
    comp_attempts = attempts;
    comp_latency_s = Clock.ns_to_s wall_ns;
    comp_wall_ns = wall_ns;
    comp_alloc_bytes = alloc_bytes;
  }

let cacheable = function
  | Job.Solved _ | Job.Infeasible -> true
  | Job.Failed _ -> false

(* One distinct computation of a batch: the first occurrence of its
   digest, carrying that occurrence's job_id as its event-log identity.
   Executors receive these opaquely — enough to run the job locally
   ([compute_task]) or to ship it to a worker process ([task_job]) and
   match the answer back up ([task_digest]). *)
type task = { task_id : string; task_job : Job.t; task_res : resolved }

let task_id t = t.task_id
let task_digest t = t.task_res.key

let task_job t =
  (* ship the first occurrence's identity with the spec, so a worker
     process joins the coordinator's correlation chain under the same
     job_id that the coordinator's rows and events use *)
  { t.task_job with Job.id = Some t.task_id }

let compute_task ~batch_id t =
  Events.with_scope ~batch_id ~job_id:t.task_id @@ fun () ->
  compute t.task_res

let fresh_batch_id () = 1 + Atomic.fetch_and_add batch_seq 1

let job_id_at jobs i =
  match jobs.(i).Job.id with Some id -> id | None -> Printf.sprintf "job%d" i

type source = Store_hit | Checkpoint_hit

(* What a batch knows before computing anything: every job resolved,
   the distinct computations in first-occurrence order, and the outcomes
   the store and the checkpoint already hold for them (the store is
   asked first). [run_batch_via] and [partial_rows] both start here, so
   they agree on lookups and on cache_hit flags by construction. *)
type plan = {
  jobs : Job.t array;
  resolved : (resolved, string) result array;
  first_index : (string, int) Hashtbl.t;
  unique : task list;
  answered : (string, source * Job.outcome) Hashtbl.t;
  to_compute : task array;
}

let plan ?store ?checkpoint jobs =
  let jobs = Array.of_list jobs in
  let resolved = Array.map resolve_job jobs in
  (* first-occurrence order of each distinct digest; later identical
     jobs reuse the first one's outcome, so cache_hit flags and results
     never depend on scheduling. Each unique computation carries the
     job_id of its first occurrence as its event-log identity. *)
  let first_index = Hashtbl.create 16 in
  let unique = ref [] in
  Array.iteri
    (fun i r ->
      match r with
      | Ok r when not (Hashtbl.mem first_index r.key) ->
        Hashtbl.add first_index r.key i;
        unique :=
          { task_id = job_id_at jobs i; task_job = jobs.(i); task_res = r }
          :: !unique
      | _ -> ())
    resolved;
  let unique = List.rev !unique in
  let answered = Hashtbl.create 16 in
  let lookup source st pending =
    match st with
    | None -> pending
    | Some st ->
      List.filter
        (fun t ->
          match find_outcome st t.task_res.key with
          | Some outcome ->
            if source = Checkpoint_hit then Metrics.incr checkpoint_hits_c;
            Hashtbl.add answered t.task_res.key (source, outcome);
            false
          | None -> true)
        pending
  in
  let to_compute =
    unique |> lookup Store_hit store |> lookup Checkpoint_hit checkpoint
  in
  {
    jobs;
    resolved;
    first_index;
    unique;
    answered;
    to_compute = Array.of_list to_compute;
  }

(* Rows in job order, skipping jobs whose digest [outcome_of] does not
   know. The one cache_hit rule: a store hit, or a repeat of an
   identical job whose first occurrence produced a cacheable outcome. A
   checkpoint hit of a first occurrence reads cache-cold — a resumed
   batch must be byte-identical to the uninterrupted one, which
   computed that row. *)
let rows_of_plan p ~outcome_of =
  List.filter_map Fun.id
    (List.mapi
       (fun i (job : Job.t) ->
         let row ~digest ~cache_hit outcome =
           {
             Job.job_id = job_id_at p.jobs i;
             row_circuit = job.Job.circuit;
             row_optimizer = job.Job.optimizer;
             digest;
             cache_hit;
             outcome;
           }
         in
         match p.resolved.(i) with
         | Error msg ->
           Some
             (row ~digest:"" ~cache_hit:false
                (Job.Failed { error = msg; attempts = 0 }))
         | Ok r ->
           Option.map
             (fun outcome ->
               let store_hit =
                 match Hashtbl.find_opt p.answered r.key with
                 | Some (Store_hit, _) -> true
                 | _ -> false
               in
               let duplicate = Hashtbl.find p.first_index r.key <> i in
               row ~digest:r.key
                 ~cache_hit:(store_hit || (duplicate && cacheable outcome))
                 outcome)
             (outcome_of r.key))
       (Array.to_list p.jobs))

let answered_outcome p key = Option.map snd (Hashtbl.find_opt p.answered key)

(* The batch pipeline with the compute step abstracted out: resolution,
   dedup, store/checkpoint lookups, bookkeeping and row assembly all
   happen here (on the calling domain), and [execute] turns the deduped
   task array into one [computed] per task — by any means. The default
   executor is the in-process domain pool; the fleet executor ships
   tasks to worker processes. Rows depend only on what [execute]
   returns, never on how it scheduled — the byte-identity invariant
   across [--jobs]/[--workers] paths lives here. So does the checkpoint:
   [execute] reports each result through [on_result] as it lands, and
   this is the only code that writes or reads the checkpoint. *)
let run_batch_via ?store ?checkpoint ?batch_id ~execute jobs =
  Span.with_ "service.batch" @@ fun () ->
  let batch_id =
    match batch_id with Some id -> id | None -> fresh_batch_id ()
  in
  Events.with_scope ~batch_id @@ fun () ->
  Metrics.incr ~by:(List.length jobs) jobs_c;
  Events.info "batch.start" ~fields:[ ("jobs", Json.Int (List.length jobs)) ];
  let p = plan ?store ?checkpoint jobs in
  let store_hits = ref 0 and checkpoint_hits = ref 0 in
  List.iter
    (fun t ->
      let key = t.task_res.key in
      match Hashtbl.find_opt p.answered key with
      | None -> ()
      | Some (source, outcome) ->
        let event =
          match source with
          | Store_hit ->
            incr store_hits;
            "job.store_hit"
          | Checkpoint_hit ->
            incr checkpoint_hits;
            (* a resumed outcome is as good as a computed one: persist
               it to the warm store too *)
            Option.iter (fun st -> persist st key outcome) store;
            "job.checkpoint_hit"
        in
        Events.with_scope ~job_id:t.task_id (fun () ->
            Events.info event ~fields:[ ("digest", Json.String key) ]))
    p.unique;
  let to_compute = p.to_compute in
  Metrics.set queue_depth_g (float_of_int (Array.length to_compute));
  (* called from whichever domain or thread saw the result land, so a
     kill between here and the executor's barrier loses nothing already
     paid for *)
  let on_result t c =
    match checkpoint with
    | Some ck when cacheable c.comp_outcome ->
      persist ck t.task_res.key c.comp_outcome;
      Metrics.incr checkpoint_writes_c
    | _ -> ()
  in
  let computed = execute ~batch_id ~on_result to_compute in
  if Array.length computed <> Array.length to_compute then
    invalid_arg
      (Printf.sprintf "Service executor returned %d results for %d tasks"
         (Array.length computed) (Array.length to_compute));
  Metrics.set queue_depth_g 0.0;
  Metrics.set in_flight_g 0.0;
  (* post-batch bookkeeping, main domain only: histograms, store writes *)
  let by_key : (string, Job.outcome) Hashtbl.t = Hashtbl.create 16 in
  Array.iteri
    (fun i c ->
      let key = to_compute.(i).task_res.key in
      Metrics.observe latency_h c.comp_latency_s;
      Metrics.observe attempts_h (float_of_int c.comp_attempts);
      Metrics.observe wall_ns_h (Int64.to_float c.comp_wall_ns);
      Metrics.observe alloc_bytes_h c.comp_alloc_bytes;
      Option.iter (fun st -> persist st key c.comp_outcome) store;
      Hashtbl.replace by_key key c.comp_outcome)
    computed;
  let rows =
    rows_of_plan p ~outcome_of:(fun key ->
        match answered_outcome p key with
        | Some _ as o -> o
        | None -> Hashtbl.find_opt by_key key)
  in
  List.iter
    (fun (row : Job.row) ->
      Metrics.incr (if row.Job.cache_hit then cache_hits_c else cache_misses_c);
      Metrics.incr
        (match row.Job.outcome with
        | Job.Solved _ -> solved_c
        | Job.Infeasible -> infeasible_c
        | Job.Failed _ -> failed_c))
    rows;
  Events.info "batch.done"
    ~fields:
      [
        ("rows", Json.Int (List.length rows));
        ("computed", Json.Int (Array.length computed));
        ("store_hits", Json.Int !store_hits);
        ("checkpoint_hits", Json.Int !checkpoint_hits);
      ];
  rows

(* The default executor: the in-process domain pool. *)
let in_process_execute ~batch_id ~on_result tasks =
  Metrics.set in_flight_g
    (float_of_int (min (Par.jobs ()) (Array.length tasks)));
  Par.map ~site:"service"
    (fun t ->
      (* worker-side: the enclosing batch scope is domain-local, so the
         chain is re-established inside the task closure *)
      let c = compute_task ~batch_id t in
      on_result t c;
      c)
    tasks

let run_batch ?store ?checkpoint ?batch_id jobs =
  run_batch_via ?store ?checkpoint ?batch_id ~execute:in_process_execute jobs

(* The rows of a batch that are already answerable without computing
   anything: resolution failures, store hits, checkpoint hits, and
   repeats of those. This is the signal-handler path — an interrupted
   [minpower batch --checkpoint] emits these as its partial result, in
   job order, silently skipping jobs whose outcome is not on disk yet.
   Deliberately touches no batch counters/gauges — only the checkpoint
   and store read-side counters fire. *)
let partial_rows ?store ?checkpoint jobs =
  let p = plan ?store ?checkpoint jobs in
  rows_of_plan p ~outcome_of:(answered_outcome p)

let failed_line_row ~line_no error =
  {
    Job.job_id = Printf.sprintf "line%d" line_no;
    row_circuit = "";
    row_optimizer = "";
    digest = "";
    cache_hit = false;
    outcome = Job.Failed { error; attempts = 0 };
  }

(* Control requests ride the job protocol as bare words (a job line is
   always a JSON object, so the streams cannot collide):

     metrics  → OpenMetrics text; its own "# EOF" line is the framing,
                so a client reads until that marker
     status   → one JSON line with the service counters and gauges

   Both answer from the live registry mid-session, so a client watching
   a long serve process can poll between (or while queueing) jobs. *)
let serve_status_json () =
  Json.Obj
    [
      ("status", Json.String "ok");
      ("jobs", Json.Int (Metrics.value jobs_c));
      ("solved", Json.Int (Metrics.value solved_c));
      ("infeasible", Json.Int (Metrics.value infeasible_c));
      ("failed", Json.Int (Metrics.value failed_c));
      ("retries", Json.Int (Metrics.value retries_c));
      ("cache_hits", Json.Int (Metrics.value cache_hits_c));
      ("cache_misses", Json.Int (Metrics.value cache_misses_c));
      ("queue_depth", Json.Float (Metrics.gauge_value queue_depth_g));
      ("in_flight", Json.Float (Metrics.gauge_value in_flight_g));
    ]

let serve ?store ?run ic oc =
  let run_jobs =
    match run with Some f -> f | None -> fun jobs -> run_batch ?store jobs
  in
  let line_no = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr line_no;
       let trimmed = String.trim line in
       if trimmed <> "" then
         if trimmed.[0] <> '{' then begin
           (* bare word: a control request *)
           (match trimmed with
           | "metrics" -> output_string oc (Metrics.render_openmetrics ())
           | "status" ->
             output_string oc (Json.to_string (serve_status_json ()));
             output_char oc '\n'
           | other ->
             let row =
               failed_line_row ~line_no:!line_no
                 (Printf.sprintf
                    "unknown control request %S (known: metrics, status)"
                    other)
             in
             output_string oc (Json.to_string (Job.row_to_json row));
             output_char oc '\n');
           flush oc
         end
         else begin
           (* Any one bad line — unparsable JSON, a shape-invalid job, or
              an exception escaping the runner — answers as a failed row
              for that line and the session continues: a client can never
              take the serve loop down with a malformed frame. *)
           let rows =
             match Json.of_string line with
             | Error msg -> [ failed_line_row ~line_no:!line_no msg ]
             | Ok json -> (
               match Job.of_json json with
               | Error msg -> [ failed_line_row ~line_no:!line_no msg ]
               | Ok job -> (
                 try run_jobs [ job ]
                 with e ->
                   [
                     failed_line_row ~line_no:!line_no
                       ("internal error: " ^ Printexc.to_string e);
                   ]))
           in
           List.iter
             (fun row ->
               output_string oc (Json.to_string (Job.row_to_json row));
               output_char oc '\n')
             rows;
           flush oc
         end
     done
   with End_of_file -> ());
  flush oc

let serve_unix_socket ?store ?run path =
  if Sys.file_exists path then Sys.remove path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 8;
  Logs.app (fun m -> m "serving on unix socket %s" path);
  while true do
    let fd, _ = Unix.accept sock in
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    (* a dropped or misbehaving client ends its own session only; the
       accept loop survives anything a connection throws at it *)
    (try serve ?store ?run ic oc
     with Sys_error _ | Unix.Unix_error _ | End_of_file -> ());
    (* closing the out channel flushes and closes the shared fd *)
    close_out_noerr oc
  done
