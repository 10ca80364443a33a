(* Resident-memory readings from /proc (Linux). *)

(* The "VmHWM" (peak resident set) line of /proc/<pid>/status, in MB;
   0 when the file or the line is missing (a process that already
   exited). *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> 0.0
          | line -> (
            match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
            | kb -> float_of_int kb /. 1024.0
            | exception (Scanf.Scan_failure _ | End_of_file | Failure _) ->
              scan ())
        in
        scan ())

let self_peak_rss_mb () = peak_rss_mb "self"

(* Pids of this process's live children, from every thread's
   /proc/self/task/<tid>/children list. *)
let children () =
  let tasks = try Sys.readdir "/proc/self/task" with Sys_error _ -> [||] in
  Array.to_list tasks
  |> List.concat_map (fun tid ->
         let path = Printf.sprintf "/proc/self/task/%s/children" tid in
         match In_channel.with_open_text path In_channel.input_all with
         | exception Sys_error _ -> []
         | text ->
           String.split_on_char ' ' (String.trim text)
           |> List.filter (fun s -> s <> ""))
  |> List.sort_uniq compare

(* Peak resident memory of this process plus every live child: the
   footprint of a workload whose compute runs in worker processes. *)
let tree_peak_rss_mb () =
  List.fold_left
    (fun acc pid -> acc +. peak_rss_mb pid)
    (self_peak_rss_mb ()) (children ())
