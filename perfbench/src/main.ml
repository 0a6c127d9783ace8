(* The benchmark program: one workload per invocation.

     main.exe --workload certify|serve_read|serve_churn|compact
              --seed N --seconds S --trace 0|1 [--jobs J] [--ftr PATH]

   --jobs (default 1) is the checkers' domain count for the in-process
   workloads, at most the CPUs this process may use.

   Prints one line per metric and, last, the JSON result line. Exits 0
   when every answer checked out, 1 on any wrong answer, 2 on bad
   arguments. perfbench/run.py builds this and the ftr binary first. *)

open Ftrbench

let usage () =
  prerr_endline
    "usage: main.exe --workload certify|serve_read|serve_churn|compact --seed N \
     --seconds S --trace 0|1 [--jobs J] [--ftr PATH]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> parse ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  let int k ~default =
    match get k with None -> default | Some v -> ( match int_of_string_opt v with Some i -> i | None -> usage ())
  in
  let workload = match get "--workload" with Some w -> w | None -> usage () in
  if not (List.mem workload [ "certify"; "serve_read"; "serve_churn"; "compact" ]) then usage ();
  let seed = int "--seed" ~default:1 in
  let seconds = float_of_int (int "--seconds" ~default:10) in
  let trace = int "--trace" ~default:0 = 1 in
  let nproc = Cpu.count () in
  let jobs = int "--jobs" ~default:1 in
  let ftr = Option.value (get "--ftr") ~default:"_build/default/bin/ftr.exe" in
  if seconds <= 0.0 || jobs <= 0 || jobs > nproc then usage ();
  (* The serve workloads put the daemon and the load generator on one
     CPU; the in-process ones use one CPU per job. *)
  let cpus = match workload with "serve_read" | "serve_churn" -> 1 | _ -> jobs in
  let pinned = Cpu.pin cpus in
  Printf.printf "workload %s seed %d seconds %g jobs %d trace %b nproc %d pinned to %d cpu(s)%s\n%!"
    workload seed seconds jobs trace nproc cpus (if pinned then "" else " (pinning refused)");
  let run () =
    match workload with
    | "certify" -> Wl_certify.run ~seed ~seconds ~jobs ~trace
    | "compact" -> Wl_compact.run ~seed ~seconds ~jobs ~trace
    | "serve_read" -> Wl_serve.run ~ftr ~kind:Wl_serve.Read ~connections:(min 2 nproc) ~seed ~seconds ~trace
    | _ -> Wl_serve.run ~ftr ~kind:Wl_serve.Churn ~connections:(min 2 nproc) ~seed ~seconds ~trace
  in
  (* A daemon that dies mid-run must surface as a transport error, not
     kill this process before it prints its result. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit Daemon.kill_all;
  (try run () with
  | Failure msg | Client.Transport msg -> Report.wrong ("aborted: " ^ msg)
  | Unix.Unix_error (e, fn, arg) ->
      Report.wrong (Printf.sprintf "aborted: %s(%s): %s" fn arg (Unix.error_message e))
  | e -> Report.wrong ("aborted: " ^ Printexc.to_string e));
  Daemon.kill_all ();
  if trace then begin
    (try Unix.mkdir Daemon.work_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let path = Printf.sprintf "%s/spans-%s-%d.jsonl" Daemon.work_dir workload seed in
    Trace.write path;
    Printf.printf "spans written to %s\n" path
  end;
  exit (Report.print ~trace)
