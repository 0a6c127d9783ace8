open Ftr_core
module Wire = Ftr_serve.Wire
module Sjson = Ftr_serve.Sjson
module Engine = Ftr_serve.Engine
module Server = Ftr_serve.Server
module Admission = Ftr_serve.Admission
module Journal = Ftr_serve.Journal

type kind = Read | Churn

(* Fixed settings; perfbench/README.md lists them. *)
let max_queue = 4096
let open_rate = function Read -> 5000.0 | Churn -> 4000.0
(* Closed-loop replies per second measured when this benchmark was
   added; each slice's requests are generated beforehand, twice as
   many as this rate would use. *)
let closed_rate = function Read -> 42000.0 | Churn -> 28000.0
let ladder_base = function Read -> 2000.0 | Churn -> 1000.0
let ladder_step = 1.05
let ladder_rungs = 90
let slo_p99_ms = function Read -> 1.0 | Churn -> 2.0
let replayed = 20000

type ctx = {
  ftr : string;
  connections : int;
  kind : kind;
  seed : int;
  trace : bool;
  c : Construction.t;
  f0 : int list;  (** serve_read's fixed faults *)
  setups : (float * float) list ref;  (** spawn to ready, start and end *)
  targets : int list list;  (** the verdict fault sets *)
  verdict_replies : (int * float * float) list ref;
      (** client-observed diameter replies: fault set index, send and reply times *)
  verdict_svc : float list ref;  (** the daemon's service_ms *)
  first_slice : bool;
  shed_counted : int ref;  (** daemon-side shed counters, traced runs *)
}

let tag_name = function Read -> "read" | Churn -> "churn"

let is_shed line = Check.find_shed line

(* Check a log in send order through the reference; count failures
   when [counted] (the fixed-rate phases), always count wrong answers. *)
let validate ~counted chk (log : Client.log) routes =
  if counted then Report.attempt log.n;
  for i = 0 to log.n - 1 do
    let line = log.replies.(i) in
    if Float.is_nan log.answered.(i) then (if counted then Report.fail "no reply")
    else if is_shed line then (if counted then Report.fail ("shed: " ^ line))
    else begin
      (match log.ops.(i) with Wire.Route _ -> incr routes | _ -> ());
      match Check.observe chk log.ops.(i) line with
      | Ok () -> ()
      | Error e -> Report.wrong e
    end
  done

(* The daemon's command line, plus the journal and metrics files it
   will write (removed again when the lifetime ends). *)
let daemon_args ctx ~life ~traced =
  let file ext = Printf.sprintf "%s/%s-%d-%d.%s" Daemon.work_dir (tag_name ctx.kind) (Unix.getpid ()) life ext in
  let journal = match ctx.kind with Read -> None | Churn -> Some (file "journal") in
  let metrics = if ctx.trace && traced then Some (file "metrics.json") else None in
  let opt flag = function Some path -> [ flag; path ] | None -> [] in
  ( [ Gen.serve_spec; "-s"; "kernel"; "--max-queue"; string_of_int max_queue ]
    @ opt "--journal" journal @ opt "--metrics" metrics,
    journal,
    metrics )

let metrics_counter path name =
  match Sjson.parse (In_channel.with_open_text path In_channel.input_all) with
  | Ok j -> Option.bind (Option.bind (Sjson.member "counters" j) (Sjson.member name)) Sjson.to_int
  | Error _ -> None
  | exception Sys_error _ -> None

(* One control request on the probe connection, checked like any
   other. *)
let control chk probe req =
  match Check.observe chk req (Client.call probe req) with Ok () -> () | Error e -> Report.wrong e

(* The daemon's verdict op, one request at a time on an otherwise idle
   daemon, over a fixed list of in-budget fault sets, the same in every
   run whatever the seed: a diameter's cost depends on the fault set,
   so seeded sets would make the time a property of the seed. Bursts run at
   three points of every lifetime (before, between and after its load
   slices); each visits every set (the deltas that reach it, then
   [per_set] diameter requests) and restores the faults it found.
   [verdict_s] sums, over the sets, the fastest scaled reply of each:
   the same diameter on the same set takes either about 190 or about
   330 us, in spells that last from a few requests to several bursts
   and that the host speed probes do not see, so a median would fall
   on either side from run to run. *)
let verdict_sets = 8
let per_set = 3

let verdict_targets (c : Construction.t) =
  let n = Ftr_graph.Graph.n (Routing.graph c.routing) in
  let rng = Random.State.make [| 0xD1 |] in
  let k = Gen.fault_budget c in
  List.init verdict_sets (fun _ ->
      let target = ref [] in
      while List.length !target < k do
        let v = Random.State.int rng n in
        if not (List.mem v !target) then target := v :: !target
      done;
      !target)

let verdict_burst ctx chk probe =
  Calib.probe ();
  let move_to target =
    let current = Engine.node_faults (Check.engine chk) in
    List.iter (fun v -> if not (List.mem v target) then control chk probe (Wire.Fault (Wire.Recover_node v))) current;
    List.iter (fun v -> if not (List.mem v current) then control chk probe (Wire.Fault (Wire.Fail_node v))) target
  in
  let original = Engine.node_faults (Check.engine chk) in
  List.iteri
    (fun set target ->
      move_to target;
      let replies =
        Cpu.during_load (fun () ->
            List.init per_set (fun _ ->
                let t0 = Clock.now () in
                let r = Client.call probe Wire.Diameter in
                (r, t0, Clock.now ())))
      in
      List.iter
        (fun (r, t0, t1) ->
          Report.attempt 1;
          ctx.verdict_replies := (set, t0, t1) :: !(ctx.verdict_replies);
          Option.iter (fun s -> ctx.verdict_svc := s :: !(ctx.verdict_svc)) (snd (Check.strip_service r));
          match Check.observe chk Wire.Diameter r with Ok () -> () | Error e -> Report.wrong e)
        replies)
    ctx.targets;
  move_to original;
  Calib.probe ()

(* [verdict_s]: over the fixed sets, the sum of each set's fastest
   reply, every reply scaled by [scale]. *)
let verdict_s ctx ~scale =
  List.init verdict_sets (fun set ->
      List.fold_left
        (fun acc (k, t0, t1) -> if k = set then Float.min acc (scale t0 t1) else acc)
        Float.infinity !(ctx.verdict_replies))
  |> List.fold_left ( +. ) 0.0

let life_serial = ref 0

(* One daemon lifetime: spawn (timed into setup_s), install the fixed
   faults, run [body], read the daemon's peak RSS, then check the
   closing stats/health against the reference and drain it. Returns
   the body's result and that RSS. The RSS is read before the closing
   check: a stats reply copies the daemon's whole latency window into
   a list and sorts it, which raised the high-water mark by 4 to 8 MB
   depending on where the GC cycle stood, and that check is the
   benchmark's, not part of the workload. *)
let lifetime ?(traced = true) ctx body =
  incr life_serial;
  let life = !life_serial in
  let args, journal, metrics = daemon_args ctx ~life ~traced in
  Calib.probe ();
  let t0 = Clock.now () in
  let d = Daemon.spawn ~ftr:ctx.ftr args in
  ctx.setups := (t0, t0 +. Daemon.setup_s d) :: !(ctx.setups);
  Calib.probe ();
  let chk = Check.create ctx.c in
  let probe = Daemon.probe d in
  List.iter (fun v -> control chk probe (Wire.Fault (Wire.Fail_node v))) ctx.f0;
  verdict_burst ctx chk probe;
  let routes = ref 0 in
  let conns = Array.init ctx.connections (fun _ -> Client.connect (Daemon.socket d)) in
  let result = body d chk conns routes in
  let rss = Proc.peak_rss_mb (Daemon.pid d) in
  let stats = Client.call probe Wire.Stats and health = Client.call probe Wire.Health in
  Report.attempt 1;
  (match Check.final chk ~stats ~health ~routes:!routes with Ok () -> () | Error e -> Report.wrong e);
  Array.iter Client.close conns;
  Daemon.drain d;
  Option.iter
    (fun path ->
      let get n = Option.value (metrics_counter path n) ~default:0 in
      ctx.shed_counted := !(ctx.shed_counted) + get "serve.admission.shed_queue" + get "serve.admission.shed_deadline")
    metrics;
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) (Option.to_list journal @ Option.to_list metrics);
  (result, rss)

let stream ctx ~tag =
  match ctx.kind with
  | Read -> Gen.read_stream ~seed:ctx.seed ~tag ctx.c ~faults:ctx.f0
  | Churn -> Gen.churn_stream ~seed:ctx.seed ~tag ctx.c

(* Return the daemon (and reference) to serve_churn's starting state:
   no node, link or gray faults. *)
let reset_faults chk probe =
  let eng = Check.engine chk in
  let undo =
    List.map (fun v -> Wire.Recover_node v) (Engine.node_faults eng)
    @ List.map (fun (u, v) -> Wire.Recover_link (u, v)) (Engine.link_faults eng)
    @ List.map (fun (u, v, _) -> Wire.Restore_link (u, v)) (Engine.degraded_links eng)
  in
  List.iter (fun a -> control chk probe (Wire.Fault a)) undo

let ms x = x *. 1000.0

let service log i = snd (Check.strip_service log.Client.replies.(i))

(* Latencies (from due time) of the answered ops satisfying [p], in
   ms; with [scale], each scaled to the reference host. *)
let latencies ?(scale = fun t0 t1 -> t1 -. t0) (log : Client.log) p =
  let acc = ref [] in
  for i = log.n - 1 downto 0 do
    if p log.ops.(i) && not (Float.is_nan log.answered.(i)) then
      acc := ms (scale log.due.(i) log.answered.(i)) :: !acc
  done;
  Array.of_list !acc

let is_route = function Wire.Route _ -> true | _ -> false

(* The fixed-rate open loop: serve_churn keeps one connection so the
   daemon applies its deltas in stream order. *)
let open_conns ctx conns = match ctx.kind with Read -> conns | Churn -> [| conns.(0) |]

(* Client-side spans, one per request of a load phase (name, due time
   to reply, request id = stream index), added after the phase so the
   load itself runs untouched; only for the first lifetime's slices,
   which keeps the span file to some tens of thousands of lines. *)
let record_requests ctx name (log : Client.log) =
  if ctx.first_slice then
    Trace.span name (fun () ->
        for i = 0 to log.n - 1 do
          if not (Float.is_nan log.answered.(i)) then
            Trace.record ~req:i "client.request" log.due.(i) log.answered.(i)
        done)

(* The open loop runs in chunks of about this many seconds of its
   schedule, with a host speed probe between them; every request is
   still timed from its own due time. *)
let open_chunk_s = 0.2

let open_phase ctx d chk conns routes ~tag ~duration ~probe =
  let rate = open_rate ctx.kind in
  let count = max 1 (int_of_float (rate *. duration)) in
  let s = stream ctx ~tag in
  let ops = Array.init count (fun _ -> Gen.next s) in
  let due = Gen.arrivals ~seed:ctx.seed ~tag ~rate ~count in
  let probe = if probe then Some (Client.connect (Daemon.socket d), 0.005) else None in
  let logs = ref [] and depth_max = ref (-1) and i = ref 0 in
  while !i < count do
    let start = due.(!i) in
    let j = ref !i in
    while !j < count && due.(!j) < start +. open_chunk_s do
      incr j
    done;
    let sub = Array.sub ops !i (!j - !i) and sub_due = Array.init (!j - !i) (fun k -> due.(!i + k) -. start) in
    Calib.probe ();
    let r = Cpu.during_load (fun () -> Client.open_loop ?probe (open_conns ctx conns) ~ops:sub ~due:sub_due) in
    logs := r.log :: !logs;
    depth_max := max !depth_max r.depth_max;
    i := !j
  done;
  Calib.probe ();
  Option.iter (fun (p, _) -> Client.close p) probe;
  let log = Client.concat (List.rev !logs) in
  validate ~counted:true chk log routes;
  record_requests ctx "client.open_loop" log;
  (log, !depth_max, ops)

(* A closed-loop slice, run in sub-slices of this many seconds with a
   host speed probe between them: the start and last reply of each
   sub-slice, the daemon's CPU share over the sub-slices and the
   replies counted. *)
let closed_sub_s = 0.1

type closed = { busy : (float * float) list; cpu_share : float; replies : int }

let closed_phase ctx d chk conns routes ~tag ~duration =
  let s = stream ctx ~tag in
  let ops = Array.init (int_of_float (2.0 *. closed_rate ctx.kind *. duration)) (fun _ -> Gen.next s) in
  let cpu0 = Proc.cpu_seconds (Daemon.pid d) in
  let k = ref 0 and wall = ref 0.0 and busy = ref [] and logs = ref [] in
  while !wall < duration && !k < Array.length ops do
    Calib.probe ();
    let t0 = Clock.now () in
    let log, next =
      Cpu.during_load (fun () ->
          Client.closed_loop conns ~ops ~from:!k ~duration:(Float.min closed_sub_s (duration -. !wall)))
    in
    wall := !wall +. (Clock.now () -. t0);
    k := next;
    let last = ref t0 in
    for i = 0 to log.n - 1 do
      if not (Float.is_nan log.answered.(i)) then last := Float.max !last log.answered.(i)
    done;
    busy := (t0, !last) :: !busy;
    logs := log :: !logs
  done;
  (* The daemon idles while the probes run, so its CPU time over the
     whole phase is its CPU time over the sub-slices. *)
  let cpu = Proc.cpu_seconds (Daemon.pid d) -. cpu0 in
  if !k = Array.length ops then
    Report.info (Printf.sprintf "closed loop: all %d generated requests sent before the slice ended" !k);
  let log = Client.concat (List.rev !logs) in
  validate ~counted:true chk log routes;
  record_requests ctx "client.closed_loop" log;
  Calib.probe ();
  { busy = !busy; cpu_share = cpu /. !wall; replies = log.n }

(* One ladder rung at [rate]: pass when no request failed, route p99
   stays within the limit, and the backlog did not grow. *)
let rung ctx d chk conns routes k ~duration =
  let rate = ladder_base ctx.kind *. (ladder_step ** float_of_int k) in
  let count = max 1500 (int_of_float (rate *. duration)) in
  if ctx.kind = Churn then reset_faults chk (Daemon.probe d);
  let s = stream ctx ~tag:(100 + k) in
  let ops = Array.init count (fun _ -> Gen.next s) in
  let due = Gen.arrivals ~seed:ctx.seed ~tag:(100 + k) ~rate ~count in
  let r = Cpu.during_load (fun () -> Client.open_loop (open_conns ctx conns) ~ops ~due) in
  let failures = ref 0 in
  for i = 0 to r.log.n - 1 do
    if Float.is_nan r.log.answered.(i) || is_shed r.log.replies.(i) then incr failures
  done;
  validate ~counted:false chk r.log routes;
  let p99 = Pct.percentile (latencies r.log is_route) 99.0 in
  let growth = r.backlog_end - r.backlog_mid in
  let ok =
    !failures = 0
    && (match p99 with Some p -> p <= slo_p99_ms ctx.kind | None -> false)
    && float_of_int growth <= Float.max 16.0 (rate *. 0.001)
  in
  Report.info
    (Printf.sprintf "  rung %2d  %8.0f/s  p99 %s ms  backlog %d -> %d  failed %d  %s" k rate
       (match p99 with Some p -> Printf.sprintf "%.3f" p | None -> "n/a")
       r.backlog_mid r.backlog_end !failures
       (if ok then "pass" else "FAIL"));
  ok

(* Bisection over the fixed rung list (assumes a rung passes only if
   every lower one would): about log2(ladder_rungs) rungs are run. *)
let ladder ctx d chk conns routes ~budget =
  let duration = budget /. 7.0 in
  let lo = ref (-1) and hi = ref (ladder_rungs + 1) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if rung ctx d chk conns routes mid ~duration then lo := mid else hi := mid
  done;
  if !lo < 0 then 0.0 else ladder_base ctx.kind *. (ladder_step ** float_of_int !lo)

(* The serve layer split: the same request lines replayed in-process
   through parse -> admission -> handle -> print, with spans around
   each public call; serve_churn's deltas go through validate ->
   Journal.append -> Engine.apply, as the daemon's handler does. *)
let replay ctx ops =
  let c = Trace.span "construction.build" (fun () -> Gen.build_kernel Gen.serve_spec) in
  let eng = Trace.span "surviving.compile" (fun () -> Engine.create c.routing) in
  List.iter (fun v -> ignore (Engine.apply eng (Wire.Fail_node v))) ctx.f0;
  let bound = Construction.bound_for c ~f:(Gen.fault_budget c) in
  let srv = Server.create { Server.max_queue; deadline = 0.0; bound } eng in
  let adm = Admission.create { Admission.max_queue; deadline = 0.0 } in
  let jpath = Printf.sprintf "%s/replay-%d.journal" Daemon.work_dir (Unix.getpid ()) in
  (try Sys.remove jpath with Sys_error _ -> ());
  let journal = match ctx.kind with Churn -> Some (Result.get_ok (Journal.create jpath)) | Read -> None in
  let handle_self = ref [] and bytes = ref [] in
  Array.iteri
    (fun i op ->
      let line = Wire.request_to_line op in
      Trace.span ~req:i "replay.request" (fun () ->
          let req = Trace.span ~req:i "wire.parse" (fun () -> Wire.request_of_line line) in
          let req =
            Trace.span ~req:i "serve.admission" (fun () ->
                match req with
                | Error e -> failwith ("replay: " ^ e)
                | Ok req -> (
                    ignore (Admission.offer adm ~now:0.0 req);
                    match Admission.take adm ~now:0.0 with
                    | Some (`Serve r) -> r
                    | _ -> failwith "replay: admission lost a request"))
          in
          match req with
          | Wire.Fault a -> (
              match Engine.validate eng a with
              | Error _ -> ()
              | Ok () ->
                  Option.iter (fun j -> Trace.span ~req:i "journal.append" (fun () -> Journal.append j a)) journal;
                  ignore (Trace.span ~req:i "engine.apply" (fun () -> Engine.apply eng a)))
          | req ->
              let t0 = Clock.now () in
              let reply = Trace.span ~req:i "server.handle" (fun () -> Server.handle srv req) in
              let t1 = Clock.now () in
              let s = Trace.span ~req:i "sjson.print" (fun () -> Sjson.to_string reply) in
              (match (req, Option.bind (Sjson.member "service_ms" reply) Sjson.to_float) with
              | Wire.Route _, Some svc ->
                  handle_self := (t1 -. t0 -. (svc /. 1000.0)) :: !handle_self;
                  bytes := float_of_int (String.length s) :: !bytes
              | _ -> ())))
    (Array.sub ops 0 (min replayed (Array.length ops)));
  Option.iter Journal.close journal;
  (try Sys.remove jpath with Sys_error _ -> ());
  (Array.of_list !handle_self, Array.of_list !bytes)

let us_median name = Pct.median (Trace.durations name) *. 1e6

let run ~ftr ~kind ~connections ~seed ~seconds ~trace =
  let c = Gen.build_kernel Gen.serve_spec in
  let f0 = match kind with Read -> Gen.read_faults ~seed c | Churn -> [] in
  let ctx =
    {
      ftr;
      connections;
      kind;
      seed;
      trace;
      c;
      f0;
      setups = ref [];
      targets = verdict_targets c;
      verdict_replies = ref [];
      verdict_svc = ref [];
      first_slice = false;
      shed_counted = ref 0;
    }
  in
  let lifetimes = 5 in
  let closed_s = 0.35 *. seconds /. float_of_int lifetimes in
  let open_s = 0.4 *. seconds /. float_of_int lifetimes in
  (* A plain closed loop first in traced runs, for the overhead. *)
  let plain_qps =
    if trace then
      Some
        (fst
           (lifetime ~traced:false ctx (fun d chk conns routes ->
                let c = closed_phase { ctx with trace = false } d chk conns routes ~tag:1 ~duration:closed_s in
                float_of_int c.replies /. List.fold_left (fun acc (t0, t1) -> acc +. (t1 -. t0)) 0.0 c.busy)))
    else None
  in
  Trace.set_enabled trace;
  (* Every lifetime runs a closed-loop and an open-loop slice, so each
     figure samples the host across the whole run. serve_churn returns
     to no faults before the open loop, whose stream starts there. *)
  let slices =
    List.init lifetimes (fun l ->
        let ctx = { ctx with first_slice = l = 0 } in
        lifetime ctx (fun d chk conns routes ->
            let probe = Daemon.probe d in
            let closed = closed_phase ctx d chk conns routes ~tag:(10 + l) ~duration:closed_s in
            if kind = Churn then reset_faults chk probe;
            verdict_burst ctx chk probe;
            let opened = open_phase ctx d chk conns routes ~tag:(20 + l) ~duration:open_s ~probe:(trace && l = 0) in
            if kind = Churn then reset_faults chk probe;
            verdict_burst ctx chk probe;
            (closed, opened)))
  in
  let slo_qps =
    if trace then fst (lifetime ctx (fun d chk conns routes -> ladder ctx d chk conns routes ~budget:(0.3 *. seconds)))
    else 0.0
  in
  let closeds = List.map (fun ((c, _), _) -> c) slices in
  let over f = Array.of_list (List.map f closeds) in
  let busy = List.concat_map (fun c -> c.busy) closeds in
  let closed_n = List.fold_left (fun acc c -> acc + c.replies) 0 closeds in
  let busy_sum f = List.fold_left (fun acc (t0, t1) -> acc +. f t0 t1) 0.0 busy in
  let qps = float_of_int closed_n /. busy_sum (fun t0 t1 -> t1 -. t0) in
  let cpu_share = Pct.median (over (fun c -> c.cpu_share)) in
  let rss = Pct.median (Array.of_list (List.map snd slices)) in
  let opens = List.map (fun ((_, o), _) -> o) slices in
  let depth_max = List.fold_left (fun acc (_, d, _) -> max acc d) 0 opens in
  let all f = Array.concat (List.map (fun (log, _, _) -> f log) opens) in
  let route_ms = all (fun log -> latencies log is_route) in
  let scaled_ms = all (fun log -> latencies ~scale:Calib.scale log is_route) in
  let write_ms = all (fun log -> latencies log Gen.is_write) in
  let samples = Printf.sprintf "(%d route queries, open loop at %.0f/s)" (Array.length route_ms) (open_rate kind) in
  let setups = Array.of_list !(ctx.setups) in
  Report.info
    (Printf.sprintf "host: %d speed probes, slowdown %.3f; unscaled: setup_s %.4f verdict_s %.6f qps %.0f p50_ms %.5f"
       (Calib.samples ()) (Calib.overall ())
       (Pct.median (Array.map (fun (t0, t1) -> t1 -. t0) setups))
       (verdict_s ctx ~scale:(fun t0 t1 -> t1 -. t0))
       qps (Pct.median route_ms));
  Report.set ~note:(Printf.sprintf "(median of %d daemon spawns to ready)" (Array.length setups)) "setup_s"
    (Pct.median (Array.map (fun (t0, t1) -> Calib.scale t0 t1) setups));
  Report.set
    ~note:
      (Printf.sprintf "(%d fixed fault sets, each at its fastest of %d diameter replies)" verdict_sets
         (List.length !(ctx.verdict_replies) / verdict_sets))
    "verdict_s" (verdict_s ctx ~scale:Calib.scale);
  Report.set
    ~note:(Printf.sprintf "(closed loop, %d connections, %d replies over %d slices)" ctx.connections closed_n lifetimes)
    "qps" (float_of_int closed_n /. busy_sum Calib.scale);
  Report.set ~note:samples "p50_ms" (Pct.median scaled_ms);
  Report.tail ~note:samples route_ms;
  Report.set ~note:(Printf.sprintf "(VmHWM of the daemon after its load, before the closing check; median of %d)" lifetimes) "peak_rss_mb" rss;
  Report.set ~note:samples "latency.samples" (float_of_int (Array.length route_ms));
  Report.set ~note:(Printf.sprintf "(%d fault ops)" (Array.length write_ms)) "serve.write_p99_ms"
    (Option.value (Pct.percentile write_ms 99.0) ~default:0.0);
  Report.set
    ~note:(Printf.sprintf "(route p99 <= %g ms, rungs x%.2f from %.0f/s; traced runs only)" (slo_p99_ms kind) ladder_step (ladder_base kind))
    "serve.slo_qps" slo_qps;
  let log = Client.concat (List.map (fun (log, _, _) -> log) opens) in
  let open_ops = (fun (_, _, ops) -> ops) (List.hd opens) in
  let modes = Hashtbl.create 4 in
  for i = 0 to log.n - 1 do
    if is_route log.ops.(i) then begin
      let m = match Check.mode log.replies.(i) with `Routed -> "routed" | `Detour -> "detour" | `Unreachable -> "unreachable" | `Other -> "other" in
      Hashtbl.replace modes m (1 + Option.value (Hashtbl.find_opt modes m) ~default:0)
    end
  done;
  Report.info
    ("open-loop route answers: "
    ^ String.concat ", "
        (List.map (fun m -> Printf.sprintf "%s %d" m (Option.value (Hashtbl.find_opt modes m) ~default:0))
           [ "routed"; "detour"; "unreachable"; "other" ]));
  let lateness = Array.init log.n (fun i -> ms (log.sent.(i) -. log.due.(i))) in
  Report.set "client.late_ms" (Pct.percentile_any lateness 99.0);
  if trace then begin
    let svc = ref [] and transport = ref [] and routes = ref 0 and detours = ref 0 in
    for i = 0 to log.n - 1 do
      match (log.ops.(i), service log i) with
      | Wire.Route _, Some s ->
          incr routes;
          if Check.mode log.replies.(i) = `Detour then incr detours;
          svc := (s *. 1000.0) :: !svc;
          transport := (((log.answered.(i) -. log.sent.(i)) *. 1e6) -. (s *. 1000.0)) :: !transport
      | _ -> ()
    done;
    let svc = Array.of_list !svc in
    Report.set "engine.route_us_p50" (Pct.median svc);
    Report.set "engine.route_us_p99" (Pct.percentile_any svc 99.0);
    Report.set "transport_us_p50" (Pct.median (Array.of_list !transport));
    Report.set "engine.detour_share" (float_of_int !detours /. float_of_int (max 1 !routes));
    Report.set "engine.diameter_us" (Pct.median (Array.of_list !(ctx.verdict_svc)) *. 1000.0);
    Report.set "daemon.cpu_share" cpu_share;
    Report.set "admission.depth_max" (float_of_int (max 0 depth_max));
    Report.set "admission.shed" (float_of_int !(ctx.shed_counted));
    let handle_self, bytes = replay ctx open_ops in
    Report.set "construction.build_ms" (Trace.total "construction.build" *. 1000.0);
    Report.set "surviving.compile_ms" (Trace.total "surviving.compile" *. 1000.0);
    Report.set "wire.parse_us" (us_median "wire.parse");
    Report.set "sjson.print_us" (us_median "sjson.print");
    Report.set "server.handle_self_us" (Pct.median handle_self *. 1e6);
    Report.set "reply.bytes" (Pct.mean bytes);
    if kind = Churn then begin
      Report.set "journal.append_us" (us_median "journal.append");
      Report.set "engine.apply_us" (us_median "engine.apply")
    end;
    Option.iter
      (fun p -> Report.set ~note:"(untraced vs traced closed-loop qps)" "trace.overhead_pct" ((p -. qps) /. p *. 100.0))
      plain_qps;
    Trace.set_enabled false
  end
