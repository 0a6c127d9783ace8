open Ftr_graph
open Ftr_core
open Ftr_obs

type job = Exhaustive of int | Certify of { f : int; bound : int } | Evaluate of int

(* What each instance must answer, pinned outright. The instance list
   and the over-budget evaluation's RNG are fixed, so every pass does
   the same work whatever the seed; the seed drives the what-if
   queries. *)
type pin =
  | Verdict of { worst : int; witness : int list; sets : int; definitive : bool }
  | Cert of { holds : bool; sets : int }

let exhaustive ~worst ~witness ~sets = Verdict { worst; witness; sets; definitive = true }

let instances =
  [
    ("torus:7x7", Exhaustive 3, exhaustive ~worst:4 ~witness:[ 21; 29; 48 ] ~sets:19650);
    ("ccc:4", Exhaustive 2, exhaustive ~worst:4 ~witness:[ 6; 62 ] ~sets:2081);
    ("torus:9x9", Exhaustive 2, exhaustive ~worst:4 ~witness:[ 1; 71 ] ~sets:3322);
    ("hypercube:7", Exhaustive 1, exhaustive ~worst:3 ~witness:[ 120 ] ~sets:129);
    ("hypercube:6", Certify { f = 2; bound = 4 }, Cert { holds = true; sets = 2081 });
    ("torus:12x12", Evaluate 3, Verdict { worst = 4; witness = [ 1; 131 ]; sets = 2184; definitive = false });
  ]

(* The what-if query phase: single fault sets of size <= query_f
   against one routing with n > 63. *)
let passes_per_run = 8
let query_spec = "torus:9x9"
let query_f = 2
let query_rate = 1000.0
let oracle_queries = 5
let closed_sets = 4096

let dist = function Metrics.Finite d -> string_of_int d | Metrics.Infinite -> "inf"
let ints l = "[" ^ String.concat "," (List.map string_of_int l) ^ "]"

type answer = V of Tolerance.verdict | C of Tolerance.certificate

let faults_of n l = Bitset.of_list n l

(* The uncompiled oracle on one fault set. *)
let oracle (c : Construction.t) set =
  let n = Graph.n (Routing.graph c.routing) in
  Surviving.diameter c.routing ~faults:(faults_of n set)

let check ~spec ~first c pin answer =
  Report.attempt 1;
  let bad fmt = Printf.ksprintf (fun s -> Report.wrong (spec ^ ": " ^ s)) fmt in
  match (pin, answer) with
  | Verdict p, V v ->
      if v.Tolerance.worst <> Metrics.Finite p.worst || v.witness <> p.witness
         || v.sets_checked <> p.sets || v.definitive <> p.definitive
      then
        bad "verdict worst=%s witness=%s sets=%d definitive=%b, pinned worst=%d witness=%s sets=%d definitive=%b"
          (dist v.worst) (ints v.witness) v.sets_checked v.definitive p.worst (ints p.witness) p.sets
          p.definitive
      else if first then begin
        Report.attempt 1;
        if oracle c v.witness <> v.worst then bad "oracle disagrees on the witness"
      end
  | Cert p, C r ->
      if r.Tolerance.holds <> p.holds || r.cert_sets_checked <> p.sets
         || (r.holds && r.counterexample <> None)
      then bad "certificate holds=%b sets=%d, pinned holds=%b sets=%d" r.holds r.cert_sets_checked p.holds p.sets
  | _ -> bad "answer of the wrong kind"

type pass = {
  setup : float;
  verdict : float;
  setups : (float * float) list;  (** per instance: start and end of build and compile *)
  verdicts : (float * float) list;  (** per instance: start and end of the checker call *)
  sets : int;
  build : float;
  compile : float;
  alloc : float;
  sweep_spans : string list;
}

let run_pass ~jobs ~first =
  let acc = ref { setup = 0.0; verdict = 0.0; setups = []; verdicts = []; sets = 0; build = 0.0; compile = 0.0; alloc = 0.0; sweep_spans = [] } in
  List.iteri
    (fun i (spec, job, pin) ->
      Calib.probe ();
      let t0 = Clock.now () in
      let c = Trace.span "construction.build" (fun () -> Gen.build_kernel spec) in
      let t1 = Clock.now () in
      ignore (Trace.span "surviving.compile" (fun () -> Surviving.compile_cached c.Construction.routing));
      let t2 = Clock.now () in
      let a0 = Proc.alloc_words () in
      let name, answer =
        match job with
        | Exhaustive f ->
            ("tolerance.exhaustive", Trace.span "tolerance.exhaustive" (fun () -> V (Tolerance.exhaustive ~jobs c.routing ~f)))
        | Certify { f; bound } ->
            ("tolerance.certify", Trace.span "tolerance.certify" (fun () -> C (Tolerance.certify ~jobs c.routing ~f ~bound)))
        | Evaluate f ->
            let rng = Random.State.make [| 0xE7A1; i |] in
            ("tolerance.evaluate", Trace.span "tolerance.evaluate" (fun () -> V (Tolerance.evaluate ~jobs ~rng c ~f)))
      in
      let t3 = Clock.now () in
      let alloc = Proc.alloc_words () -. a0 in
      let sets = match answer with V v -> v.Tolerance.sets_checked | C r -> r.Tolerance.cert_sets_checked in
      check ~spec ~first c pin answer;
      let p = !acc in
      acc :=
        {
          setup = p.setup +. (t2 -. t0);
          verdict = p.verdict +. (t3 -. t2);
          setups = (t0, t2) :: p.setups;
          verdicts = (t2, t3) :: p.verdicts;
          sets = p.sets + sets;
          build = p.build +. (t1 -. t0);
          compile = p.compile +. (t2 -. t1);
          alloc = p.alloc +. alloc;
          sweep_spans = (if List.mem name p.sweep_spans then p.sweep_spans else name :: p.sweep_spans);
        })
    instances;
  !acc

let random_set rng n =
  let k = Random.State.int rng (query_f + 1) in
  let rec draw acc = if List.length acc = k then List.sort Int.compare acc else
      let v = Random.State.int rng n in
      draw (if List.mem v acc then acc else v :: acc)
  in
  draw []

(* One fault set cannot be split across domains, so a what-if query
   runs on the calling domain. *)
let what_if (c : Construction.t) set = (Tolerance.check_sets ~jobs:1 c.routing (Seq.return set)).Tolerance.worst

(* Every query set is one of the sets the pinned exhaustive run of
   [query_spec] covered, so no answer may exceed its worst. *)
let ceiling =
  lazy
    (List.find_map (fun (spec, _, pin) -> match pin with Verdict p when spec = query_spec -> Some p.worst | _ -> None) instances
    |> Option.get)

let within_ceiling d = Metrics.distance_le d (Metrics.Finite (Lazy.force ceiling))

(* A burst of what-if queries in an open loop, for [p50_ms]; the
   first few answers are re-measured by the oracle. *)
let queries (c : Construction.t) ~seed ~burst ~seconds =
  let n = Graph.n (Routing.graph c.routing) in
  ignore (Surviving.compile_cached c.routing);
  let count = max 1 (int_of_float (query_rate *. seconds)) in
  let rng = Random.State.make [| seed; 0xC3; burst |] in
  let sets = Array.init count (fun _ -> random_set rng n) in
  let due = Gen.arrivals ~seed ~tag:(0xC30 + burst) ~rate:query_rate ~count in
  let got = Array.make count Metrics.Infinite in
  let lat, scaled, late = Inproc.open_loop ~due (fun i -> got.(i) <- what_if c sets.(i)) in
  Array.iteri
    (fun i d ->
      Report.attempt 1;
      if not (within_ceiling d) then
        Report.wrong (Printf.sprintf "query %s: diameter %s above the exhaustive worst" (ints sets.(i)) (dist d));
      if i < oracle_queries then begin
        Report.attempt 1;
        if oracle c sets.(i) <> d then Report.wrong (Printf.sprintf "query %s: oracle disagrees" (ints sets.(i)))
      end)
    got;
  (lat, scaled, late)

(* What-if queries back to back, cycling through [closed_sets] seeded
   sets, for [qps]: queries answered per second. *)
let closed_queries (c : Construction.t) ~seed ~burst ~seconds =
  let n = Graph.n (Routing.graph c.routing) in
  let rng = Random.State.make [| seed; 0xC5; burst |] in
  let sets = Array.init closed_sets (fun _ -> random_set rng n) in
  let above = ref 0 in
  let chunks =
    Inproc.closed_loop ~seconds (fun i ->
        if not (within_ceiling (what_if c sets.(i mod closed_sets))) then incr above)
  in
  let count = List.fold_left (fun acc (n, _, _) -> acc + n) 0 chunks in
  Report.attempt count;
  for _ = 1 to !above do
    Report.wrong "closed-loop what-if query: diameter above the exhaustive worst"
  done;
  chunks

let counter name = float_of_int (Option.value (List.assoc_opt name (Obs.counters ())) ~default:0)
let gauge name = Option.value (List.assoc_opt name (Obs.gauges ())) ~default:0.0

let span_s name =
  List.fold_left (fun acc (n, _, total) -> if n = name then acc +. total else acc) 0.0 (Obs.spans ())

let run ~seed ~seconds ~jobs ~trace =
  (* Passes alternate with bursts of what-if queries, so both figures
     sample the host over the whole run. *)
  let query_s = 0.2 *. seconds /. float_of_int passes_per_run in
  let closed_s = 0.2 *. seconds /. float_of_int passes_per_run in
  let target = Gen.build_kernel query_spec in
  let passes = ref [] and lats = ref [] and scaled_lats = ref [] and lates = ref [] and closed = ref [] in
  while List.length !passes < passes_per_run do
    (* Start every pass from a collected heap, so no pass pays for an
       earlier one's garbage and the peak RSS is one pass's. *)
    Gc.full_major ();
    passes := run_pass ~jobs ~first:(!passes = []) :: !passes;
    (* Join the checker's worker domains first: while they exist every
       minor collection must synchronise with them, which would put the
       pool's wake-ups into single-request latencies. Then collect the
       pass's garbage, so no major-GC work it left runs inside the
       queries. *)
    Par.shutdown ();
    Gc.full_major ();
    let burst = List.length !passes in
    Calib.probe ();
    let lat, scaled, late = queries target ~seed ~burst ~seconds:query_s in
    lats := lat :: !lats;
    scaled_lats := scaled :: !scaled_lats;
    lates := late :: !lates;
    closed := closed_queries target ~seed ~burst ~seconds:closed_s :: !closed
  done;
  let passes = Array.of_list (List.rev !passes) in
  let med f = Pct.median (Array.map f passes) in
  Report.info
    ("passes: setup_s "
    ^ String.concat " " (Array.to_list (Array.map (fun p -> Printf.sprintf "%.3f" p.setup) passes))
    ^ "  verdict_s "
    ^ String.concat " " (Array.to_list (Array.map (fun p -> Printf.sprintf "%.3f" p.verdict) passes)));
  let ms = Array.map (fun s -> s *. 1000.0) (Array.concat !lats) and late = Array.concat !lates in
  let scaled_ms = Array.map (fun s -> s *. 1000.0) (Array.concat !scaled_lats) in
  let samples = Printf.sprintf "(%d what-if queries on %s at %.0f/s)" (Array.length ms) query_spec query_rate in
  let sum_scaled l = List.fold_left (fun acc (t0, t1) -> acc +. Calib.scale t0 t1) 0.0 l in
  let chunks = List.concat !closed in
  let count = List.fold_left (fun acc (n, _, _) -> acc + n) 0 chunks in
  let raw_s = List.fold_left (fun acc (_, t0, t1) -> acc +. (t1 -. t0)) 0.0 chunks in
  let scaled_s = List.fold_left (fun acc (_, t0, t1) -> acc +. Calib.scale t0 t1) 0.0 chunks in
  Report.info
    (Printf.sprintf "host: %d speed probes, slowdown %.3f; unscaled: setup_s %.4f verdict_s %.4f qps %.0f p50_ms %.5f"
       (Calib.samples ()) (Calib.overall ()) (med (fun p -> p.setup)) (Pct.mean (Array.map (fun p -> p.verdict) passes))
       (float_of_int count /. raw_s) (Pct.median ms));
  Report.set ~note:(Printf.sprintf "(median of %d passes)" (Array.length passes)) "setup_s" (med (fun p -> sum_scaled p.setups));
  Report.set
    ~note:(Printf.sprintf "(%d instances, mean of %d passes)" (List.length instances) (Array.length passes))
    "verdict_s"
    (Pct.mean (Array.map (fun p -> sum_scaled p.verdicts) passes));
  Report.set
    ~note:(Printf.sprintf "(what-if queries on %s per second, closed loop, %d queries over %d slices)" query_spec count passes_per_run)
    "qps" (float_of_int count /. scaled_s);
  Report.set ~note:samples "p50_ms" (Pct.median scaled_ms);
  Report.tail ~note:samples ms;
  Report.set ~note:"(VmHWM of this process)" "peak_rss_mb" (Proc.peak_rss_mb 0);
  Report.set "latency.samples" (float_of_int (Array.length ms));
  Report.set "client.late_ms" (Pct.percentile_any late 99.0 *. 1000.0);
  if trace then begin
    Obs.reset ();
    Obs.set_enabled true;
    Trace.set_enabled true;
    let p = run_pass ~jobs ~first:false in
    Trace.set_enabled false;
    Obs.set_enabled false;
    let attack_s = span_s "attack.search" in
    let sweep_s = List.fold_left (fun acc name -> acc +. Trace.self name) 0.0 p.sweep_spans -. attack_s in
    let sets = counter "tolerance.sets_checked" +. counter "tolerance.certify.sets_checked" in
    let lanes = counter "engine.sliced.lanes" in
    Report.set "construction.build_ms" (p.build *. 1000.0);
    Report.set "surviving.compile_ms" (p.compile *. 1000.0);
    Report.set "tolerance.sweep_ms" (sweep_s *. 1000.0);
    Report.set "tolerance.sets_per_s" (sets /. sweep_s);
    Report.set "tolerance.sets_checked" sets;
    Report.set "surviving.sliced_share" (lanes /. sets);
    Report.set "surviving.lane_fill"
      (let slices = counter "engine.sliced.slices" in
       if slices = 0.0 then 0.0 else lanes /. (slices *. float_of_int Surviving.lane_capacity));
    Report.set "surviving.bfs_word_ops" (counter "engine.bfs.word_ops");
    Report.set ~note:"(Gc.quick_stat words around the checker calls)" "surviving.alloc_words_per_set" (p.alloc /. float_of_int p.sets);
    Report.set "attack.search_ms" (attack_s *. 1000.0);
    Report.set "attack.evals" (counter "attack.evals");
    Report.set ~note:"(max / min tasks per domain, last parallel section)" "par.imbalance"
      (gauge "par.last_max_tasks_per_domain" /. Float.max 1.0 (gauge "par.last_min_tasks_per_domain"));
    Report.set ~note:"(traced pass verdict vs untraced median)" "trace.overhead_pct"
      ((p.verdict /. med (fun p -> p.verdict) -. 1.0) *. 100.0);
    Report.info ("obs counters " ^ Obs.counters_json ())
  end
