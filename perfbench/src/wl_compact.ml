open Ftr_graph
open Ftr_core
open Ftr_obs

(* Each family's sampled verdicts, pinned. The checkers' RNGs are
   fixed, so every pass does the same work whatever the seed; the seed
   drives the lookup phase. *)
type pin = { worst : int; sets_checked : int; pairs_checked : int; attack_worst : int; probes : int }

let families =
  [
    ("hypercube:17", { worst = 2; sets_checked = 163; pairs_checked = 10432; attack_worst = 1; probes = 10560 });
    ("debruijn:20", { worst = 2; sets_checked = 163; pairs_checked = 10432; attack_worst = 1; probes = 10560 });
    ("ccc:14", { worst = 2; sets_checked = 163; pairs_checked = 10432; attack_worst = 2; probes = 10624 });
  ]

(* The [ftr compact] defaults. *)
let sets = 32
let pairs = 64
let attack_steps = 40

(* The lookup phase: Routing.find on uniform pairs of each family in
   turn, open loop; the first lookups are fully validated. *)
let passes_per_run = 8
let find_rate = 20000.0
let validated_finds = 400

type pass = {
  setup : float;
  verdict : float;
  setups : (float * float) list;  (** per family: start and end of the table build *)
  verdicts : (float * float) list;  (** per family: start and end of certify and attack *)
  sampled : float;
  attack : float;
  built : Construction.t list;
}

let claim_of (c : Construction.t) =
  let f = (Construction.strongest_claim c).max_faults in
  let bound =
    match Construction.bound_for c ~f with
    | Some b -> b
    | None -> (Construction.strongest_claim c).diameter_bound
  in
  (f, bound)

let dist = function Metrics.Finite d -> d | Metrics.Infinite -> -1

let check spec (p : pin) (v : Tolerance.sampled_verdict) (o : Attack.sampled_outcome) =
  Report.attempt 2;
  if not v.sv_holds then Report.wrong (Printf.sprintf "%s: sampled certification flagged a violation" spec);
  if o.s_flagged <> 0 then Report.wrong (Printf.sprintf "%s: sampled attack flagged %d pairs" spec o.s_flagged);
  let got =
    {
      worst = dist v.sv_worst;
      sets_checked = v.sv_sets_checked;
      pairs_checked = v.sv_pairs_checked;
      attack_worst = dist o.s_worst;
      probes = o.s_probes;
    }
  in
  if got <> p then
    Report.wrong
      (Printf.sprintf
         "%s: worst=%d sets=%d pairs=%d attack_worst=%d probes=%d, pinned %d %d %d %d %d" spec
         got.worst got.sets_checked got.pairs_checked got.attack_worst got.probes p.worst
         p.sets_checked p.pairs_checked p.attack_worst p.probes)

let run_pass ~jobs =
  let acc = ref { setup = 0.0; verdict = 0.0; setups = []; verdicts = []; sampled = 0.0; attack = 0.0; built = [] } in
  List.iteri
    (fun i (spec, pin) ->
      Calib.probe ();
      let t0 = Clock.now () in
      let c =
        Trace.span "compact.build" (fun () ->
            match Compact_family.of_spec spec with Ok c -> c | Error e -> failwith (spec ^ ": " ^ e))
      in
      let t1 = Clock.now () in
      let f, bound = claim_of c in
      let v =
        Trace.span "tolerance.sampled" (fun () ->
            Tolerance.sampled ~jobs ~pools:c.pools c.routing ~f ~bound
              ~rng:(Random.State.make [| 0xC1; i |])
              ~sets ~pairs)
      in
      let t2 = Clock.now () in
      let o =
        Trace.span "attack.sampled" (fun () ->
            Attack.search_sampled ~steps:attack_steps ~jobs
              ~rng:(Random.State.make [| 0xC2; i |])
              ~pools:c.pools c.routing ~f ~bound ~pairs)
      in
      let t3 = Clock.now () in
      check spec pin v o;
      let p = !acc in
      acc :=
        {
          setup = p.setup +. (t1 -. t0);
          verdict = p.verdict +. (t3 -. t1);
          setups = (t0, t1) :: p.setups;
          verdicts = (t1, t3) :: p.verdicts;
          sampled = p.sampled +. (t2 -. t1);
          attack = p.attack +. (t3 -. t2);
          built = p.built @ [ c ];
        })
    families;
  !acc

let lookups ~seed ~count (built : Construction.t list) =
  let routings = Array.of_list (List.map (fun (c : Construction.t) -> c.routing) built) in
  let rng = Random.State.make [| seed; 0xC4 |] in
  Array.init count (fun i ->
      let k = i mod Array.length routings in
      let n = Graph.n (Routing.graph routings.(k)) in
      let src = Random.State.int rng n in
      let d = Random.State.int rng (n - 1) in
      (routings.(k), src, if d >= src then d + 1 else d))

let find_phase ~seed ~burst ~seconds built =
  let count = max 1 (int_of_float (find_rate *. seconds)) in
  let qs = lookups ~seed:(seed + (1000 * burst)) ~count built in
  let kept = Array.make (min count validated_finds) None in
  let ends_ok = ref 0 in
  let due = Gen.arrivals ~seed ~tag:(0xC40 + burst) ~rate:find_rate ~count in
  let lat, scaled, late =
    Inproc.open_loop ~due (fun i ->
        let r, src, dst = qs.(i) in
        match Routing.find r src dst with
        | Some p ->
            if Path.source p = src && Path.target p = dst then incr ends_ok;
            if i < Array.length kept then kept.(i) <- Some p
        | None -> ())
  in
  Report.attempt count;
  for _ = 1 to count - !ends_ok do
    Report.wrong "Routing.find answered a pair with a missing or misdirected route"
  done;
  Array.iteri
    (fun i p ->
      let r, _, _ = qs.(i) in
      match p with
      | Some p when Path.is_valid_in (Routing.graph r) p -> ()
      | _ -> Report.wrong (Printf.sprintf "lookup %d: route is not a path of the graph" i))
    kept;
  (lat, scaled, late, qs)

(* Lookups back to back over the burst's pairs, for [qps]: lookups
   answered per second. *)
let closed_finds ~seconds qs =
  let len = Array.length qs in
  let misdirected = ref 0 in
  let chunks =
    Inproc.closed_loop ~seconds (fun i ->
        let r, src, dst = qs.(i mod len) in
        match Routing.find r src dst with
        | Some p when Path.source p = src && Path.target p = dst -> ()
        | _ -> incr misdirected)
  in
  let count = List.fold_left (fun acc (n, _, _) -> acc + n) 0 chunks in
  Report.attempt count;
  for _ = 1 to !misdirected do
    Report.wrong "closed-loop Routing.find answered a pair with a missing or misdirected route"
  done;
  chunks

let counter name = float_of_int (Option.value (List.assoc_opt name (Obs.counters ())) ~default:0)

let run ~seed ~seconds ~jobs ~trace =
  (* Passes alternate with bursts of lookups on the tables the pass
     just built, so both figures sample the host over the whole run. *)
  let lookup_s = 0.35 *. seconds /. float_of_int passes_per_run in
  let closed_s = 0.1 *. seconds /. float_of_int passes_per_run in
  let passes = ref [] and lats = ref [] and scaled_lats = ref [] and lates = ref [] and qs = ref [||] and closed = ref [] in
  while List.length !passes < passes_per_run do
    (* Start every pass from a collected heap holding no earlier
       pass's tables, so no pass pays for an earlier one's garbage and
       the peak RSS is one pass's. *)
    qs := [||];
    Gc.full_major ();
    let p = run_pass ~jobs in
    passes := { p with built = [] } :: !passes;
    (* Join the checker's worker domains first: while they exist every
       minor collection must synchronise with them, which would put the
       pool's wake-ups into single-lookup latencies. Then collect the
       pass's garbage, so every burst starts from the same heap and no
       major-GC work left by the pass runs inside the lookups. *)
    Par.shutdown ();
    Gc.full_major ();
    Calib.probe ();
    let lat, scaled, late, q = find_phase ~seed ~burst:(List.length !passes) ~seconds:lookup_s p.built in
    lats := lat :: !lats;
    scaled_lats := scaled :: !scaled_lats;
    lates := late :: !lates;
    qs := q;
    closed := closed_finds ~seconds:closed_s q :: !closed
  done;
  let passes = Array.of_list (List.rev !passes) in
  let med f = Pct.median (Array.map f passes) in
  Report.info
    ("passes: setup_s "
    ^ String.concat " " (Array.to_list (Array.map (fun p -> Printf.sprintf "%.3f" p.setup) passes))
    ^ "  verdict_s "
    ^ String.concat " " (Array.to_list (Array.map (fun p -> Printf.sprintf "%.3f" p.verdict) passes)));
  let ms = Array.map (fun s -> s *. 1000.0) (Array.concat !lats) and late = Array.concat !lates and qs = !qs in
  let scaled_ms = Array.map (fun s -> s *. 1000.0) (Array.concat !scaled_lats) in
  let samples = Printf.sprintf "(%d lookups at %.0f/s)" (Array.length ms) find_rate in
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
    ~note:(Printf.sprintf "(%d families, mean of %d passes)" (List.length families) (Array.length passes))
    "verdict_s"
    (Pct.mean (Array.map (fun p -> sum_scaled p.verdicts) passes));
  Report.set
    ~note:(Printf.sprintf "(Routing.find lookups per second, closed loop, %d lookups over %d slices)" count passes_per_run)
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
    let p = run_pass ~jobs in
    Trace.set_enabled false;
    Obs.set_enabled false;
    Report.set "compact.build_ms" (p.setup *. 1000.0);
    Report.set "tolerance.sampled_ms" (p.sampled *. 1000.0);
    Report.set "attack.sampled_ms" (p.attack *. 1000.0);
    Report.set "tolerance.pairs_probed" (counter "tolerance.sampled.pairs_probed");
    Report.set ~note:"(traced pass verdict vs untraced median)" "trace.overhead_pct"
      ((p.verdict /. med (fun p -> p.verdict) -. 1.0) *. 100.0);
    (* Lookup cost without the open loop around it: one tight timed
       loop over the same pairs. *)
    let n = Array.length qs in
    let a0 = Proc.alloc_words () in
    let t0 = Clock.now () in
    Array.iter (fun (r, src, dst) -> ignore (Sys.opaque_identity (Routing.find r src dst))) qs;
    let t1 = Clock.now () in
    let a1 = Proc.alloc_words () in
    Report.set "routing.find_ns" ((t1 -. t0) *. 1e9 /. float_of_int n);
    Report.set "routing.find_alloc_words" ((a1 -. a0) /. float_of_int n);
    Report.set ~note:"(live words after a full major GC, tables built)" "gc.live_heap_mb" (Budget.live_mb ());
    ignore (Sys.opaque_identity p.built);
    Report.info ("obs counters " ^ Obs.counters_json ())
  end
