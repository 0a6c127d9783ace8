let end_to_end =
  [
    ("setup_s", "s");
    ("verdict_s", "s");
    ("qps", "1/s");
    ("p50_ms", "ms");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("construction.build_ms", "ms");
    ("surviving.compile_ms", "ms");
    ("tolerance.sweep_ms", "ms");
    ("tolerance.sets_per_s", "1/s");
    ("tolerance.sets_checked", "count");
    ("surviving.sliced_share", "ratio");
    ("surviving.lane_fill", "ratio");
    ("surviving.bfs_word_ops", "count");
    ("surviving.alloc_words_per_set", "words");
    ("attack.search_ms", "ms");
    ("attack.evals", "count");
    ("par.imbalance", "ratio");
    ("engine.route_us_p50", "us");
    ("engine.route_us_p99", "us");
    ("transport_us_p50", "us");
    ("wire.parse_us", "us");
    ("sjson.print_us", "us");
    ("server.handle_self_us", "us");
    ("reply.bytes", "bytes");
    ("admission.depth_max", "count");
    ("admission.shed", "count");
    ("daemon.cpu_share", "ratio");
    ("journal.append_us", "us");
    ("engine.apply_us", "us");
    ("engine.detour_share", "ratio");
    ("engine.diameter_us", "us");
    ("compact.build_ms", "ms");
    ("routing.find_ns", "ns");
    ("routing.find_alloc_words", "words");
    ("tolerance.sampled_ms", "ms");
    ("attack.sampled_ms", "ms");
    ("tolerance.pairs_probed", "count");
    ("gc.live_heap_mb", "MB");
    ("client.late_ms", "ms");
    ("latency.samples", "count");
    ("latency.p99_ms", "ms");
    ("latency.p999_ms", "ms");
    ("serve.write_p99_ms", "ms");
    ("serve.slo_qps", "1/s");
    ("error_rate", "ratio");
    ("trace.overhead_pct", "%");
  ]

let values : (string, float * string) Hashtbl.t = Hashtbl.create 64
let infos = ref []
let attempted = ref 0
let failed = ref 0
let wrong_answers = ref 0
let reasons = ref []

let set ?(note = "") name v = Hashtbl.replace values name (v, note)
let info s = infos := s :: !infos

let tail ~note ms =
  List.iter
    (fun (name, p) ->
      match Pct.percentile ms p with
      | Some v -> set ~note name v
      | None -> set ~note:(note ^ " (fewer than 10 samples beyond: n/a)") name 0.0)
    [ ("latency.p99_ms", 99.0); ("latency.p999_ms", 99.9) ]
let attempt k = attempted := !attempted + k

let fail why =
  incr failed;
  if List.length !reasons < 5 then reasons := why :: !reasons

let wrong why =
  incr wrong_answers;
  fail ("WRONG: " ^ why)

let number v = Printf.sprintf "%.17g" v

let print ~trace =
  List.iter print_endline (List.rev !infos);
  List.iter (fun r -> Printf.printf "failure: %s\n" r) (List.rev !reasons);
  let bad = ref [] in
  let line (name, unit) =
    match Hashtbl.find_opt values name with
    | Some (v, note) ->
        Printf.printf "%-30s %14.6g %-6s %s\n" name v unit note;
        if (not (Float.is_finite v)) && List.mem_assoc name end_to_end then bad := name :: !bad
    | None -> ()
  in
  print_endline "-- end to end";
  List.iter line end_to_end;
  print_endline "-- per layer";
  List.iter line per_layer;
  let rate = if !attempted = 0 then 0.0 else float_of_int !failed /. float_of_int !attempted in
  Printf.printf "%-30s %14.6g %-6s (%d failed of %d attempted)\n" "error_rate" rate "ratio"
    !failed !attempted;
  set "error_rate" rate;
  let table = if trace then per_layer else end_to_end in
  let metric (name, unit) =
    let v =
      match Hashtbl.find_opt values name with
      | Some (v, _) when Float.is_finite v -> v
      | Some _ -> 0.0
      | None ->
          if not trace then bad := name :: !bad;
          0.0
    in
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit
  in
  let metrics = String.concat ", " (List.map metric table) in
  List.iter (fun n -> Printf.printf "missing or non-finite metric: %s\n" n) (List.rev !bad);
  let correct = !wrong_answers = 0 && !bad = [] && !attempted > 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct (max 1 !attempted) !failed metrics;
  if correct then 0 else 1
