(** Seeded inputs for the serve workloads: the daemon's construction,
    the fixed fault set of [serve_read], the route-query and churn
    request streams and the open-loop arrival schedule.

    Every stream is a pure function of [(seed, tag)]: the same seed
    gives byte-identical request lines, fault schedules and arrival
    times (the stream test pins this). The program under test only
    ever sees the generated lines. *)

open Ftr_core
module Wire = Ftr_serve.Wire

val serve_spec : string
(** The served graph, built with the kernel strategy ([n > 63]). *)

val build_kernel : string -> Construction.t
(** Graph spec to kernel construction, exactly as [ftr serve -s
    kernel] builds it. *)

val fault_budget : Construction.t -> int
(** The largest fault count any claim covers. *)

val read_faults : seed:int -> Construction.t -> int list
(** [serve_read]'s fixed in-budget fault set: {!fault_budget} distinct
    vertices, sorted. *)

type stream
(** An unbounded request stream. *)

val read_stream : seed:int -> tag:int -> Construction.t -> faults:int list -> stream
(** Zipf-skewed route queries ({!Ftr_sim.Workload.zipf_pairs},
    exponent 1.1, as [ftr chaos]) between vertices outside [faults]; popularity
    order is a seeded shuffle of the vertices. *)

val churn_stream : seed:int -> tag:int -> Construction.t -> stream
(** [serve_churn]'s mix, starting from no faults: 5 % of the ops are
    fault deltas — node fail/recover, link fail/recover, gray degrade
    (factor 8, as [ftr chaos]) and restore — with up to
    [fault_budget + 6] node faults, half of them next to a moving focus
    vertex, 6 downed links and 4 degraded ones, so
    the schedule exceeds the budget and now and then cuts a vertex
    off; 0.2 % are [diameter] ops; the rest are Zipf route queries between
    vertices alive at that point of the schedule. *)

val next : stream -> Wire.request
(** The next request; advances the stream. *)

val arrivals : seed:int -> tag:int -> rate:float -> count:int -> float array
(** Poisson arrival offsets (seconds from phase start) of [count]
    requests at [rate] per second. *)

val is_write : Wire.request -> bool
(** Fault deltas, which the daemon journals. *)
