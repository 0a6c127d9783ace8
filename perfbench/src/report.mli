(** Metric collection and the result line.

    Workloads {!set} what they measured; {!print} writes one
    human-readable line per metric (with notes such as sample counts)
    and then, as the last line of standard output, the JSON object
    the benchmark contract asks for: the end-to-end metrics when the
    run is untraced, the per-layer metrics when it is traced. *)

val end_to_end : (string * string) list
(** [(name, unit)] of every end-to-end metric, as in BENCHMARK.json. *)

val per_layer : (string * string) list
(** [(name, unit)] of every per-layer metric, as in BENCHMARK.json.
    A layer the workload does not run reports 0. *)

val set : ?note:string -> string -> float -> unit
(** Record a metric by name (unit from the tables above; names not in
    them are printed as informational lines only). *)

val tail : note:string -> float array -> unit
(** Set [latency.p99_ms] and [latency.p999_ms] from latency samples in
    ms; a percentile with fewer than ten samples beyond it reads 0
    (its line says so). *)

val info : string -> unit
(** An informational line, printed as is. *)

val fail : string -> unit
(** Count one failed operation, with its reason (the first few are
    printed). *)

val attempt : int -> unit
(** Count attempted operations. *)

val wrong : string -> unit
(** A wrong answer: counts as failed and makes the run incorrect. *)

val print : trace:bool -> int
(** Print everything and return the exit code: 0 when every answer
    was correct and every reported metric is finite, 1 otherwise. *)
