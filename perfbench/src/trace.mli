(** Outside-in span recorder for the traced run.

    Spans are recorded only from the benchmark's own code, around
    calls into the program's public functions; nothing inside the
    program is instrumented. Each span carries a name, start and end
    on the monotonic clock, the span that caused it and a request id.
    Spans stay in memory and are written out once, when the run
    ends. Recording is off unless {!set_enabled} turned it on, and
    then {!span} is exactly [f ()]. *)

val set_enabled : bool -> unit

val span : ?req:int -> string -> (unit -> 'a) -> 'a
(** Time [f ()] as a child of the innermost open span. *)

val record : ?req:int -> string -> float -> float -> unit
(** [record name t0 t1] adds an already-timed span (e.g. one request
    of an asynchronous load phase) under the innermost open span. *)

val total : string -> float
(** Summed duration of every span called [name], in seconds. *)

val self : string -> float
(** Summed self time of every span called [name]: each span's
    duration minus the part its direct children cover. *)

val durations : string -> float array
(** Per-span durations, in seconds, in recording order. *)

val write : string -> unit
(** Write every span as one JSON object per line:
    [{"id":..,"name":..,"parent":..,"req":..,"start_s":..,"end_s":..}]. *)
