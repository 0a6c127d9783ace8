(** The host's speed, measured beside the program.

    The benchmark runs on shared virtual CPUs whose speed moves by up
    to a factor of two over seconds to minutes, so the same program
    timed twice can read 20 % apart with nothing changed. The
    workloads therefore call {!probe} between their timed pieces, every
    tenth of a second or so: a probe times one fixed loop of integer
    arithmetic and dependent loads over a 256 KiB table, which takes
    about two milliseconds and runs no code of the program. A timed
    piece is then scaled by how much slower than on the reference host
    the probes around it ran ({!scale}), so the end-to-end figures read
    as on that host. A change to the program moves them as before; a
    change in the host's speed moves the probes with them. *)

val probe : unit -> unit
(** Time the fixed loop once and keep the time, with when it ran. *)

val scale : float -> float -> float
(** [scale t0 t1], for two {!Clock.now} readings, is the interval's
    length as on the reference host: [t1 -. t0] divided by the mean
    time of the probes that started within 0.25 s of the interval (or
    of the one probe nearest to it, when none did) over the reference
    probe time. *)

val overall : unit -> float
(** The slowdown over every probe of the run (1.0 without probes),
    for the report. *)

val samples : unit -> int
(** Probes taken so far. *)
