(** An open loop against an in-process API: request [i] is due
    [due.(i)] seconds after the start; this thread serves requests in
    order, each no earlier than it is due, so a slow request delays
    the ones behind it exactly as a single-threaded server would.
    Both loops stop for a {!Calib.probe} every 50 ms of their own
    time; the probes count in no figure. *)

val open_loop : due:float array -> (int -> unit) -> float array * float array * float array
(** [(latency, scaled, lateness)] per request: completion minus due
    time, the same scaled to the reference host ({!Calib.scale}), and
    start minus due time, in seconds. The schedule is shifted by the
    time each probe took. *)

val closed_loop : seconds:float -> (int -> unit) -> (int * float * float) list
(** A closed loop: [work 0], [work 1], … back to back for [seconds]
    seconds, in chunks of 50 ms. Returns, per chunk, the calls made
    and the chunk's start and end. *)
