(* Monotonic time in seconds, read from CLOCK_MONOTONIC with
   nanosecond resolution (Unix.gettimeofday is microsecond-grained and
   steps with the wall clock). *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
