val now : unit -> float
(** Seconds on the monotonic clock (arbitrary origin). *)
