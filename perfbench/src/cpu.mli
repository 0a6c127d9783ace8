(** Where and at what priority the benchmark program runs.

    On a small virtual machine two busy CPUs can exceed the host's
    CPU share for the guest, and the guest then loses whole
    milliseconds at a time; an idle CPU resumes late when woken. Both
    effects swamp the microseconds the benchmark measures. So the
    program pins itself (and the daemons it starts, which inherit the
    mask) to as few CPUs as the workload uses, and while it drives
    load it runs in the idle scheduling class: it polls instead of
    sleeping, which keeps the CPU awake, yet the daemon preempts it
    the moment it has work. *)

val count : unit -> int
(** CPUs in this thread's affinity mask. *)

val pin : int -> bool
(** Keep only the last [n] CPUs of the affinity mask; [false] if the
    kernel refused. *)

val during_load : (unit -> 'a) -> 'a
(** Run [f] in the idle class when switching both ways works (checked
    once), in the normal class otherwise. Processes started inside
    [f] would inherit the idle class: start them outside. *)
