(** Resource probes read from outside the measured code: [/proc] for
    memory and CPU time, [Gc.quick_stat] for allocation. *)

val peak_rss_mb : int -> float
(** [VmHWM] of a live process, in MiB ([pid] 0 = this process). *)

val cpu_seconds : int -> float
(** User plus system CPU time of a live process so far, from
    [/proc/<pid>/stat] (clock ticks at the Linux USER_HZ of 100). *)

val alloc_words : unit -> float
(** Words allocated by this domain so far (minor + major − promoted),
    as [Gc.quick_stat] reports them. *)
