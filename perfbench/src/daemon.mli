(** One lifetime of the real [ftr serve] process: spawn, wait until
    it answers [ready:true], talk to it, drain it and reap it. *)

type t

val work_dir : string
(** [.bench_run], relative to the checkout root the benchmark runs
    from: sockets, journals and metrics files live here. *)

val spawn : ftr:string -> string list -> t
(** [spawn ~ftr args] runs [ftr serve <args> --socket <fresh path>]
    with its output discarded, and returns once a [ready] probe on a
    fresh connection answers [ready:true]. *)

val setup_s : t -> float
(** Spawn until the first [ready:true] reply, seconds. *)

val pid : t -> int
val socket : t -> string

val probe : t -> Client.conn
(** The connection used for readiness, kept for control requests. *)

val drain : t -> unit
(** Send [drain], close the probe connection and wait for the
    process to exit (killing it after 10 s). Raises [Failure] if it
    exited non-zero. *)

val kill_all : unit -> unit
(** SIGKILL and reap every daemon still running (an error path). *)
