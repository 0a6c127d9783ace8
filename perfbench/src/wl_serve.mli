(** The [serve_read] and [serve_churn] workloads: the real [ftr serve]
    daemon over its Unix socket, driven by this process over
    [connections] connections. See perfbench/README.md for the phases
    and metric definitions. *)

type kind = Read | Churn

val run :
  ftr:string -> kind:kind -> connections:int -> seed:int -> seconds:float -> trace:bool -> unit
