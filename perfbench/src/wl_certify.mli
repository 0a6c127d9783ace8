(** The [certify] workload: exhaustive, bounded and search-path
    certification of kernel constructions, in-process, at a fixed
    [jobs]. The instance list straddles the sliced engine's [n <= 63]
    gate. See perfbench/README.md for the metric definitions. *)

val run : seed:int -> seconds:float -> jobs:int -> trace:bool -> unit
