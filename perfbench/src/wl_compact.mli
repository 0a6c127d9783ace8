(** The [compact] workload: sampled certification plus sampled attack
    of three label-computed compact routings at 10{^5}–10{^6} nodes,
    following the [ftr compact] flow, and a route-lookup phase through
    [Routing.find] over the compact tables. *)

val run : seed:int -> seconds:float -> jobs:int -> trace:bool -> unit
