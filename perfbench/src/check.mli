(** Answer checking for the serve workloads.

    A reference {!Ftr_serve.Server} runs in-process on its own engine,
    with the daemon's bound and no journal, and sees the same requests
    in the same order. Each daemon reply must equal the reference's
    byte for byte once the timing field ["service_ms"] is removed.
    Independently of that reference, every distinct route answer is
    checked against the graph: a [routed] path must be a chain of
    routed pairs whose routes avoid every faulty vertex and downed
    link, a [detour] a walk over live links, and [unreachable] only
    where breadth-first search on G − F agrees. *)

open Ftr_core
module Wire = Ftr_serve.Wire

type t

val create : Construction.t -> t

val observe : t -> Wire.request -> string -> (unit, string) result
(** Feed one request and the daemon's reply line, in the order the
    daemon applied them. *)

val final : t -> stats:string -> health:string -> routes:int -> (unit, string) result
(** Compare the daemon's closing [stats] and [health] replies with the
    reference: fault digest, node and link faults, and the count of
    route queries it answered ([routes], as sent). *)

val engine : t -> Ftr_serve.Engine.t
(** The reference engine (its fault state mirrors the daemon's). *)

val strip_service : string -> string * float option
(** Split a reply into its text without ["service_ms"] and that
    field's value. *)

val find_shed : string -> bool
(** Is this an explicit load-shedding reply? *)

val mode : string -> [ `Routed | `Detour | `Unreachable | `Other ]
(** The answer kind of a route reply line. *)
