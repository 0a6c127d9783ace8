open Ftr_graph
open Ftr_core
module Wire = Ftr_serve.Wire
module Sjson = Ftr_serve.Sjson
module Server = Ftr_serve.Server
module Engine = Ftr_serve.Engine

type t = {
  routing : Routing.t;
  graph : Graph.t;
  srv : Server.t;
  memo : (int * int, string) Hashtbl.t;
      (** (src, dst) -> expected reply, for the current fault state *)
}

let create (c : Construction.t) =
  let bound = Construction.bound_for c ~f:(Gen.fault_budget c) in
  {
    routing = c.routing;
    graph = Routing.graph c.routing;
    srv = Server.create { Server.max_queue = 1; deadline = 0.0; bound } (Engine.create c.routing);
    memo = Hashtbl.create 4096;
  }

let engine t = Server.engine t.srv

let marker = ",\"service_ms\":"

let find_sub s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = if i + k > n then None else if String.sub s i k = sub then Some i else go (i + 1) in
  go 0

let strip_service reply =
  match find_sub reply marker with
  | None -> (reply, None)
  | Some i ->
      let from = i + String.length marker in
      let v = String.sub reply from (String.length reply - from - 1) in
      (String.sub reply 0 i ^ "}", float_of_string_opt v)

let find_shed line = find_sub line "\"shed\":true" <> None

let field name j = Sjson.member name j
let int_field name j = Option.bind (field name j) Sjson.to_int
let str_field name j = Option.bind (field name j) Sjson.to_str

let mode line =
  match Sjson.parse line with
  | Error _ -> `Other
  | Ok j -> (
      match (str_field "mode" j, str_field "error" j) with
      | Some "routed", _ -> `Routed
      | Some "detour", _ -> `Detour
      | None, Some "unreachable" -> `Unreachable
      | _ -> `Other)

let int_list j = Option.bind j Sjson.to_list |> Option.map (List.filter_map Sjson.to_int)

let norm (u, v) = if u <= v then (u, v) else (v, u)

(* The graph-level checks, independent of the reference server. *)
let semantic t ~src ~dst line =
  let eng = Server.engine t.srv in
  let n = Graph.n t.graph in
  let faulty = Array.make n false in
  List.iter (fun v -> faulty.(v) <- true) (Engine.node_faults eng);
  let down = List.map norm (Engine.link_faults eng) in
  let live_edge a b = Graph.mem_edge t.graph a b && not (List.mem (norm (a, b)) down) in
  let rec live_walk = function
    | a :: (b :: _ as rest) -> (not faulty.(a)) && (not faulty.(b)) && live_edge a b && live_walk rest
    | [ a ] -> not faulty.(a)
    | [] -> false
  in
  let ends path = match path with [] -> false | p0 :: _ -> p0 = src && List.nth path (List.length path - 1) = dst in
  match Sjson.parse line with
  | Error e -> Error ("unparsable reply: " ^ e)
  | Ok j -> (
      match (mode line, int_list (field "path" j), int_field "hops" j) with
      | `Routed, Some ws, Some hops ->
          let rec chain acc = function
            | a :: (b :: _ as rest) -> (
                match Routing.find t.routing a b with
                | Some p when live_walk (Path.to_list p) -> chain (acc + Path.length p) rest
                | Some _ -> None
                | None -> None)
            | _ -> Some acc
          in
          if not (ends ws) then Error "routed path has the wrong endpoints"
          else if int_field "routes" j <> Some (List.length ws - 1) then Error "routed: routes <> waypoints - 1"
          else (
            match chain 0 ws with
            | Some h when h = hops -> Ok ()
            | Some _ -> Error "routed: hop count disagrees with the routes"
            | None -> Error "routed: a waypoint pair has no surviving route")
      | `Detour, Some path, Some hops ->
          if not (ends path) then Error "detour has the wrong endpoints"
          else if not (live_walk path) then Error "detour is not a walk over live links"
          else if hops <> List.length path - 1 then Error "detour: bad hop count"
          else Ok ()
      | `Unreachable, _, _ ->
          let seen = Array.make n false in
          let q = Queue.create () in
          seen.(src) <- true;
          Queue.push src q;
          while not (Queue.is_empty q) do
            let a = Queue.pop q in
            Array.iter
              (fun b ->
                if (not seen.(b)) && (not faulty.(b)) && live_edge a b then begin
                  seen.(b) <- true;
                  Queue.push b q
                end)
              (Graph.neighbors t.graph a)
          done;
          if seen.(dst) then Error "unreachable, but G - F connects the pair" else Ok ()
      | _ -> Error ("not a route answer: " ^ line))

let expected t req = Sjson.to_string (Server.handle t.srv req)

let observe t (req : Wire.request) reply =
  let mismatch want =
    Error (Printf.sprintf "%s: expected %s, got %s" (Wire.request_to_line req) want reply)
  in
  match req with
  | Wire.Route { src; dst } -> (
      let got, _ = strip_service reply in
      match Hashtbl.find_opt t.memo (src, dst) with
      | Some want -> if got = want then Ok () else mismatch want
      | None -> (
          let want, _ = strip_service (expected t req) in
          Hashtbl.replace t.memo (src, dst) want;
          match semantic t ~src ~dst want with
          | Error e -> Error (Wire.request_to_line req ^ ": " ^ e)
          | Ok () -> if got = want then Ok () else mismatch want))
  | Wire.Fault _ ->
      let want = expected t req in
      Hashtbl.reset t.memo;
      if reply = want then Ok () else mismatch want
  | Wire.Diameter ->
      let want, _ = strip_service (expected t req) in
      let got, _ = strip_service reply in
      if got = want then Ok () else mismatch want
  | Wire.Health | Wire.Ready | Wire.Stats | Wire.Drain -> Ok ()

let final t ~stats ~health ~routes =
  let eng = Server.engine t.srv in
  match (Sjson.parse stats, Sjson.parse health) with
  | Ok s, Ok h ->
      let links j =
        Option.bind (field "link_faults" j) Sjson.to_list
        |> Option.map (List.filter_map Sjson.int_pair)
      in
      if str_field "digest" s <> Some (Engine.digest eng) then
        Error ("final digest differs: " ^ stats)
      else if int_field "queries" s <> Some routes then
        Error (Printf.sprintf "daemon answered a different number of route queries (%d sent): %s" routes stats)
      else if int_list (field "node_faults" h) <> Some (Engine.node_faults eng) then
        Error ("final node faults differ: " ^ health)
      else if links h <> Some (Engine.link_faults eng) then Error ("final link faults differ: " ^ health)
      else Ok ()
  | _ -> Error "unparsable stats/health reply"
