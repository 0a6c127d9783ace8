open Ftr_graph
open Ftr_core
module Wire = Ftr_serve.Wire

(* No observed traffic exists for ftr serve, so the mix is borrowed
   where the repository already defines one and is otherwise a
   placeholder (perfbench/README.md, "Fixed settings", says which).
   Zipf exponent and gray factor: the ftr chaos defaults. *)
let serve_spec = "torus:12x12"
let zipf_s = 1.1
let gray_factor = 8.0
let write_share = 0.05
let diameter_share = 0.002

let build_kernel spec =
  match Ftr_analysis.Graph_spec.parse spec with
  | Error e -> failwith (spec ^ ": " ^ e)
  | Ok g -> Kernel.make g ~t:(Connectivity.vertex_connectivity g - 1)

let fault_budget (c : Construction.t) =
  List.fold_left (fun acc (cl : Construction.claim) -> max acc cl.max_faults) 0 c.claims

let rng ~seed ~tag = Random.State.make [| seed; tag; 0xF7B |]

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let choose rng n k =
  let a = Array.init n Fun.id in
  shuffle rng a;
  List.sort Int.compare (Array.to_list (Array.sub a 0 k))

let read_faults ~seed c =
  let n = Graph.n (Routing.graph c.Construction.routing) in
  choose (rng ~seed ~tag:0x5EAD) n (fault_budget c)

(* The churn side's view of the fault state it has scheduled so far.
   Arrays indexed by vertex or edge id keep every draw a function of
   the seed alone. *)
type churn = {
  graph : Graph.t;
  mutable focus : int;  (** node faults cluster around this vertex *)
  edges : (int * int) array;
  faulty : bool array;
  mutable nfaulty : int;
  down : bool array;
  mutable ndown : int;
  slow : bool array;
  mutable nslow : int;
  node_cap : int;
}

type stream = {
  rng : Random.State.t;
  order : int array;  (** popularity order: earlier = hotter *)
  fixed_faulty : bool array;  (** [serve_read]'s faults *)
  churn : churn option;
  mutable cached_alive : int list option;
}

let make ~seed ~tag c ~faults ~churn =
  let n = Graph.n (Routing.graph c.Construction.routing) in
  let rng = rng ~seed ~tag in
  let order = Array.init n Fun.id in
  shuffle rng order;
  let fixed_faulty = Array.make n false in
  List.iter (fun v -> fixed_faulty.(v) <- true) faults;
  let churn =
    if not churn then None
    else
      let graph = Routing.graph c.Construction.routing in
      let edges = Array.of_list (Graph.edges graph) in
      let m = Array.length edges in
      Some
        {
          graph;
          focus = Random.State.int rng n;
          edges;
          faulty = Array.make n false;
          nfaulty = 0;
          down = Array.make m false;
          ndown = 0;
          slow = Array.make m false;
          nslow = 0;
          node_cap = fault_budget c + 6;
        }
  in
  { rng; order; fixed_faulty; churn; cached_alive = None }

let read_stream ~seed ~tag c ~faults = make ~seed ~tag c ~faults ~churn:false
let churn_stream ~seed ~tag c = make ~seed ~tag c ~faults:[] ~churn:true

let is_faulty s v =
  s.fixed_faulty.(v) || match s.churn with Some ch -> ch.faulty.(v) | None -> false

let alive s =
  match s.cached_alive with
  | Some l -> l
  | None ->
      let l = List.filter (fun v -> not (is_faulty s v)) (Array.to_list s.order) in
      s.cached_alive <- Some l;
      l

let route s =
  match Ftr_sim.Workload.zipf_pairs ~rng:s.rng ~alive:(alive s) ~s:zipf_s ~count:1 with
  | [ (src, dst) ] -> Wire.Route { src; dst }
  | _ -> invalid_arg "Gen.route: fewer than two live vertices"

(* Index of a uniformly chosen [true] (or [false]) cell. *)
let pick_where rng a want count =
  let k = ref (Random.State.int rng count) in
  let found = ref (-1) in
  Array.iteri
    (fun i x ->
      if !found < 0 && x = want then if !k = 0 then found := i else decr k)
    a;
  !found

let node_delta s ch =
  let n = Array.length ch.faulty in
  let fail =
    ch.nfaulty = 0 || (ch.nfaulty < ch.node_cap && Random.State.float s.rng 1.0 < 0.55)
  in
  s.cached_alive <- None;
  if fail then begin
    (* Half the failures land next to the focus vertex, so now and then
       its whole neighbourhood is down and queries naming it find no
       path at all; once that has happened the focus moves on. *)
    let near =
      List.filter (fun u -> not ch.faulty.(u)) (Array.to_list (Graph.neighbors ch.graph ch.focus))
    in
    if near = [] then ch.focus <- Random.State.int s.rng n;
    let v =
      if near <> [] && Random.State.bool s.rng then List.nth near (Random.State.int s.rng (List.length near))
      else pick_where s.rng ch.faulty false (n - ch.nfaulty)
    in
    ch.faulty.(v) <- true;
    ch.nfaulty <- ch.nfaulty + 1;
    Wire.Fail_node v
  end
  else begin
    let v = pick_where s.rng ch.faulty true ch.nfaulty in
    ch.faulty.(v) <- false;
    ch.nfaulty <- ch.nfaulty - 1;
    Wire.Recover_node v
  end

let link_delta s ch =
  let m = Array.length ch.edges in
  if ch.ndown = 0 || (ch.ndown < 6 && Random.State.bool s.rng) then begin
    let e = pick_where s.rng ch.down false (m - ch.ndown) in
    ch.down.(e) <- true;
    ch.ndown <- ch.ndown + 1;
    let u, v = ch.edges.(e) in
    Wire.Fail_link (u, v)
  end
  else begin
    let e = pick_where s.rng ch.down true ch.ndown in
    ch.down.(e) <- false;
    ch.ndown <- ch.ndown - 1;
    let u, v = ch.edges.(e) in
    Wire.Recover_link (u, v)
  end

let gray_delta s ch =
  let m = Array.length ch.edges in
  if ch.nslow = 0 || (ch.nslow < 4 && Random.State.bool s.rng) then begin
    let e = pick_where s.rng ch.slow false (m - ch.nslow) in
    ch.slow.(e) <- true;
    ch.nslow <- ch.nslow + 1;
    let u, v = ch.edges.(e) in
    Wire.Degrade_link (u, v, gray_factor)
  end
  else begin
    let e = pick_where s.rng ch.slow true ch.nslow in
    ch.slow.(e) <- false;
    ch.nslow <- ch.nslow - 1;
    let u, v = ch.edges.(e) in
    Wire.Restore_link (u, v)
  end

let next s =
  match s.churn with
  | None -> route s
  | Some ch ->
      let u = Random.State.float s.rng 1.0 in
      if u < write_share then begin
        let k = Random.State.int s.rng 4 in
        Wire.Fault
          (if k < 2 then node_delta s ch else if k = 2 then link_delta s ch
           else gray_delta s ch)
      end
      else if u < write_share +. diameter_share then Wire.Diameter
      else route s

let arrivals ~seed ~tag ~rate ~count =
  let rng = rng ~seed ~tag:(0xA7 + tag) in
  let t = ref 0.0 in
  Array.init count (fun _ ->
      t := !t -. (Float.log (1.0 -. Random.State.float rng 1.0) /. rate);
      !t)

let is_write = function Wire.Fault _ -> true | _ -> false
