type span = {
  id : int;
  name : string;
  parent : int;
  req : int;
  t0 : float;
  t1 : float;
}

let on = ref false
let spans : span list ref = ref []
let next_id = ref 0
let open_spans : int list ref = ref []

let set_enabled b = on := b

let parent () = match !open_spans with p :: _ -> p | [] -> -1

let push ~id ~parent ~req name t0 t1 =
  spans := { id; name; parent; req; t0; t1 } :: !spans

let record ?(req = -1) name t0 t1 =
  if !on then begin
    let id = !next_id in
    incr next_id;
    push ~id ~parent:(parent ()) ~req name t0 t1
  end

let span ?(req = -1) name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = parent () in
    open_spans := id :: !open_spans;
    let t0 = Clock.now () in
    let close () =
      let t1 = Clock.now () in
      open_spans := List.tl !open_spans;
      push ~id ~parent ~req name t0 t1
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let named name = List.filter (fun s -> s.name = name) !spans
let dur s = s.t1 -. s.t0
let total name = List.fold_left (fun acc s -> acc +. dur s) 0.0 (named name)

let self name =
  let mine = named name in
  let ids = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace ids s.id 0.0) mine;
  List.iter
    (fun s ->
      match Hashtbl.find_opt ids s.parent with
      | Some covered -> Hashtbl.replace ids s.parent (covered +. dur s)
      | None -> ())
    !spans;
  List.fold_left
    (fun acc s ->
      acc +. (dur s -. Option.value (Hashtbl.find_opt ids s.id) ~default:0.0))
    0.0 mine

let durations name = Array.of_list (List.rev_map dur (named name))

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"req\":%d,\"start_s\":%.9f,\"end_s\":%.9f}\n"
        s.id s.name s.parent s.req s.t0 s.t1)
    (List.rev !spans);
  close_out oc
