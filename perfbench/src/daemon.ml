module Wire = Ftr_serve.Wire

type t = { pid : int; socket : string; probe : Client.conn; setup_s : float }

let work_dir = ".bench_run"
let live : int list ref = ref []
let serial = ref 0

let reap pid =
  live := List.filter (fun p -> p <> pid) !live;
  snd (Unix.waitpid [] pid)

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (reap pid))
    !live

(* [Some status] once the process has exited (and is reaped). *)
let poll pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> None
  | _, status ->
      live := List.filter (fun p -> p <> pid) !live;
      Some status
  | exception Unix.Unix_error _ ->
      live := List.filter (fun p -> p <> pid) !live;
      Some (Unix.WEXITED 255)

let ready_true reply =
  match Ftr_serve.Sjson.parse reply with
  | Ok j -> Ftr_serve.Sjson.member "ready" j = Some (Ftr_serve.Sjson.Bool true)
  | Error _ -> false

let spawn ~ftr args =
  (try Unix.mkdir work_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  incr serial;
  let socket = Printf.sprintf "%s/d%d-%d.sock" work_dir (Unix.getpid ()) !serial in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let argv = Array.of_list ((ftr :: "serve" :: args) @ [ "--socket"; socket ]) in
  let t0 = Clock.now () in
  let pid = Unix.create_process argv.(0) argv devnull devnull devnull in
  Unix.close devnull;
  live := pid :: !live;
  let rec wait () =
    if poll pid <> None then failwith ("ftr serve exited before it was ready: " ^ String.concat " " args);
    if Clock.now () -. t0 > 60.0 then failwith "ftr serve not ready within 60 s";
    match Client.connect socket with
    | exception Unix.Unix_error _ ->
        Unix.sleepf 0.001;
        wait ()
    | c ->
        let reply = Client.call c Wire.Ready in
        if ready_true reply then c
        else begin
          Client.close c;
          Unix.sleepf 0.001;
          wait ()
        end
  in
  let probe = wait () in
  { pid; socket; probe; setup_s = Clock.now () -. t0 }

let setup_s t = t.setup_s
let pid t = t.pid
let socket t = t.socket
let probe t = t.probe

let drain t =
  (try ignore (Client.call t.probe Wire.Drain) with Client.Transport _ -> ());
  Client.close t.probe;
  let t0 = Clock.now () in
  let rec wait () =
    match poll t.pid with
    | Some (Unix.WEXITED 0) -> ()
    | Some _ -> failwith "ftr serve exited non-zero after drain"
    | None when Clock.now () -. t0 > 10.0 ->
        (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (reap t.pid);
        failwith "ftr serve did not exit within 10 s of drain"
    | None ->
        Unix.sleepf 0.002;
        wait ()
  in
  wait ()
