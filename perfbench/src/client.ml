module Wire = Ftr_serve.Wire

exception Transport of string

type conn = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  acc : Buffer.t;  (** partial reply line *)
  pending : int Queue.t;  (** log ids awaiting a reply, in send order *)
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
      Unix.set_nonblock fd;
      { fd; chunk = Bytes.create 65536; acc = Buffer.create 256; pending = Queue.create () }
  | exception e ->
      Unix.close fd;
      raise e

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Read what is available and hand each complete reply line, with the
   id it answers, to [on_reply]. *)
let read_replies c on_reply =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (e, _, _) -> raise (Transport (Unix.error_message e))
  | 0 -> raise (Transport "daemon closed the connection")
  | k ->
      let now = Clock.now () in
      let start = ref 0 in
      for i = 0 to k - 1 do
        if Bytes.get c.chunk i = '\n' then begin
          let piece = Bytes.sub_string c.chunk !start (i - !start) in
          let line =
            if Buffer.length c.acc = 0 then piece
            else begin
              Buffer.add_string c.acc piece;
              let l = Buffer.contents c.acc in
              Buffer.clear c.acc;
              l
            end
          in
          (match Queue.take_opt c.pending with
          | Some id -> on_reply id line now
          | None -> raise (Transport ("unsolicited reply: " ^ line)));
          start := i + 1
        end
      done;
      Buffer.add_subbytes c.acc c.chunk !start (k - !start)

(* Write a whole request line. The socket is non-blocking: when the
   daemon has stopped reading because its replies to us are piling
   up, take those replies (handing them to [on_reply]) instead of
   blocking, or both sides would wait on each other forever. *)
let rec write_all c s pos on_reply =
  if pos < String.length s then
    match Unix.write_substring c.fd s pos (String.length s - pos) with
    | k -> write_all c s (pos + k) on_reply
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        (match Unix.select [ c.fd ] [ c.fd ] [] 1.0 with
        | r, _, _ -> if r <> [] then read_replies c on_reply
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        write_all c s pos on_reply
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all c s pos on_reply
    | exception Unix.Unix_error (e, _, _) -> raise (Transport (Unix.error_message e))

let call c req =
  let got = ref None in
  let collect _ line _ = got := Some line in
  write_all c (Wire.request_to_line req ^ "\n") 0 collect;
  Queue.push (-1) c.pending;
  while !got = None do
    (match Unix.select [ c.fd ] [] [] 30.0 with
    | [], _, _ -> raise (Transport "no reply within 30 s")
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    if Queue.length c.pending > 0 then read_replies c collect
  done;
  Option.get !got

type log = {
  mutable n : int;
  mutable ops : Wire.request array;
  mutable due : float array;
  mutable sent : float array;
  mutable answered : float array;
  mutable replies : string array;
}

let new_log cap =
  {
    n = 0;
    ops = Array.make cap Wire.Health;
    due = Array.make cap 0.0;
    sent = Array.make cap 0.0;
    answered = Array.make cap Float.nan;
    replies = Array.make cap "";
  }

let grow log =
  let cap = 2 * Array.length log.ops in
  let ext a fill = Array.append a (Array.make (cap - Array.length a) fill) in
  log.ops <- ext log.ops Wire.Health;
  log.due <- ext log.due 0.0;
  log.sent <- ext log.sent 0.0;
  log.answered <- ext log.answered Float.nan;
  log.replies <- ext log.replies ""

let on_reply log id line now =
  log.answered.(id) <- now;
  log.replies.(id) <- line

(* Closed loop: a request is due when it is sent. *)
let send log c req =
  if log.n = Array.length log.ops then grow log;
  let id = log.n in
  log.n <- id + 1;
  log.ops.(id) <- req;
  let line = Wire.request_to_line req ^ "\n" in
  let now = Clock.now () in
  log.sent.(id) <- now;
  log.due.(id) <- now;
  write_all c line 0 (on_reply log);
  Queue.push id c.pending

let busy_fds conns =
  Array.fold_left (fun acc c -> if Queue.is_empty c.pending then acc else c.fd :: acc) [] conns

let pump_replies conns log timeout =
  match busy_fds conns with
  | [] -> if timeout > 0.0 then Unix.sleepf timeout
  | fds -> (
      match Unix.select fds [] [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | ready, _, _ ->
          Array.iter (fun c -> if List.mem c.fd ready then read_replies c (on_reply log)) conns)

let closed_loop conns ~ops ~from ~duration =
  let log = new_log 8192 in
  let stop = Clock.now () +. duration in
  let k = ref from in
  let next () =
    let req = ops.(!k) in
    incr k;
    req
  in
  let running () = !k < Array.length ops && Clock.now () < stop in
  let held = ref None and writing = ref false in
  let all_idle () = Array.for_all (fun c -> Queue.is_empty c.pending) conns in
  (* A fault delta is held until every connection is idle, sent alone,
     and nothing else goes out until its reply is in. One still held
     when the phase ends is not sent; it is the op the caller resumes
     from. *)
  let send_held () =
    match !held with
    | Some req when all_idle () ->
        held := None;
        writing := true;
        send log conns.(0) req
    | _ -> ()
  in
  let dispatch () =
    if !writing && all_idle () then writing := false;
    if (not !writing) && running () then begin
      Array.iter
        (fun c ->
          if !held = None && Queue.is_empty c.pending && !k < Array.length ops then begin
            let req = next () in
            if Gen.is_write req then held := Some req else send log c req
          end)
        conns;
      send_held ()
    end
  in
  dispatch ();
  while not (all_idle () && not (running ())) do
    pump_replies conns log 0.05;
    if not (all_idle ()) && Clock.now () > stop +. 10.0 then
      raise (Transport "closed loop: replies outstanding 10 s after the phase");
    dispatch ()
  done;
  (log, if !held = None then !k else !k - 1)

let concat logs =
  let cat f = Array.concat (List.map (fun l -> Array.sub (f l) 0 l.n) logs) in
  {
    n = List.fold_left (fun acc l -> acc + l.n) 0 logs;
    ops = cat (fun l -> l.ops);
    due = cat (fun l -> l.due);
    sent = cat (fun l -> l.sent);
    answered = cat (fun l -> l.answered);
    replies = cat (fun l -> l.replies);
  }

type open_result = { log : log; backlog_mid : int; backlog_end : int; depth_max : int }

let queue_depth line =
  match Ftr_serve.Sjson.parse line with
  | Ok j -> Option.bind (Ftr_serve.Sjson.member "queue" j) Ftr_serve.Sjson.to_int
  | Error _ -> None

let open_loop ?probe conns ~ops ~due =
  let count = Array.length ops in
  let log = new_log (max 1 count) in
  let nc = Array.length conns in
  let t0 = Clock.now () in
  let lines = Array.map (fun r -> Wire.request_to_line r ^ "\n") ops in
  let answered () =
    let k = ref 0 in
    for i = 0 to log.n - 1 do
      if not (Float.is_nan log.answered.(i)) then incr k
    done;
    !k
  in
  let mid = ref 0 and fin = ref 0 in
  let i = ref 0 in
  let give_up = t0 +. (if count = 0 then 0.0 else due.(count - 1)) +. 10.0 in
  let depth_max = ref (-1) in
  let next_probe = ref t0 in
  (* Health probes bypass admission, so their "queue" field samples
     the admission depth while the load runs. *)
  let poll_probe () =
    match probe with
    | None -> ()
    | Some (p, interval) ->
        if Queue.is_empty p.pending then begin
          if Clock.now () >= !next_probe then begin
            write_all p (Wire.request_to_line Wire.Health ^ "\n") 0 (fun _ _ _ -> ());
            Queue.push (-1) p.pending;
            next_probe := !next_probe +. interval
          end
        end
        else
          match Unix.select [ p.fd ] [] [] 0.0 with
          | [], _, _ -> ()
          | _ ->
              read_replies p (fun _ line _ ->
                  Option.iter (fun d -> depth_max := max !depth_max d) (queue_depth line))
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let outstanding () = Array.exists (fun c -> not (Queue.is_empty c.pending)) conns in
  while !i < count || outstanding () do
    let now = Clock.now () in
    while !i < count && t0 +. due.(!i) <= now do
      let id = !i in
      let c = conns.(id mod nc) in
      log.ops.(id) <- ops.(id);
      log.due.(id) <- t0 +. due.(id);
      log.sent.(id) <- Clock.now ();
      write_all c lines.(id) 0 (on_reply log);
      Queue.push id c.pending;
      log.n <- id + 1;
      incr i;
      if !i = count / 2 then mid := !i - answered ();
      if !i = count then fin := !i - answered ()
    done;
    (* Poll, never sleep, while requests remain to be sent: a sleeping
       generator wakes late by however long the host takes to resume
       an idle CPU. Run at idle priority ({!Cpu.idle}) on the
       daemon's CPU, the spin only soaks up time the daemon leaves. *)
    pump_replies conns log (if !i < count then 0.0 else 0.05);
    poll_probe ();
    if Clock.now () > give_up && outstanding () then
      raise (Transport "open loop: replies outstanding 10 s after the last send")
  done;
  (match probe with
  | Some (p, _) -> if not (Queue.is_empty p.pending) then read_replies p (fun _ _ _ -> ())
  | None -> ());
  { log; backlog_mid = !mid; backlog_end = !fin; depth_max = !depth_max }
