(* Both loops stop for a host speed probe (Calib.probe) after every
   [chunk_s] seconds of their own time; the probes are not counted. *)
let chunk_s = 0.05

let open_loop ~due work =
  let n = Array.length due in
  let lat = Array.make n 0.0 and late = Array.make n 0.0 and ends = Array.make n (0.0, 0.0) in
  (* The schedule is shifted by the time the probes took, so a probe
     never makes a request late. *)
  let t0 = ref (Clock.now ()) in
  let next_probe = ref chunk_s in
  for i = 0 to n - 1 do
    if due.(i) >= !next_probe then begin
      let p0 = Clock.now () in
      Calib.probe ();
      t0 := !t0 +. (Clock.now () -. p0);
      next_probe := due.(i) +. chunk_s
    end;
    let d = !t0 +. due.(i) in
    let wait = d -. Clock.now () in
    if wait > 300e-6 then Unix.sleepf (wait -. 200e-6);
    while Clock.now () < d do
      ()
    done;
    let s = Clock.now () in
    work i;
    let e = Clock.now () in
    lat.(i) <- e -. d;
    late.(i) <- s -. d;
    ends.(i) <- (d, e)
  done;
  let scaled = Array.map (fun (d, e) -> Calib.scale d e) ends in
  (lat, scaled, late)

let closed_loop ~seconds work =
  let i = ref 0 and busy = ref 0.0 and chunks = ref [] in
  while !busy < seconds do
    Calib.probe ();
    let first = !i in
    let t0 = Clock.now () in
    let stop = t0 +. Float.min chunk_s (seconds -. !busy) in
    while Clock.now () < stop do
      work !i;
      incr i
    done;
    let t1 = Clock.now () in
    busy := !busy +. (t1 -. t0);
    chunks := (!i - first, t0, t1) :: !chunks
  done;
  Calib.probe ();
  List.rev !chunks
