let words = 1 lsl 15
let steps = 250_000

(* One probe's time on the reference host, the one perfbench/README.md
   describes, in its faster spells. *)
let reference_s = 2.0e-3

let window = 0.25
let table = lazy (Array.init words (fun i -> (i * 2654435761) land (words - 1)))

(* Probes as (start, duration), newest first, and a start-sorted array
   of them rebuilt when probes were added since. *)
let taken = ref []
let count = ref 0
let sorted = ref [||]

let probe () =
  let a = Lazy.force table in
  let t0 = Clock.now () in
  let p = ref 0 and x = ref 1 in
  for _ = 1 to steps do
    p := Array.unsafe_get a ((!p lxor !x) land (words - 1));
    x := (!x * 25214903917) + 11 + !p
  done;
  let dt = Clock.now () -. t0 in
  ignore (Sys.opaque_identity (!p + !x));
  taken := (t0, dt) :: !taken;
  incr count

let samples () = !count

let probes () =
  if Array.length !sorted <> !count then begin
    let a = Array.of_list !taken in
    Array.sort (fun (a, _) (b, _) -> Float.compare a b) a;
    sorted := a
  end;
  !sorted

(* Index of the first probe starting at or after [t]. *)
let first_from a t =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fst a.(mid) < t then lo := mid + 1 else hi := mid
  done;
  !lo

let slowdown t0 t1 =
  let a = probes () in
  let n = Array.length a in
  if n = 0 then 1.0
  else begin
    let i = first_from a (t0 -. window) in
    let sum = ref 0.0 and k = ref 0 and j = ref i in
    while !j < n && fst a.(!j) <= t1 +. window do
      sum := !sum +. snd a.(!j);
      incr k;
      incr j
    done;
    if !k > 0 then !sum /. float_of_int !k /. reference_s
    else
      (* No probe near: the closer of its neighbours. *)
      let before = if i > 0 then Some a.(i - 1) else None and after = if i < n then Some a.(i) else None in
      let d = match (before, after) with
        | Some (tb, db), Some (ta, da) -> if t0 -. tb <= ta -. t1 then db else da
        | Some (_, d), None | None, Some (_, d) -> d
        | None, None -> reference_s
      in
      d /. reference_s
  end

let scale t0 t1 = (t1 -. t0) /. slowdown t0 t1

let overall () =
  let a = probes () in
  if Array.length a = 0 then 1.0
  else Array.fold_left (fun acc (_, d) -> acc +. d) 0.0 a /. float_of_int (Array.length a) /. reference_s
