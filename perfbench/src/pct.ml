let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else
    let a = sorted xs in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let percentile_any xs p = if Array.length xs = 0 then Float.nan else Ftr_sim.Stats.percentile (sorted xs) p

(* Stats.percentile picks the element of 1-based rank ceil (p/100 * n);
   the n - rank samples above it must number at least ten. *)
let percentile xs p =
  let n = Array.length xs in
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  if n = 0 || n - rank < 10 then None else Some (percentile_any xs p)

let mean xs =
  let n = Array.length xs in
  if n = 0 then Float.nan else Array.fold_left ( +. ) 0.0 xs /. float_of_int n
