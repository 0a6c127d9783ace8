external count : unit -> int = "ftrbench_cpu_count"
external pin : int -> bool = "ftrbench_cpu_pin"
external idle : bool -> bool = "ftrbench_cpu_idle"

(* Dropping to the idle class is always allowed, but returning to the
   normal class needs privilege on some systems; only use it when the
   round trip works. *)
let usable = lazy (idle true && idle false)

let during_load f =
  if not (Lazy.force usable) then f ()
  else begin
    ignore (idle true);
    Fun.protect ~finally:(fun () -> ignore (idle false)) f
  end
