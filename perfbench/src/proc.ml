let proc_file pid name =
  Printf.sprintf "/proc/%s/%s" (if pid = 0 then "self" else string_of_int pid) name

let read_file path =
  let ic = open_in path in
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  close_in ic;
  Buffer.contents buf

let peak_rss_mb pid =
  let lines = String.split_on_char '\n' (read_file (proc_file pid "status")) in
  match List.find_opt (fun l -> String.starts_with ~prefix:"VmHWM:" l) lines with
  | None -> failwith "VmHWM missing from /proc status"
  | Some l ->
      let kb =
        List.filter (fun s -> s <> "") (String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) l))
      in
      float_of_string (List.nth kb 1) /. 1024.0

let user_hz = 100.0

let cpu_seconds pid =
  let s = read_file (proc_file pid "stat") in
  (* The command name may hold spaces; fields restart after its ')'. *)
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (* rest starts at field 3 (state); utime and stime are fields 14, 15. *)
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. user_hz

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
