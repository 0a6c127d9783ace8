(* The benchmark's inputs are a pure function of its seed: the same
   seed must give byte-identical request lines, fault schedules and
   arrival times, and the digests below pin them, so a change to the
   generators (or to the library code they draw from) shows up as a
   changed benchmark rather than as a silent shift in its numbers. *)

open Ftrbench
module Wire = Ftr_serve.Wire

let c = Gen.build_kernel Gen.serve_spec

let lines ~seed ~kind ~count =
  let s =
    match kind with
    | `Read -> Gen.read_stream ~seed ~tag:1 c ~faults:(Gen.read_faults ~seed c)
    | `Churn -> Gen.churn_stream ~seed ~tag:1 c
  in
  String.concat "\n" (List.init count (fun _ -> Wire.request_to_line (Gen.next s)))

let schedule ~seed =
  String.concat "\n"
    (Array.to_list (Array.map (Printf.sprintf "%.17g") (Gen.arrivals ~seed ~tag:2 ~rate:5000.0 ~count:2000)))

let digest s = Digest.to_hex (Digest.string s)

let failures = ref 0

let expect name ok =
  Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let () =
  let inputs seed =
    [
      ("read", lines ~seed ~kind:`Read ~count:5000);
      ("churn", lines ~seed ~kind:`Churn ~count:5000);
      ("arrivals", schedule ~seed);
    ]
  in
  let a = inputs 1 and b = inputs 1 and other = inputs 2 in
  List.iter2
    (fun (name, x) (_, y) -> expect (name ^ ": same seed, byte-identical") (String.equal x y))
    a b;
  List.iter2 (fun (name, x) (_, y) -> expect (name ^ ": another seed differs") (not (String.equal x y))) a other;
  let churn = List.assoc "churn" a in
  let has prefix =
    List.exists (fun l -> String.starts_with ~prefix l) (String.split_on_char '\n' churn)
  in
  expect "churn: mixes writes, diameters and routes"
    (has "{\"op\":\"fault\"" && has "{\"op\":\"diameter\"" && has "{\"op\":\"route\"");
  let pinned =
    [
      ("read", "5d584031a973e04852105387054d8ce5");
      ("churn", "d3090a8778fed8c7d0f13e6ed1a76edc");
      ("arrivals", "3ac97e7d2a5a715e7a1d38e6f9dd6f31");
    ]
  in
  List.iter
    (fun (name, want) ->
      let got = digest (List.assoc name a) in
      expect (Printf.sprintf "%s: seed 1 digest %s (pinned %s)" name got want) (got = want))
    pinned;
  if !failures > 0 then exit 1
