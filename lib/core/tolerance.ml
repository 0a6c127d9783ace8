open Ftr_graph
module Obs = Ftr_obs.Obs

(* [sets_checked] totals are jobs-independent by the same argument as
   the verdicts (every chunk/block is swept identically no matter
   which domain runs it), so they are safe as Obs counters. *)
let c_sets_checked = Obs.counter "tolerance.sets_checked"
let c_certify_runs = Obs.counter "tolerance.certify.runs"
let c_certify_sets = Obs.counter "tolerance.certify.sets_checked"
let c_certify_early = Obs.counter "tolerance.certify.early_exit_blocks"
let c_corpus_replayed = Obs.counter "tolerance.corpus.replayed"

type verdict = {
  worst : Metrics.distance;
  witness : int list;
  sets_checked : int;
  definitive : bool;
}

(* A slice tail shorter than this is swept on the per-set evaluator: a
   one-lane sweep pays the slice bookkeeping for no amortisation. The
   threshold depends only on the canonical set index, never on
   scheduling. *)
let sliced_min_batch = 2

(* Lazy enumeration of subsets of [items] of size exactly [k]. *)
let rec subsets_exact items k : int list Seq.t =
  if k = 0 then Seq.return []
  else
    match items with
    | [] -> Seq.empty
    | x :: rest ->
        Seq.append
          (Seq.map (fun s -> x :: s) (fun () -> subsets_exact rest (k - 1) ()))
          (fun () -> subsets_exact rest k ())

let subsets_up_to items k =
  let sizes = List.init (k + 1) Fun.id in
  List.fold_left
    (fun acc size -> Seq.append acc (subsets_exact items size))
    Seq.empty sizes

(* Saturating Pascal-triangle computation of sum_{i<=k} C(n, i). *)
let count_subsets_up_to ~n ~k =
  let c = Array.make (k + 1) 0 in
  c.(0) <- 1;
  for row = 1 to n do
    for j = min k row downto 1 do
      let sum = c.(j) + c.(j - 1) in
      c.(j) <- (if sum < 0 then max_int else sum)
    done
  done;
  Array.fold_left
    (fun acc x -> if acc + x < 0 then max_int else acc + x)
    0 c

(* C(n, k), or [max_int] once a partial product would overflow (the
   product is at most k times the next partial result). Callers only
   ask for block sizes of an enumeration whose total fits an int. *)
let binom n k =
  if k < 0 || k > n then 0
  else begin
    let k = min k (n - k) in
    let acc = ref 1 in
    for i = 1 to k do
      acc := if !acc > max_int / (n - k + i) then max_int else !acc * (n - k + i) / i
    done;
    !acc
  end

(* ------------------------------------------------------------------ *)
(* Revolving-door subset enumeration.                                 *)
(* ------------------------------------------------------------------ *)

(* Knuth, TAOCP 7.2.1.3, Algorithm R: visit the k-subsets of [0, n)
   in a Gray order where consecutive subsets differ by exactly one
   element swapped. [gray_step] is one transition on the subset held
   in increasing order in c.(1..k), with the sentinel c.(k+1) = n: it
   moves to the next subset, reports the swap, and returns [false]
   after the last subset instead. It reads nothing but [c], so a walk
   may start from any subset [gray_unrank] places there. *)
let gray_step c ~k ~swap =
  let rec r4 j =
    j <= k
    &&
    if c.(j) >= j then begin
      let removed = c.(j) in
      c.(j) <- c.(j - 1);
      c.(j - 1) <- j - 2;
      swap ~removed ~added:(j - 2);
      true
    end
    else r5 (j + 1)
  and r5 j =
    j <= k
    &&
    if c.(j) + 1 < c.(j + 1) then begin
      let removed = c.(j - 1) in
      c.(j - 1) <- c.(j);
      c.(j) <- c.(j) + 1;
      swap ~removed ~added:c.(j);
      true
    end
    else r4 (j + 1)
  in
  if k = 0 then false
  else if k land 1 = 1 then
    if c.(1) + 1 < c.(2) then begin
      let removed = c.(1) in
      c.(1) <- removed + 1;
      swap ~removed ~added:(removed + 1);
      true
    end
    else r4 2
  else if c.(1) > 0 then begin
    let removed = c.(1) in
    c.(1) <- removed - 1;
    swap ~removed ~added:(removed - 1);
    true
  end
  else r5 2

(* The [r]-th k-subset of [0, n) in Algorithm R's order, written to
   c.(1..k) with the sentinel. The order lists the k-subsets of
   [0, n - 1) first, then the (k - 1)-subsets of [0, n - 1) in reverse,
   each joined with n - 1. *)
let gray_unrank c ~n ~k r =
  c.(k + 1) <- n;
  let n = ref n and k = ref k and r = ref r in
  while !k > 0 do
    let first = binom (!n - 1) !k in
    if !r >= first then begin
      r := binom (!n - 1) (!k - 1) - 1 - (!r - first);
      c.(!k) <- !n - 1;
      decr k
    end;
    decr n
  done

let iter_combinations_gray ~n ~k ~first ~swap =
  if k < 0 then invalid_arg "Tolerance.iter_combinations_gray: negative size";
  if k > n then invalid_arg "Tolerance.iter_combinations_gray: size exceeds universe";
  let c = Array.make (k + 2) 0 in
  gray_unrank c ~n ~k 0;
  first (Array.sub c 1 k);
  while gray_step c ~k ~swap do
    ()
  done

(* ------------------------------------------------------------------ *)
(* Verdict assembly.                                                  *)
(* ------------------------------------------------------------------ *)

(* Witness policy everywhere: the FIRST set (in the canonical
   enumeration order) achieving a strictly larger diameter becomes the
   witness. Chunks are merged in enumeration order with "earlier
   witness wins ties", which reproduces the sequential policy no
   matter how chunks were scheduled — verdicts are [jobs]-independent. *)
let merge a b =
  {
    worst = Metrics.max_distance a.worst b.worst;
    witness =
      (if Metrics.distance_le b.worst a.worst then a.witness else b.witness);
    sets_checked = a.sets_checked + b.sets_checked;
    definitive = a.definitive && b.definitive;
  }

let merge_ordered = function
  | [] -> { worst = Metrics.Finite 0; witness = []; sets_checked = 0; definitive = false }
  | v :: rest -> List.fold_left merge v rest

let default_jobs () = Par.recommended_jobs ()

(* ------------------------------------------------------------------ *)
(* The canonical enumeration.                                         *)
(* ------------------------------------------------------------------ *)

(* The canonical order: the empty set, then by size from [f] down to
   1, then by maximum element from [n - 1] down. Block (k, top) holds
   the C(top, k-1) sets {top} ∪ S with S a (k-1)-subset of [0, top), in
   revolving-door order. The block list depends only on (n, f), so it
   is the definition of enumeration order. [top = -1] encodes the empty
   set. *)
type block = { b_size : int; b_top : int }

let blocks_up_to ~n ~f =
  let acc = ref [ { b_size = 0; b_top = -1 } ] in
  for k = min f n downto 1 do
    for top = n - 1 downto k - 1 do
      acc := { b_size = k; b_top = top } :: !acc
    done
  done;
  Array.of_list (List.rev !acc)

(* The blocks plus their prefix sums: block [b] holds the canonical
   indexes [starts.(b), starts.(b + 1)). *)
type enumeration = { blocks : block array; starts : int array; width : int }

let enumeration ~n ~f =
  if count_subsets_up_to ~n ~k:f = max_int then
    invalid_arg
      (Printf.sprintf
         "Tolerance: the fault sets of size <= %d over %d elements overflow an int" f n);
  let blocks = blocks_up_to ~n ~f in
  let starts = Array.make (Array.length blocks + 1) 0 in
  Array.iteri
    (fun b blk ->
      let len = if blk.b_top < 0 then 1 else binom blk.b_top (blk.b_size - 1) in
      starts.(b + 1) <- starts.(b) + len)
    blocks;
  { blocks; starts; width = min f n }

let enum_count en = en.starts.(Array.length en.blocks)

let no_swap ~removed:_ ~added:_ = ()

(* Set generators: [source i] yields the sets from canonical index [i]
   on, one per call. Over the enumeration, the block comes from a
   binary search over the prefix sums and the subset inside it from
   [gray_unrank]; then [c] holds Algorithm R's state for block [blk]'s
   (b_size - 1)-subset of [0, b_top), stepped once per call. *)
let enum_source en i =
  let blk = ref 0 and hi = ref (Array.length en.blocks - 1) in
  while !blk < !hi do
    let mid = (!blk + !hi + 1) / 2 in
    if en.starts.(mid) <= i then blk := mid else hi := mid - 1
  done;
  let c = Array.make (en.width + 2) 0 in
  let enter r =
    let b = en.blocks.(!blk) in
    if b.b_top >= 0 then gray_unrank c ~n:b.b_top ~k:(b.b_size - 1) r
  in
  enter (i - en.starts.(!blk));
  fun () ->
    let b = en.blocks.(!blk) in
    (* sorted: c.(1..k) is increasing and below [b_top] *)
    let s = ref (if b.b_top < 0 then [] else [ b.b_top ]) in
    for j = b.b_size - 1 downto 1 do
      s := c.(j) :: !s
    done;
    if (not (b.b_top >= 0 && gray_step c ~k:(b.b_size - 1) ~swap:no_swap))
       && !blk + 1 < Array.length en.blocks
    then begin
      incr blk;
      enter 0
    end;
    !s

let array_source arr i =
  let j = ref i in
  fun () ->
    let s = arr.(!j) in
    incr j;
    s

(* ------------------------------------------------------------------ *)
(* The batch kernel.                                                  *)
(* ------------------------------------------------------------------ *)

(* Fault sets name vertices or edge ids; the kernel serves both. *)
type universe = Nodes | Edges

let split universe s = match universe with Nodes -> (s, []) | Edges -> ([], s)

(* The one batch sweep. Slices are cut at fixed canonical indexes
   (multiples of [lane_capacity]) and [Par.chunk] hands each task a
   contiguous range of whole slices, so slice contents — and every
   engine counter they feed — are independent of [jobs]. A task starts
   its generator at its first slice and walks on from there. Each
   domain creates its sliced arena on its first full slice and its
   evaluator on its first short tail: a one-set query never pays for
   an arena. [init ~lo ~hi] makes a task's accumulator; [on_slice] sees
   each loaded slice, [on_tail] each tail set loaded on the evaluator. *)
let sweep_slices ~jobs ~compiled ~universe ~count ~source ~init ~on_slice ~on_tail =
  let lanes = Surviving.lane_capacity in
  Par.chunk ~jobs
    ~count:((count + lanes - 1) / lanes)
    ~init:(fun () -> (lazy (Surviving.sliced compiled), lazy (Surviving.evaluator compiled)))
    ~task:(fun (sl, ev) ~lo ~hi ->
      let acc = init ~lo ~hi in
      let next = source (lo * lanes) in
      for si = lo to hi - 1 do
        let base = si * lanes in
        let sets = Array.init (min count (base + lanes) - base) (fun _ -> next ()) in
        if Array.length sets >= sliced_min_batch then begin
          let sl = Lazy.force sl in
          Surviving.slice_reset sl;
          Array.iter
            (fun s ->
              let nodes, edges = split universe s in
              ignore (Surviving.slice_add sl ~nodes ~edges))
            sets;
          on_slice acc si sets sl
        end
        else
          Array.iteri
            (fun j s ->
              let ev = Lazy.force ev in
              let nodes, edges = split universe s in
              Surviving.set_mixed_faults ev ~nodes ~edges;
              on_tail acc (base + j) s ev)
            sets
      done;
      acc)

type best = {
  mutable b_worst : Metrics.distance;
  mutable b_witness : int list;
  mutable b_checked : int;
}

(* Exact diameters over [count] sets; the witness is [report i s] for
   the first set [s] (canonical index [i]) reaching the worst. *)
let sweep_diameters ~jobs ~compiled ~universe ~count ~source ~report =
  let lanes = Surviving.lane_capacity in
  let consider b i s d =
    b.b_checked <- b.b_checked + 1;
    if not (Metrics.distance_le d b.b_worst) then begin
      b.b_worst <- d;
      b.b_witness <- report i s
    end
  in
  sweep_slices ~jobs ~compiled ~universe ~count ~source
    ~init:(fun ~lo:_ ~hi:_ -> { b_worst = Metrics.Finite (-1); b_witness = []; b_checked = 0 })
    ~on_slice:(fun b si sets sl ->
      Array.iteri
        (fun j d -> consider b ((si * lanes) + j) sets.(j) d)
        (Surviving.slice_diameters sl))
    ~on_tail:(fun b i s ev -> consider b i s (Surviving.evaluator_diameter ev))
  |> Array.to_list
  |> List.map (fun b ->
         {
           worst = b.b_worst;
           witness = b.b_witness;
           sets_checked = b.b_checked;
           definitive = false;
         })
  |> merge_ordered

let exhaustive_sweep ~jobs ~compiled ~universe ~n ~f =
  let en = enumeration ~n ~f in
  let v =
    sweep_diameters ~jobs ~compiled ~universe ~count:(enum_count en) ~source:(enum_source en)
      ~report:(fun _ s -> s)
  in
  { v with definitive = true }

(* ------------------------------------------------------------------ *)
(* Explicit set lists (random sampling, pools, corpus replay).        *)
(* ------------------------------------------------------------------ *)

let check_sets ?jobs routing sets =
  Obs.with_span "tolerance.check_sets" @@ fun () ->
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let sets = Array.of_seq sets in
  let count = Array.length sets in
  if count = 0 then
    { worst = Metrics.Finite 0; witness = []; sets_checked = 0; definitive = false }
  else begin
    let compiled = Surviving.compile_cached routing in
    let v =
      sweep_diameters ~jobs ~compiled ~universe:Nodes ~count
        ~source:(array_source (Array.map (List.sort_uniq compare) sets))
        ~report:(fun i _ -> sets.(i))
    in
    Obs.add c_sets_checked v.sets_checked;
    v
  end

(* ------------------------------------------------------------------ *)
(* Exhaustive enumeration.                                            *)
(* ------------------------------------------------------------------ *)

let exhaustive ?jobs routing ~f =
  Obs.with_span "tolerance.exhaustive" @@ fun () ->
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let n = Graph.n (Routing.graph routing) in
  let compiled = Surviving.compile_cached routing in
  let v = exhaustive_sweep ~jobs ~compiled ~universe:Nodes ~n ~f in
  Obs.add c_sets_checked v.sets_checked;
  v

(* ------------------------------------------------------------------ *)
(* Bound certification.                                               *)
(* ------------------------------------------------------------------ *)

type certificate = {
  holds : bool;
  counterexample : int list option;
  cert_sets_checked : int;
}

(* Certification sweeps every canonical slice with [slice_exceeds] and
   keeps the sealed-lane masks, one word per slice. The verdict and its
   counters then come from the masks alone, block by block: a block
   counts its sets up to and including its first violating set, and a
   block with a violation counts one early exit. The lanes swept after
   a block's first violation are not counted, so [checked] and the
   early-exit count are those of a per-block sweep that stops at the
   first counterexample, and depend on the block list alone. *)
let certify_sweep ~jobs ~compiled ~universe ~n ~f ~bound =
  let lanes = Surviving.lane_capacity in
  let en = enumeration ~n ~f in
  let masks =
    sweep_slices ~jobs ~compiled ~universe ~count:(enum_count en) ~source:(enum_source en)
      ~init:(fun ~lo ~hi -> (lo, Array.make (hi - lo) 0))
      ~on_slice:(fun (lo, m) si _ sl -> m.(si - lo) <- Surviving.slice_exceeds sl ~bound)
      ~on_tail:(fun (lo, m) i _ ev ->
        if Surviving.diameter_exceeds ev ~bound then
          m.((i / lanes) - lo) <- m.((i / lanes) - lo) lor (1 lsl (i mod lanes)))
    |> Array.to_list |> List.map snd |> Array.concat
  in
  (* The first violating canonical index in [lo, hi), or [hi]. *)
  let rec first_violation lo hi =
    if lo >= hi then hi
    else begin
      let si = lo / lanes in
      let m = masks.(si) land (-1 lsl (lo mod lanes)) in
      let m = m land Bitset.mask (min lanes (hi - (si * lanes))) in
      if m <> 0 then (si * lanes) + Bitset.lowest_bit_index m
      else first_violation ((si + 1) * lanes) hi
    end
  in
  let checked = ref 0 and early = ref 0 and first = ref (-1) in
  Array.iteri
    (fun b _ ->
      let lo = en.starts.(b) and hi = en.starts.(b + 1) in
      let v = first_violation lo hi in
      if v = hi then checked := !checked + (hi - lo)
      else begin
        checked := !checked + (v - lo + 1);
        incr early;
        if !first < 0 then first := v
      end)
    en.blocks;
  Obs.add c_certify_sets !checked;
  Obs.add c_certify_early !early;
  let counterexample =
    if !first < 0 then None else Some (enum_source en !first ())
  in
  (counterexample, !checked)

let certify ?jobs routing ~f ~bound =
  Obs.with_span "tolerance.certify" @@ fun () ->
  Obs.incr c_certify_runs;
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let n = Graph.n (Routing.graph routing) in
  let compiled = Surviving.compile_cached routing in
  let counterexample, checked = certify_sweep ~jobs ~compiled ~universe:Nodes ~n ~f ~bound in
  { holds = counterexample = None; counterexample; cert_sets_checked = checked }

(* ------------------------------------------------------------------ *)
(* Sampling and pools.                                                *)
(* ------------------------------------------------------------------ *)

let random_subset rng n f =
  (* Floyd's algorithm for a uniform f-subset of [0, n). *)
  let chosen = Hashtbl.create (2 * f) in
  for j = n - f to n - 1 do
    let r = Random.State.int rng (j + 1) in
    let pick = if Hashtbl.mem chosen r then j else r in
    Hashtbl.replace chosen pick ()
  done;
  Hashtbl.fold (fun v () acc -> v :: acc) chosen [] |> List.sort Int.compare

let random ?jobs routing ~f ~rng ~samples =
  let n = Graph.n (Routing.graph routing) in
  let f = min f n in
  (* Draw every sample from the caller's RNG before evaluating, so the
     draws — and hence the verdict — cannot depend on [jobs]. *)
  let acc = ref [] in
  for _ = 1 to samples do
    acc := random_subset rng n f :: !acc
  done;
  let sets = [] :: List.rev !acc in
  check_sets ?jobs routing (List.to_seq sets)

let adversarial ?(per_pool_cap = 2000) ?jobs routing ~f ~pools =
  (* Pools overlap (the concentrator reappears in its members'
     neighborhoods), so identical subsets would be re-evaluated and
     inflate [sets_checked]; dedupe across pools, after the per-pool
     cap so single-pool counts are unchanged. *)
  let sets =
    List.fold_left
      (fun acc pool ->
        let pool = List.sort_uniq compare pool in
        Seq.append acc (Seq.take per_pool_cap (subsets_up_to pool f)))
      Seq.empty pools
  in
  let seen = Hashtbl.create 256 in
  let deduped =
    Seq.filter
      (fun s ->
        let key = List.sort Int.compare s in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      sets
  in
  check_sets ?jobs routing deduped

(* ------------------------------------------------------------------ *)
(* Sampled probing at scale.                                          *)
(* ------------------------------------------------------------------ *)

type sampled_verdict = {
  sv_holds : bool;
  sv_worst : Metrics.distance;
  sv_witness_faults : int list;
  sv_witness_pair : (int * int) option;
  sv_sets_checked : int;
  sv_pairs_checked : int;
}

let c_sampled_probes = Obs.counter "tolerance.sampled.pairs_probed"
let c_sampled_sets = Obs.counter "tolerance.sampled.sets_checked"

let sampled ?jobs ?(pools = []) ?probe_budget routing ~f ~bound ~rng ~sets ~pairs
    =
  Obs.with_span "tolerance.sampled" @@ fun () ->
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let g = Routing.graph routing in
  let n = Graph.n g in
  let budget = match probe_budget with Some b -> b | None -> (2 * n) + 1 in
  let trivial =
    {
      sv_holds = true;
      sv_worst = Metrics.Finite 0;
      sv_witness_faults = [];
      sv_witness_pair = None;
      sv_sets_checked = 0;
      sv_pairs_checked = 0;
    }
  in
  if n < 2 then trivial
  else begin
    let f = min f (n - 2) in
    (* Every draw happens before any evaluation, so the candidate list
       — and hence the verdict — cannot depend on [jobs]. *)
    let pair_arr =
      Array.init (max 0 pairs) (fun _ ->
          let src = Random.State.int rng n in
          let d = Random.State.int rng (n - 1) in
          (src, if d >= src then d + 1 else d))
    in
    let prefix_of l = List.filteri (fun i _ -> i < f) l in
    (* Adversarial sets: the [f] lowest neighbors of every sampled
       endpoint (isolating it outright when its degree is within the
       fault budget — the paper's cut adversary), then the [f] lowest
       members of each caller pool. *)
    let endpoint_sets =
      Array.to_list pair_arr
      |> List.concat_map (fun (s, d) -> [ s; d ])
      |> List.sort_uniq Int.compare
      |> List.map (fun v -> prefix_of (Array.to_list (Graph.neighbors g v)))
    in
    let pool_sets =
      List.map (fun p -> prefix_of (List.sort_uniq Int.compare p)) pools
    in
    let random_sets = ref [] in
    for _ = 1 to max 0 sets do
      random_sets := List.sort Int.compare (random_subset rng n f) :: !random_sets
    done;
    (* Canonical order: fault-free first, then adversarial, then the
       random draws; duplicates keep their first position. *)
    let seen = Hashtbl.create 64 in
    let set_arr =
      ([] :: endpoint_sets) @ pool_sets @ List.rev !random_sets
      |> List.map (List.sort_uniq Int.compare)
      |> List.filter (fun s ->
             (not (Hashtbl.mem seen s))
             && begin
                  Hashtbl.add seen s ();
                  true
                end)
      |> Array.of_list
    in
    let nsets = Array.length set_arr in
    let npairs = Array.length pair_arr in
    let count = nsets * npairs in
    if count = 0 then trivial
    else begin
      let chunks =
        Par.chunk ~jobs ~count
          ~init:(fun () -> Bitset.create n)
          ~task:(fun faults ~lo ~hi ->
            let worst = ref (Metrics.Finite (-1)) in
            let wfaults = ref [] in
            let wpair = ref None in
            let probed = ref 0 in
            let cur = ref (-1) in
            for idx = lo to hi - 1 do
              let si = idx / npairs and pi = idx mod npairs in
              if si <> !cur then begin
                if !cur >= 0 then List.iter (Bitset.remove faults) set_arr.(!cur);
                List.iter (Bitset.add faults) set_arr.(si);
                cur := si
              end;
              let src, dst = pair_arr.(pi) in
              (* Tolerance quantifies over non-faulty pairs only. *)
              if not (Bitset.mem faults src || Bitset.mem faults dst) then begin
                incr probed;
                let d =
                  Surviving.probe_distance routing ~faults ~src ~dst ~bound
                    ~budget
                in
                if not (Metrics.distance_le d !worst) then begin
                  worst := d;
                  wfaults := set_arr.(si);
                  wpair := Some (src, dst)
                end
              end
            done;
            (* The bitset is this domain's for every later task too:
               leave it empty, or the next task probes with stale
               faults. *)
            if !cur >= 0 then List.iter (Bitset.remove faults) set_arr.(!cur);
            (!worst, !wfaults, !wpair, !probed))
      in
      (* Ordered merge, earlier witness wins ties: [jobs]-independent. *)
      let worst = ref (Metrics.Finite (-1)) in
      let wfaults = ref [] in
      let wpair = ref None in
      let probed = ref 0 in
      Array.iter
        (fun (w, wf, wp, p) ->
          probed := !probed + p;
          if not (Metrics.distance_le w !worst) then begin
            worst := w;
            wfaults := wf;
            wpair := wp
          end)
        chunks;
      Obs.add c_sampled_probes !probed;
      Obs.add c_sampled_sets nsets;
      {
        sv_holds = Metrics.distance_le !worst (Metrics.Finite bound);
        sv_worst = (if !worst = Metrics.Finite (-1) then Metrics.Finite 0 else !worst);
        sv_witness_faults = !wfaults;
        sv_witness_pair = !wpair;
        sv_sets_checked = nsets;
        sv_pairs_checked = !probed;
      }
    end
  end

(* ------------------------------------------------------------------ *)
(* Edge-fault variants.                                               *)
(*                                                                    *)
(* Same canonical enumeration order (by size, then by maximum         *)
(* element, revolving-door blocks), the same batch kernel and the     *)
(* same ordered merge, but over the compiled table's edge universe.   *)
(* Witnesses surface as normalised (min, max) endpoint pairs.         *)
(* ------------------------------------------------------------------ *)

type edge_verdict = {
  e_worst : Metrics.distance;
  e_witness : (int * int) list;
  e_sets_checked : int;
  e_definitive : bool;
}

let edge_ids_exn compiled pairs =
  List.map
    (fun (u, v) ->
      match Surviving.edge_id compiled u v with
      | Some e -> e
      | None ->
          invalid_arg (Printf.sprintf "Tolerance: (%d, %d) is not a graph edge" u v))
    pairs

(* The reduction compares two diameters per set, one of them over a
   target subset, so it sweeps each block on incremental evaluators in
   revolving-door order, paying one edge swap per set, and reports
   every set to [consider] (which reads the evaluator's state). *)
let sweep_block_edges ev block ~consider =
  if block.b_top < 0 then begin
    Surviving.reset ev;
    consider ()
  end
  else begin
    Surviving.set_mixed_faults ev ~nodes:[] ~edges:[ block.b_top ];
    if block.b_size = 1 then consider ()
    else
      iter_combinations_gray ~n:block.b_top ~k:(block.b_size - 1)
        ~first:(fun c ->
          Array.iter (Surviving.apply_edge_fault ev) c;
          consider ())
        ~swap:(fun ~removed ~added ->
          Surviving.revert_edge_fault ev removed;
          Surviving.apply_edge_fault ev added;
          consider ())
  end

let check_edge_sets ?jobs routing sets =
  Obs.with_span "tolerance.check_edge_sets" @@ fun () ->
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let compiled = Surviving.compile_cached routing in
  (* Resolve endpoint pairs to edge ids up front so a non-edge fails
     loudly (and identically for every [jobs] value). *)
  let sets =
    Array.of_seq (Seq.map (fun s -> List.sort_uniq compare (edge_ids_exn compiled s)) sets)
  in
  let count = Array.length sets in
  if count = 0 then
    { e_worst = Metrics.Finite 0; e_witness = []; e_sets_checked = 0; e_definitive = false }
  else begin
    let v =
      sweep_diameters ~jobs ~compiled ~universe:Edges ~count ~source:(array_source sets)
        ~report:(fun _ s -> s)
    in
    Obs.add c_sets_checked v.sets_checked;
    {
      e_worst = v.worst;
      e_witness = List.map (Surviving.edge_pair compiled) v.witness;
      e_sets_checked = v.sets_checked;
      e_definitive = false;
    }
  end

let exhaustive_edges ?jobs routing ~f =
  Obs.with_span "tolerance.exhaustive_edges" @@ fun () ->
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let compiled = Surviving.compile_cached routing in
  let v =
    exhaustive_sweep ~jobs ~compiled ~universe:Edges ~n:(Surviving.edge_count compiled) ~f
  in
  Obs.add c_sets_checked v.sets_checked;
  {
    e_worst = v.worst;
    e_witness = List.map (Surviving.edge_pair compiled) v.witness;
    e_sets_checked = v.sets_checked;
    e_definitive = v.definitive;
  }

type edge_certificate = {
  e_holds : bool;
  e_counterexample : (int * int) list option;
  e_cert_sets_checked : int;
}

let certify_edges ?jobs routing ~f ~bound =
  Obs.with_span "tolerance.certify_edges" @@ fun () ->
  Obs.incr c_certify_runs;
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let compiled = Surviving.compile_cached routing in
  let counterexample, checked =
    certify_sweep ~jobs ~compiled ~universe:Edges ~n:(Surviving.edge_count compiled) ~f
      ~bound
  in
  {
    e_holds = counterexample = None;
    e_counterexample =
      Option.map (List.map (Surviving.edge_pair compiled)) counterexample;
    e_cert_sets_checked = checked;
  }

let random_edges ?jobs routing ~f ~rng ~samples =
  let compiled = Surviving.compile_cached routing in
  let m = Surviving.edge_count compiled in
  let f = min f m in
  (* Same discipline as [random]: every draw happens before any
     evaluation, so the verdict cannot depend on [jobs]. *)
  let acc = ref [] in
  for _ = 1 to samples do
    acc := List.map (Surviving.edge_pair compiled) (random_subset rng m f) :: !acc
  done;
  let sets = [] :: List.rev !acc in
  check_edge_sets ?jobs routing (List.to_seq sets)

(* ------------------------------------------------------------------ *)
(* The paper's edge-fault reduction, checked set by set.              *)
(* ------------------------------------------------------------------ *)

type reduction_report = {
  red_sets : int;
  red_violations : int;
  red_first_violation : (int * int) list option;
  red_worst_edge : Metrics.distance;
  red_worst_proj : Metrics.distance;
}

let reduction ?jobs routing ~f =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let compiled = Surviving.compile_cached routing in
  let m = Surviving.edge_count compiled in
  let blocks = blocks_up_to ~n:m ~f in
  let results =
    Par.run ~jobs ~ntasks:(Array.length blocks)
      ~init:(fun () -> (Surviving.evaluator compiled, Surviving.evaluator compiled))
      ~task:(fun (eev, pev) i ->
        let sets = ref 0 in
        let violations = ref 0 in
        let first = ref None in
        let worst_edge = ref (Metrics.Finite 0) in
        let worst_proj = ref (Metrics.Finite 0) in
        let n = Surviving.compiled_n compiled in
        sweep_block_edges eev blocks.(i) ~consider:(fun () ->
            incr sets;
            (* The paper's reduction: replace each downed link by its
               smaller endpoint, as a node fault. The claim is about
               distances between the projection's surviving nodes, so
               the link-fault diameter is restricted to them (the
               projected endpoints stay alive and may relay). *)
            let proj =
              List.sort_uniq compare
                (List.map
                   (fun e -> fst (Surviving.edge_pair compiled e))
                   (Surviving.edge_faults eev))
            in
            let survivors = Bitset.create n in
            for v = 0 to n - 1 do Bitset.add survivors v done;
            List.iter (Bitset.remove survivors) proj;
            let d_edge = Surviving.evaluator_diameter_over eev ~targets:survivors in
            Surviving.set_faults pev proj;
            let d_proj = Surviving.evaluator_diameter pev in
            worst_edge := Metrics.max_distance !worst_edge d_edge;
            worst_proj := Metrics.max_distance !worst_proj d_proj;
            if not (Metrics.distance_le d_edge d_proj) then begin
              incr violations;
              if !first = None then
                first :=
                  Some
                    (List.map (Surviving.edge_pair compiled) (Surviving.edge_faults eev))
            end);
        {
          red_sets = !sets;
          red_violations = !violations;
          red_first_violation = !first;
          red_worst_edge = !worst_edge;
          red_worst_proj = !worst_proj;
        })
  in
  Array.fold_left
    (fun acc r ->
      {
        red_sets = acc.red_sets + r.red_sets;
        red_violations = acc.red_violations + r.red_violations;
        red_first_violation =
          (match acc.red_first_violation with
          | Some _ -> acc.red_first_violation
          | None -> r.red_first_violation);
        red_worst_edge = Metrics.max_distance acc.red_worst_edge r.red_worst_edge;
        red_worst_proj = Metrics.max_distance acc.red_worst_proj r.red_worst_proj;
      })
    {
      red_sets = 0;
      red_violations = 0;
      red_first_violation = None;
      red_worst_edge = Metrics.Finite 0;
      red_worst_proj = Metrics.Finite 0;
    }
    results

let evaluate ?(exhaustive_budget = 20_000) ?(samples = 300)
    ?(attack_budget = Attack.default_config.Attack.budget) ?(corpus = []) ?jobs
    ~rng (c : Construction.t) ~f =
  let routing = c.Construction.routing in
  let n = Graph.n (Routing.graph routing) in
  if count_subsets_up_to ~n ~k:f <= exhaustive_budget then
    exhaustive ?jobs routing ~f
  else begin
    (* Stored witnesses replay first: a regression against the corpus
       should surface even if every fresh search misses it. *)
    let replay =
      match Attack.Corpus.replayable corpus ~n ~f with
      | [] -> None
      | sets ->
          Obs.with_span "tolerance.evaluate.replay" @@ fun () ->
          Obs.add c_corpus_replayed (List.length sets);
          Some (check_sets ?jobs routing (List.to_seq sets))
    in
    let adv =
      Obs.with_span "tolerance.evaluate.adversarial" @@ fun () ->
      adversarial ?jobs routing ~f ~pools:c.Construction.pools
    in
    let rnd =
      Obs.with_span "tolerance.evaluate.random" @@ fun () ->
      random ?jobs routing ~f ~rng ~samples
    in
    let atk =
      if attack_budget <= 0 then None
      else
        Obs.with_span "tolerance.evaluate.attack" @@ fun () ->
        let config = { Attack.default_config with Attack.budget = attack_budget } in
        let o = Attack.search ~config ?jobs ~rng ~pools:c.Construction.pools routing ~f in
        Some
          {
            worst = o.Attack.worst;
            witness = o.Attack.witness;
            sets_checked = o.Attack.evals;
            definitive = false;
          }
    in
    let acc = merge { adv with definitive = false } rnd in
    let acc = match replay with None -> acc | Some v -> merge v acc in
    match atk with None -> acc | Some v -> merge acc v
  end

let respects v ~bound = Metrics.distance_le v.worst (Metrics.Finite bound)
