let check_bool = Alcotest.(check bool)

let test_weight_properties () =
  Alcotest.(check (float 1e-9)) "best has weight 1" 1.
    (Ft_anneal.Sa.weight ~gamma:2. ~best:10. 10.);
  check_bool "worse is lighter" true
    (Ft_anneal.Sa.weight ~gamma:2. ~best:10. 5.
    < Ft_anneal.Sa.weight ~gamma:2. ~best:10. 9.);
  Alcotest.(check (float 1e-9)) "degenerate best" 1.
    (Ft_anneal.Sa.weight ~gamma:2. ~best:0. 0.)

let test_select_empty_and_count () =
  let rng = Ft_util.Rng.create 1 in
  Alcotest.(check int) "empty" 0
    (List.length (Ft_anneal.Sa.select rng ~gamma:2. ~count:3 []));
  Alcotest.(check int) "count" 5
    (List.length (Ft_anneal.Sa.select rng ~gamma:2. ~count:5 [ ("a", 1.) ]))

let test_select_returns_point_with_value () =
  let rng = Ft_util.Rng.create 1 in
  List.iter
    (fun (point, value) ->
      check_bool "pair intact" true
        ((point = "a" && value = 1.) || (point = "b" && value = 2.)))
    (Ft_anneal.Sa.select rng ~gamma:2. ~count:10 [ ("a", 1.); ("b", 2.) ])

let test_select_prefers_good_points () =
  let rng = Ft_util.Rng.create 42 in
  let points = [ ("bad", 1.); ("good", 10.) ] in
  let picks = Ft_anneal.Sa.select rng ~gamma:4. ~count:2000 points in
  let good =
    List.length (List.filter (fun (p, _) -> String.equal "good" p) picks)
  in
  check_bool "good dominates" true (good > 1800)

let test_gamma_controls_selectivity () =
  let count_good gamma =
    let rng = Ft_util.Rng.create 7 in
    let picks =
      Ft_anneal.Sa.select rng ~gamma ~count:2000 [ ("bad", 5.); ("good", 10.) ]
    in
    List.length (List.filter (fun (p, _) -> String.equal "good" p) picks)
  in
  check_bool "higher gamma is greedier" true (count_good 8. > count_good 0.5)

(* The list algorithm [Sa.select] used before H became an archive,
   kept as the reference the archive must match bit for bit: a fold for
   the best, a fresh (point, weight) list, and a linear first-exceed
   scan per draw. *)
module Oracle = struct
  let pick_at ~threshold weighted =
    let rec go acc = function
      | [] -> invalid_arg "Oracle.pick_at: empty"
      | [ (point, _) ] -> point
      | (point, w) :: rest ->
          let acc = acc +. w in
          if acc > threshold then point else go acc rest
    in
    go 0. weighted

  let weighted_pick rng weighted =
    let total = List.fold_left (fun acc (_, w) -> acc +. w) 0. weighted in
    if total <= 0. then fst (Ft_util.Rng.choose rng weighted)
    else pick_at ~threshold:(Ft_util.Rng.float rng total) weighted

  let weigh ~gamma points =
    let best =
      List.fold_left (fun acc (_, value) -> Float.max acc value) neg_infinity points
    in
    List.map
      (fun ((_, value) as point) -> (point, Ft_anneal.Sa.weight ~gamma ~best value))
      points

  let select rng ~gamma ~count points =
    match points with
    | [] -> []
    | _ ->
        let weighted = weigh ~gamma points in
        List.init count (fun _ -> weighted_pick rng weighted)
end

module Archive = Ft_anneal.Sa.Archive

(* An archive holding [values] added oldest first, and the same H as
   the newest-first list the oracle reads; points are their indices. *)
let both_of values =
  let archive = Archive.create () in
  List.iteri (fun i v -> Archive.add archive i v) values;
  (archive, List.rev (List.mapi (fun i v -> (i, v)) values))

let same_pairs a b =
  List.length a = List.length b
  && List.for_all2
       (fun (p, v) (q, w) ->
         p = q && Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float w))
       a b

(* Regression: the scan once used `acc >= threshold`, so a zero-weight
   head could swallow a threshold of exactly 0 — a draw that should land
   in the first *positive*-weight element.  Fixed thresholds: exactly on
   a prefix sum, past the total, and on 0. with zero-weight heads.
   Weight 1 is a value equal to the best, and weight 0 a value far below
   it at a gamma where exp underflows. *)
let test_pick_at_skips_zero_weights () =
  let z = 0. and a = 1. and huge = 1e6 in
  let case name ~gamma ~threshold values expected =
    let archive, list = both_of values in
    let got = Archive.pick_at archive ~gamma ~threshold in
    Alcotest.(check int) name expected (fst got);
    Alcotest.(check int) (name ^ " = oracle") expected
      (fst (Oracle.pick_at ~threshold (Oracle.weigh ~gamma list)))
  in
  (* values are oldest first; the scan runs newest first *)
  case "threshold 0 skips a zero-weight head" ~gamma:huge ~threshold:0. [ a; z ] 0;
  case "several zero-weight heads" ~gamma:huge ~threshold:0. [ a; z; z; z ] 0;
  case "mid threshold" ~gamma:2. ~threshold:1.5 [ a; a; a ] 1;
  case "boundary goes to the next element" ~gamma:2. ~threshold:1.0 [ a; a ] 0;
  case "fallback at the total" ~gamma:2. ~threshold:2.0 [ a; a ] 0;
  case "fallback past the total" ~gamma:2. ~threshold:7.0 [ a; a; a ] 0;
  case "NaN threshold falls back" ~gamma:2. ~threshold:nan [ a; a; a ] 0

let test_weighted_pick_never_zero_weight () =
  let rng = Ft_util.Rng.create 17 in
  (* newest first: dead2, alive, dead *)
  let archive, _ = both_of [ 0.; 1.; 0. ] in
  List.iter
    (fun (point, _) -> check_bool "only positive-weight points" true (point = 1))
    (Archive.select archive rng ~gamma:1e6 ~count:2_000)

type op = Add of float | Select of float * int

let pp_op = function
  | Add v -> Printf.sprintf "add %h" v
  | Select (gamma, count) -> Printf.sprintf "select gamma=%g count=%d" gamma count

(* Random interleavings of adds and selects over value regimes that
   reach every branch: rising values (incumbent improvements mid
   stream), all non-positive (uniform draws), duplicates, and special
   values (NaN, infinities, signed zeros); gammas include 0 and one at
   which weights underflow to 0. *)
let gen_program =
  let open QCheck.Gen in
  let special = oneofl [ nan; infinity; neg_infinity; 0.; -0.; 1e-300 ] in
  let value regime =
    match regime with
    | 0 -> float_range 0.1 100.
    | 1 -> frequency [ (4, float_range (-50.) 0.); (1, return 0.) ]
    | 2 -> oneofl [ 1.; 2.; 2.; 5.; 5.; 5. ]
    | _ -> frequency [ (6, float_range (-5.) 20.); (1, special) ]
  in
  let gamma = oneofl [ 0.; 0.5; 2.; 2.; 8.; 1e6 ] in
  let op regime =
    frequency
      [
        (5, map (fun v -> Add v) (value regime));
        (2, map2 (fun g c -> Select (g, c)) gamma (int_range 0 6));
      ]
  in
  triple (int_bound 1_000_000) (int_bound 3)
    (int_range 1 120) >>= fun (seed, regime, len) ->
  map (fun ops -> (seed, ops)) (list_repeat len (op regime))

let qcheck_archive_matches_oracle =
  QCheck.Test.make ~name:"archive select = list oracle" ~count:500
    (QCheck.make gen_program ~print:(fun (seed, ops) ->
         Printf.sprintf "seed %d: %s" seed (String.concat "; " (List.map pp_op ops))))
    (fun (seed, ops) ->
      let archive = Archive.create () in
      let h = ref [] and n = ref 0 in
      let rng_a = Ft_util.Rng.create seed and rng_o = Ft_util.Rng.create seed in
      List.iter
        (function
          | Add v ->
              Archive.add archive !n v;
              h := (!n, v) :: !h;
              incr n
          | Select (gamma, count) ->
              let got = Archive.select archive rng_a ~gamma ~count in
              let want = Oracle.select rng_o ~gamma ~count !h in
              if not (same_pairs got want) then
                QCheck.Test.fail_reportf "draws differ at |H| = %d" !n;
              if Ft_util.Rng.state rng_a <> Ft_util.Rng.state rng_o then
                QCheck.Test.fail_reportf "rng state differs at |H| = %d" !n;
              (* the list entry point replays the same draws cold *)
              let rng_l = Ft_util.Rng.create seed and rng_r = Ft_util.Rng.create seed in
              if
                not
                  (same_pairs
                     (Ft_anneal.Sa.select rng_l ~gamma ~count !h)
                     (Oracle.select rng_r ~gamma ~count !h))
              then QCheck.Test.fail_reportf "list select differs at |H| = %d" !n)
        ops;
      true)

(* A warm selection reuses the cached weights and prefix array: its
   allocation is the returned pairs, not a copy of H. *)
let test_warm_select_allocation () =
  let archive = Archive.create () in
  let rng = Ft_util.Rng.create 5 in
  for i = 0 to 9_999 do
    Archive.add archive i (Ft_util.Rng.float rng 100.)
  done;
  ignore (Archive.select archive rng ~gamma:2. ~count:4);
  let before = Gc.minor_words () in
  let picks = Archive.select archive rng ~gamma:2. ~count:4 in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "four picks" 4 (List.length picks);
  check_bool (Printf.sprintf "warm select allocates %.0f words < 1000" words) true
    (words < 1000.)

(* Regression: select's best-value fold used to start at 0., fabricating
   a phantom best when every real value was below it. *)
let test_select_all_negative_or_sentinel () =
  let rng = Ft_util.Rng.create 23 in
  let picks =
    Ft_anneal.Sa.select rng ~gamma:2. ~count:50 [ ("a", -3.); ("b", -1.) ]
  in
  Alcotest.(check int) "all-negative pool still yields picks" 50
    (List.length picks);
  let rng = Ft_util.Rng.create 29 in
  let picks =
    Ft_anneal.Sa.select rng ~gamma:2. ~count:5000
      [ ("unreached", neg_infinity); ("real", 1.) ]
  in
  check_bool "never selects an unreached sentinel" true
    (List.for_all (fun (p, _) -> String.equal p "real") picks)

(* [anneal.reweigh] counts full weight recomputes — an incumbent
   improvement or a new gamma — and [anneal.h] is |H| at the last
   selection. *)
let test_archive_telemetry () =
  let module Trace = Ft_obs.Trace in
  Trace.enable Trace.Sink.null;
  let rng = Ft_util.Rng.create 9 in
  let archive, _ = both_of [ 1.; 3.; 2. ] in
  let select gamma = ignore (Archive.select archive rng ~gamma ~count:2) in
  select 2.;
  Archive.add archive 3 0.5;
  select 2.;
  let quiet = List.assoc_opt "anneal.reweigh" (Trace.counters ()) in
  Archive.add archive 4 7.;
  select 2.;
  select 4.;
  let reweighs = List.assoc_opt "anneal.reweigh" (Trace.counters ()) in
  let h = List.assoc_opt "anneal.h" (Trace.gauges ()) in
  Trace.close ();
  Alcotest.(check (option int)) "first weights and new points are no reweigh" None quiet;
  Alcotest.(check (option int)) "new best, new gamma" (Some 2) reweighs;
  Alcotest.(check (option (float 0.))) "H size" (Some 5.) h

let test_accept () =
  let rng = Ft_util.Rng.create 3 in
  check_bool "improvement always accepted" true
    (Ft_anneal.Sa.accept rng ~temperature:0. ~current:1. ~candidate:2.);
  check_bool "zero temperature rejects worse" false
    (Ft_anneal.Sa.accept rng ~temperature:0. ~current:2. ~candidate:1.);
  (* at high temperature, worse candidates get through sometimes *)
  let accepted = ref 0 in
  for _ = 1 to 1000 do
    if Ft_anneal.Sa.accept rng ~temperature:1.0 ~current:2. ~candidate:1.5 then
      incr accepted
  done;
  check_bool "hot chain accepts some" true (!accepted > 100)

let () =
  Alcotest.run "ft_anneal"
    [
      ( "sa",
        [
          Alcotest.test_case "weights" `Quick test_weight_properties;
          Alcotest.test_case "select basics" `Quick test_select_empty_and_count;
          Alcotest.test_case "select keeps values" `Quick
            test_select_returns_point_with_value;
          Alcotest.test_case "prefers good" `Quick test_select_prefers_good_points;
          Alcotest.test_case "gamma selectivity" `Quick test_gamma_controls_selectivity;
          Alcotest.test_case "pick_at thresholds" `Quick
            test_pick_at_skips_zero_weights;
          Alcotest.test_case "weighted_pick zero weights" `Quick
            test_weighted_pick_never_zero_weight;
          Alcotest.test_case "select degenerate values" `Quick
            test_select_all_negative_or_sentinel;
          Alcotest.test_case "metropolis accept" `Quick test_accept;
          QCheck_alcotest.to_alcotest qcheck_archive_matches_oracle;
          Alcotest.test_case "warm select allocation" `Quick
            test_warm_select_allocation;
          Alcotest.test_case "archive telemetry" `Quick test_archive_telemetry;
        ] );
    ]
