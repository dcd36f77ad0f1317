(* The benchmark program: one workload, one seed, one run.  run.py
   builds it, times its set-up and reads the result line it prints
   last.  See README.md for the workloads and metrics. *)

open Common

type workload =
  | W : {
      setup : cfg -> 'st;
      run : cfg -> 'st -> tally -> (string * float) list;
      teardown : 'st -> unit;
    }
      -> workload

let workloads =
  [
    ("tune-p", W { setup = Tune.setup; teardown = Tune.teardown; run = Tune.run });
    ("reuse", W { setup = Reuse.setup; teardown = Reuse.teardown; run = Reuse.run });
  ]

let usage = "ftbench --workload NAME --seed N --seconds S --trace 0|1 --flextensor PATH"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let smoke = ref false and setup_only = ref false in
  let flextensor = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the inputs are made from");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 per-layer (traced) run");
      ("--smoke", Arg.Set smoke, " minimum sizes");
      ("--setup-only", Arg.Set setup_only, " set up, report readiness, tear down");
      ("--flextensor", Arg.Set_string flextensor, "PATH the flextensor CLI binary");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let (W w) =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S\n" !workload;
        exit 2
  in
  let cfg =
    {
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      smoke = !smoke;
      flextensor = !flextensor;
      out_dir = ".bench_out";
    }
  in
  (try Unix.mkdir cfg.out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let st = w.setup cfg in
  (* run.py times set-up up to this line *)
  print_endline "ready";
  if !setup_only then w.teardown st
  else begin
    let tally = tally () in
    let metrics =
      Fun.protect ~finally:(fun () -> w.teardown st) (fun () -> w.run cfg st tally)
    in
    List.iter (fun p -> Printf.eprintf "check failed: %s\n" p) (List.rev tally.problems);
    let metrics =
      if cfg.trace || List.mem_assoc "peak_rss_mb" metrics then metrics
      else ("peak_rss_mb", peak_rss_mb (Unix.getpid ())) :: metrics
    in
    let metrics =
      List.map
        (fun (name, unit) -> (name, Option.value (List.assoc_opt name metrics) ~default:0., unit))
        (if cfg.trace then per_layer else end_to_end)
    in
    if cfg.trace then
      Rec.write_trace
        (Filename.concat cfg.out_dir (Printf.sprintf "trace-%s-%d.jsonl" !workload cfg.seed))
        ~counts:[ ("attempted", tally.attempted); ("failed", tally.failed) ]
        ~metrics;
    print_endline
      (Rec.result_line ~correct:tally.correct ~attempted:tally.attempted ~failed:tally.failed
         metrics);
    exit (if tally.correct then 0 else 1)
  end
