(* The lowering layer, through the `optimize --measure` path: each
   operator gets a short search whose winner is measured through the
   sandbox measurer, then a seeded sample of configs is measured the
   same way.  It runs in the traced run of tune-p (see README.md for
   why it is not a workload of its own) and reports per-layer metrics
   only.

   Tiny kernels (a few ms per repetition) make the sandbox's own cost —
   process start, pipe, watchdog — the larger share; the medium kernel
   makes lowering, compilation and the kernel itself the larger share.
   Searches run at the default pool size, as a user's do, so every
   measurement follows a multi-domain search. *)

open Common
module F = Flextensor

type op = { name : string; graph : Ft_ir.Op.graph; target : F.Target.t }

let ops smoke =
  let op name graph =
    { name; graph = Ft_ir.Op.validate_exn graph; target = F.Target.xeon_e5_2699_v4 }
  in
  if smoke then [ op "gemm16" (F.Operators.gemm ~m:16 ~n:16 ~k:16) ]
  else
    [
      op "gemm32" (F.Operators.gemm ~m:32 ~n:32 ~k:32);
      op "conv8x16" (F.Operators.conv2d ~pad:1 ~batch:1 ~in_channels:8 ~out_channels:8
                       ~height:16 ~width:16 ~kernel:3 ());
      op "gemm64" (F.Operators.gemm ~m:64 ~n:64 ~k:64);
    ]

let sample_size smoke = if smoke then 3 else 16

type state = { ops : op list }

(* How one sandboxed measurement ended.  The sandbox reports faults as
   an invalid perf whose note names the cause; an exception escaping
   the measurer is its own cause. *)
let outcome (perf : F.Perf.t) =
  let has prefix = String.starts_with ~prefix perf.F.Perf.note in
  match perf.F.Perf.source with
  | F.Perf.Measured _ when perf.F.Perf.valid -> "ok"
  | _ ->
      if has "preflight:" then "preflight"
      else if has "sandbox: timeout" then "timeout"
      else if has "sandbox: crashed" then "crashed"
      else if has "sandbox: out of memory" then "oom"
      else if has "sandbox: protocol" then "protocol"
      else "invalid"

type measurement = { cfg : F.Config.t; wall : float; result : string }

type op_result = { space : F.Space.t; measurements : measurement list }

let fault_counts : (string, int) Hashtbl.t = Hashtbl.create 8

let count_fault kind =
  Hashtbl.replace fault_counts kind
    (1 + Option.value (Hashtbl.find_opt fault_counts kind) ~default:0)

(* The search and the sample depend only on the run's seed, so the
   warm-up pass and the timed one do the same work. *)
let measure_op (cfg : cfg) tally index op =
  let space = F.Space.make op.graph op.target in
  let sandboxed = F.Sandbox.measurer space in
  let log = ref [] in
  let measurer c =
    Rec.timed "measure.sandbox" (fun () ->
        let t0 = Rec.now () in
        let result, perf =
          match sandboxed c with
          | perf -> (outcome perf, perf)
          | exception e ->
              ("uncaught", F.Perf.invalid ("uncaught: " ^ Printexc.to_string e))
        in
        attempt tally (result = "ok");
        if result <> "ok" then count_fault result;
        log := { cfg = c; wall = Rec.now () -. t0; result } :: !log;
        perf)
  in
  let options =
    { F.default_options with n_trials = (if cfg.smoke then 3 else 8); seed = cfg.seed }
  in
  (match Rec.timed "measure.search" (fun () -> F.optimize ~options ~measurer op.graph op.target) with
  | _ -> attempt tally true
  | exception e ->
      attempt tally false;
      check tally false (op.name ^ ": search raised " ^ Printexc.to_string e));
  let rng = Ft_util.Rng.create ((cfg.seed * 1009) + index) in
  for _ = 1 to sample_size cfg.smoke do
    ignore (measurer (F.Space.random_config rng space))
  done;
  { space; measurements = List.rev !log }

let pass cfg tally st = List.mapi (measure_op cfg tally) st.ops

(* Every distinct config measured, by operator: (op index, config
   text) -> (space, config). *)
let remember measured pass =
  List.iteri
    (fun i r ->
      List.iter
        (fun m -> Hashtbl.replace measured (i, F.Config_io.to_string m.cfg) (r.space, m.cfg))
        r.measurements)
    pass

(* Compiled output of every remembered config equals the reference
   interpreter on the same seeded inputs. *)
let check_outputs tally st measured =
  List.iteri
    (fun i op ->
      let configs =
        Hashtbl.fold (fun (j, key) (space, c) acc -> if j = i then (key, space, c) :: acc else acc)
          measured []
      in
      match configs with
      | [] -> ()
      | (_, space, _) :: _ ->
          let graph = space.F.Space.graph in
          let env () = Ft_interp.Reference.random_env (Ft_util.Rng.create 7) graph in
          let expected = Ft_interp.Reference.run_graph (env ()) graph in
          let scale = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 1. expected in
          List.iter
            (fun (key, space, c) ->
              let env = env () in
              F.Compile.run (F.Compile.compile (F.Lowering.lower space c)) env;
              let got = Ft_interp.Buffer_env.(to_array (find env graph.output)) in
              check tally
                (Array.length got = Array.length expected
                && Ft_interp.Buffer_env.max_abs_diff got expected <= 1e-9 *. scale)
                (Printf.sprintf "%s: compiled output differs from reference for %s" op.name key))
            configs)
    st.ops

let ok_measurements pass =
  List.concat_map
    (fun r -> List.filter_map (fun m -> if m.result = "ok" then Some m.wall else None) r.measurements)
    pass

(* The layer's metrics.  Its operations keep a tally of their own: at
   this version of the library they fail (README.md), which the fault
   counts report; a failed output check still fails the run. *)
let layer (cfg : cfg) tally =
  let own = Common.tally () in
  let st = { ops = ops cfg.smoke } in
  (* a first pass pays one-off costs the timed one must not *)
  ignore (pass cfg own st);
  Rec.on := true;
  let t0 = Rec.now () in
  let timed = Rec.timed "measure.pass" (fun () -> pass cfg own st) in
  let wall = Rec.now () -. t0 in
  let measured = Hashtbl.create 64 in
  remember measured timed;
  check_outputs own st measured;
  (* direct calls into the lowering layer on every config measured *)
  let direct =
    List.concat_map
      (fun r ->
        List.map
          (fun m ->
            let program, lower_s = time (fun () -> F.Lowering.lower r.space m.cfg) in
            let _, compile_s = time (fun () -> F.Compile.compile program) in
            let perf, in_process_s = time (fun () -> F.Measure.run r.space m.cfg) in
            (m, lower_s, compile_s, perf.F.Perf.time_s, in_process_s))
          r.measurements)
      timed
  in
  Rec.on := false;
  List.iter (fun msg -> check tally false msg) (List.rev own.problems);
  let ms f = List.map (fun row -> 1e3 *. f row) direct in
  let sandboxed_ok = ok_measurements timed in
  let faults kind = float_of_int (Option.value (Hashtbl.find_opt fault_counts kind) ~default:0) in
  [
    ("lower.lower_ms", Rec.median (ms (fun (_, l, _, _, _) -> l)));
    ("lower.compile_ms", Rec.median (ms (fun (_, _, c, _, _) -> c)));
    ("lower.kernel_ms", Rec.median (ms (fun (_, _, _, k, _) -> k)));
    ( "lower.sandbox_overhead_ms",
      Rec.median
        (List.filter_map
           (fun (m, _, _, _, in_process) ->
             if m.result = "ok" then Some (1e3 *. (m.wall -. in_process)) else None)
           direct) );
    ("lower.preflight_rejects", faults "preflight");
    ("lower.faults.timeout", faults "timeout");
    ("lower.faults.crashed", faults "crashed");
    ("lower.faults.oom", faults "oom");
    ("lower.faults.protocol", faults "protocol");
    ("lower.faults.uncaught", faults "uncaught");
    ("measure_ms_p50", 1e3 *. Rec.median sandboxed_ok);
    ("measure_ms_p90", 1e3 *. Rec.percentile 90. sandboxed_ok);
    ("measurements_per_s", float_of_int (List.length sandboxed_ok) /. wall);
  ]
