(* tune-p: cold P-method searches over a fixed operator list that
   covers the three targets, at the default pool size.  With no network
   and H growing to thousands of points, their time goes to annealing
   selection, config keys, cost-model queries and pool batches.

   The traced run also runs short Q-method searches on the same list:
   H stays small there, so their time goes to the Q-network forward and
   training steps, which the per-layer qlearn metrics time. *)

open Common
module F = Flextensor

type task = { name : string; graph : Ft_ir.Op.graph; target : F.Target.t }

let yolo name = Ft_workloads.Yolo.graph (Ft_workloads.Yolo.find name)

let tasks smoke =
  let task name graph target =
    { name; graph = Ft_ir.Op.validate_exn graph; target }
  in
  if smoke then
    [
      task "gemm64/v100" (F.Operators.gemm ~m:64 ~n:64 ~k:64) F.Target.v100;
      task "C15/xeon" (yolo "C15") F.Target.xeon_e5_2699_v4;
    ]
  else
    [
      task "gemm512/v100" (F.Operators.gemm ~m:512 ~n:512 ~k:512) F.Target.v100;
      task "C8/v100" (yolo "C8") F.Target.v100;
      task "C8/xeon" (yolo "C8") F.Target.xeon_e5_2699_v4;
      task "C3/vu9p" (yolo "C3") F.Target.vu9p;
    ]

type state = { tasks : task list }

(* Before the first search a user pays for process start and the
   domain pool's spawn. *)
let setup (cfg : cfg) =
  ignore (Ft_par.Pool.map (Ft_par.Pool.default ()) Fun.id [ 1; 2; 3; 4 ]);
  { tasks = tasks cfg.smoke }

let teardown (_ : state) = ()

(* Every pass runs the same searches (the run's seed), so each task is
   one operation repeated. *)
let options (cfg : cfg) ~search =
  let n_trials =
    match (search, cfg.smoke) with
    | "Q-method", false -> 30
    | _, false -> 150
    | "Q-method", true -> 4
    | _, true -> 10
  in
  { F.default_options with search; n_trials; seed = cfg.seed }

(* What a run keeps of one search: the report itself is dropped, so
   memory does not grow with the number of passes. *)
type outcome = { time : float; config : string; value : float; evals : int }

let winner o = (o.config, bits o.value)

(* One search task, or the exception it raised. *)
let search ?dispatch options task =
  match time (fun () -> F.optimize ~options ?dispatch task.graph task.target) with
  | (r : F.report), time ->
      Ok { time; config = F.Config_io.to_string r.config; value = r.perf_value; evals = r.n_evals }
  | exception e -> Error (Printexc.to_string e)

let pass ?dispatch_for tally options tasks =
  List.map
    (fun task ->
      let dispatch = Option.map (fun f -> f task) dispatch_for in
      let out = Rec.timed "tune.search" (fun () -> search ?dispatch options task) in
      attempt tally (Result.is_ok out);
      (match out with
      | Error e -> check tally false (Printf.sprintf "%s: search raised %s" task.name e)
      | Ok _ -> ());
      (task, out))
    tasks

(* Each winner must replay exactly through the public reapply path. *)
let check_winners tally pass =
  List.iter
    (fun (task, out) ->
      match out with
      | Error _ -> ()
      | Ok o -> (
          match F.reapply task.graph task.target o.config with
          | Ok rep ->
              check tally
                ((F.Config_io.to_string rep.config, bits rep.perf_value) = winner o)
                (task.name ^ ": reapplied winner differs")
          | Error e -> check tally false (task.name ^ ": reapply failed: " ^ e)))
    pass

let ok_times pass =
  List.filter_map (function _, Ok o -> Some o.time | _, Error _ -> None) pass

let gflops pass =
  Rec.geomean (List.filter_map (function _, Ok o -> Some o.value | _, Error _ -> None) pass)

let untraced (cfg : cfg) st tally ~search:name =
  let options = options cfg ~search:name in
  let fastest = fastest () in
  let passes =
    repeat_for cfg.seconds (fun () ->
        let p = pass tally options st.tasks in
        List.iter (function task, Ok o -> note fastest task.name o.time | _, Error _ -> ()) p;
        p)
  in
  (* the searches are deterministic: every pass finds pass 0's winners *)
  let first = List.hd passes in
  List.iter
    (List.iter2
       (fun (task, a) (_, b) ->
         match (a, b) with
         | Ok a, Ok b -> check tally (winner a = winner b) (task.name ^ ": winner differs between passes")
         | _ -> ())
       first)
    passes;
  check_winners tally first;
  [
    ("op_ms", op_ms [ fastest ]);
    ("ok_ratio", 1. -. fail_ratio tally);
    ("best_gflops_geomean", gflops first);
  ]

(* ---------------------------------------------------------------- *)
(* Traced run                                                       *)

(* What the dispatch hook saw during one search. *)
type probe = {
  mutable calls : int list;  (** batch sizes, newest first *)
  mutable regions : float list;  (** wall of each pool region *)
  mutable singles : float list;  (** wall of one-point batches *)
  mutable queries : float list;  (** wall of each cost-model query *)
  mutable busy : float;  (** query time inside pool regions *)
  mutable seen : (F.Config.t * float) list;  (** newest first *)
}

let probe () =
  { calls = []; regions = []; singles = []; queries = []; busy = 0.; seen = [] }

(* The in-process evaluation path, called from outside: exactly what
   [Evaluator.prepare] does without a hook (one-point batches inline,
   larger ones over the default pool), so the search is bit-for-bit
   the untraced one. *)
let hook probe (task : task) options : F.Evaluator.dispatch =
  let space = F.Space.make task.graph task.target in
  let flops_scale = options.F.flops_scale in
  fun keyed ->
    let eval (cfg, _) =
      let t0 = F.Monotime.now_s () in
      let perf = Ft_hw.Cost.evaluate ~flops_scale space cfg in
      let value = Ft_hw.Cost.perf_value space perf in
      ((value, perf), F.Monotime.now_s () -. t0)
    in
    let t0 = F.Monotime.now_s () in
    let out =
      match keyed with
      | [] | [ _ ] -> List.map eval keyed
      | _ -> Rec.timed "par.region" (fun () -> Ft_par.Pool.map (Ft_par.Pool.default ()) eval keyed)
    in
    let wall = F.Monotime.now_s () -. t0 in
    probe.calls <- List.length keyed :: probe.calls;
    (match keyed with
    | [] | [ _ ] -> probe.singles <- wall :: probe.singles
    | _ ->
        probe.regions <- wall :: probe.regions;
        List.iter (fun (_, q) -> probe.busy <- probe.busy +. q) out);
    List.iter2
      (fun (cfg, _) ((value, _), q) ->
        probe.queries <- q :: probe.queries;
        probe.seen <- (cfg, value) :: probe.seen)
      keyed out;
    List.map fst out

(* Unit costs of the layers a search passes through, measured by
   replaying the configs the hook saw through each public function. *)
type replay = {
  space_make_s : float;
  key_s : float;
  neighbors_s : float;
  features_s : float;
  select_s : float list;  (** one Sa.select at each of 8 H sizes *)
  forward_row_s : float;
  train_round_s : float list;
}

let replay (cfg : cfg) options task probe ~q =
  let space_make_s =
    Rec.median (List.init 3 (fun _ -> snd (time (fun () -> F.Space.make task.graph task.target))))
  in
  let space = F.Space.make task.graph task.target in
  let seen = List.rev probe.seen in
  let cfgs = List.map fst seen in
  let key_s = per_call F.Config.compute_key (spread 4000 cfgs) in
  let neighbors_s = per_call (F.Neighborhood.neighbors space) (spread 300 cfgs) in
  let features_s = per_call (F.Space.features space) (spread 4000 cfgs) in
  let h = Array.of_list seen in
  let rng = Ft_util.Rng.create cfg.seed in
  (* midpoints of eight equal slices of the run, so that the mean of
     the eight samples is the mean over trials while H grows *)
  let select_s =
    List.init 8 (fun i ->
        let n = max 1 (Array.length h * ((2 * i) + 1) / 16) in
        let points = Array.to_list (Array.sub h 0 (min n (Array.length h))) in
        let reps = max 1 (min 50 (20000 / n)) in
        per_call
          (fun () ->
            Ft_anneal.Sa.select rng ~gamma:options.F.gamma ~count:options.F.n_starts points)
          (List.init reps (fun _ -> ())))
  in
  let forward_row_s, train_round_s =
    if not q then (0., [])
    else begin
      let n_actions = List.length (F.Neighborhood.directions space) in
      let agent =
        Ft_qlearn.Agent.create (Ft_util.Rng.create cfg.seed)
          ~feature_dim:(F.Space.feature_dim space) ~n_actions
      in
      let feats = Array.of_list (List.map (F.Space.features space) (spread 64 cfgs)) in
      let nf = Array.length feats in
      let rows = Array.init options.F.n_starts (fun i -> feats.(i mod nf)) in
      let forward_row_s =
        per_call (fun () -> Ft_qlearn.Agent.q_values_batch agent rows) (List.init 200 (fun _ -> ()))
        /. float_of_int (Array.length rows)
      in
      let all_actions = List.init n_actions Fun.id in
      let rounds = ref [] in
      for i = 0 to 119 do
        let transition =
          {
            Ft_qlearn.Agent.state = feats.(i mod nf);
            action = i mod n_actions;
            reward = 0.01 *. float_of_int (i mod 7);
            next_state = feats.((i + 1) mod nf);
            next_valid = all_actions;
          }
        in
        let t0 = Rec.now () in
        match Ft_qlearn.Agent.record agent transition with
        | Some _ when i >= 20 -> rounds := (Rec.now () -. t0) :: !rounds
        | Some _ | None -> ()
      done;
      (forward_row_s, !rounds)
    end
  in
  { space_make_s; key_s; neighbors_s; features_s; select_s; forward_row_s; train_round_s }

(* Q-method: every fresh point after the initial batch is one agent
   action (proposals skip visited points). *)
let actions probe ~q =
  if not q then 0
  else
    match List.rev probe.calls with
    | [] | [ _ ] -> 0
    | _init :: rest -> List.fold_left ( + ) 0 rest

let train_every = 5

type row = { o : outcome; p : probe; rp : replay }

let traced (cfg : cfg) st tally ~search:name =
  let q = name = "Q-method" in
  let options = options cfg ~search:name in
  Rec.gc_start ();
  let untraced_pass = pass tally options st.tasks in
  let gc = Rec.gc_metrics () in
  let probes = List.map (fun task -> (task.name, probe ())) st.tasks in
  Rec.on := true;
  let traced_pass =
    pass tally options st.tasks ~dispatch_for:(fun task ->
        hook (List.assoc task.name probes) task options)
  in
  (* The hook must not change the search: same winners as untraced. *)
  List.iter2
    (fun (task, a) (_, b) ->
      match (a, b) with
      | Ok a, Ok b ->
          check tally (winner a = winner b) (task.name ^ ": traced winner differs from untraced")
      | _ -> ())
    untraced_pass traced_pass;
  check_winners tally untraced_pass;
  let rows =
    List.filter_map
      (fun (task, out) ->
        match out with
        | Error _ -> None
        | Ok o ->
            let p = List.assoc task.name probes in
            Some { o; p; rp = Rec.timed "tune.replay" (fun () -> replay cfg options task p ~q) })
      traced_pass
  in
  Rec.on := false;
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0. rows in
  let all f = List.concat_map f rows in
  let each f = List.map f rows in
  let n_trials = float_of_int options.F.n_trials in
  let actions r = float_of_int (actions r.p ~q) in
  let queries r = float_of_int (List.length r.p.queries) in
  let neighbors_calls r =
    if q then 2. *. actions r else n_trials *. float_of_int options.F.n_starts
  in
  let attributed r =
    Rec.sum r.p.regions +. Rec.sum r.p.singles +. r.rp.space_make_s
    +. (n_trials *. Rec.mean r.rp.select_s)
    +. (queries r *. r.rp.key_s)
    +. (neighbors_calls r *. r.rp.neighbors_s)
    +. (3. *. actions r *. r.rp.features_s)
    +. (actions r *. r.rp.forward_row_s)
    +. (actions r /. float_of_int train_every *. Rec.mean r.rp.train_round_s)
  in
  let ratio a b = if b > 0. then a /. b else 0. in
  let wall_traced = sum (fun r -> r.o.time) in
  let wall_untraced = Rec.sum (ok_times untraced_pass) in
  let attributed_s = sum attributed in
  let evals = sum (fun r -> float_of_int r.o.evals) in
  let lanes = float_of_int (Ft_par.Pool.lanes (Ft_par.Pool.default ())) in
  [
    ("par.regions", sum (fun r -> float_of_int (List.length r.p.regions)));
    ("par.region_us_p50", 1e6 *. Rec.median (all (fun r -> r.p.regions)));
    ("par.lane_busy_ratio", ratio (sum (fun r -> r.p.busy)) (lanes *. sum (fun r -> Rec.sum r.p.regions)));
    ("hw.cost_queries", sum queries);
    ("hw.cost_query_us_p50", 1e6 *. Rec.median (all (fun r -> r.p.queries)));
    ("schedule.space_make_ms", 1e3 *. Rec.median (each (fun r -> r.rp.space_make_s)));
    ("schedule.key_calls", sum queries);
    ("schedule.key_us", 1e6 *. ratio (sum (fun r -> queries r *. r.rp.key_s)) (sum queries));
    ("schedule.neighbors_calls", sum neighbors_calls);
    ("schedule.neighbors_us", 1e6 *. Rec.mean (each (fun r -> r.rp.neighbors_s)));
    ("schedule.features_us", 1e6 *. Rec.mean (each (fun r -> r.rp.features_s)));
    ("anneal.h_final", Rec.mean (each (fun r -> float_of_int (List.length r.p.seen))));
    ("anneal.select_us_p50", 1e6 *. Rec.median (all (fun r -> r.rp.select_s)));
    ("qlearn.actions", sum actions);
    ("qlearn.forward_us_per_row", 1e6 *. Rec.mean (each (fun r -> r.rp.forward_row_s)));
    ("qlearn.train_rounds", Float.round (sum actions /. float_of_int train_every));
    ("qlearn.train_ms", 1e3 *. Rec.median (all (fun r -> r.rp.train_round_s)));
    ("explore.evals", evals);
    ("explore.evals_per_s", ratio evals wall_untraced);
    ("explore.self_ms", 1e3 *. (wall_traced -. attributed_s));
    ("search_s", wall_untraced);
    ("obs.trace_overhead_ratio", ratio wall_traced wall_untraced -. 1.);
    ("attributed_ratio", ratio attributed_s wall_traced);
    ("fail_ratio", fail_ratio tally);
  ]
  @ gc

(* tune-p.  Its traced run also times the layers that only a Q-method
   search and the `optimize --measure` step reach (README.md says why
   neither is a workload of its own). *)
let run (cfg : cfg) st tally =
  if not cfg.trace then untraced cfg st tally ~search:"P-method"
  else
    let qlearn (name, _) = String.starts_with ~prefix:"qlearn." name in
    let p = traced cfg st tally ~search:"P-method" in
    let q = traced cfg st tally ~search:"Q-method" in
    List.filter (fun m -> not (qlearn m)) p @ List.filter qlearn q @ Measuring.layer cfg tally
