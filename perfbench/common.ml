(* What every workload shares: the run configuration, the tally of
   attempted and failed operations and of correctness checks, and the
   catalogue of metric names and units (BENCHMARK.json lists the same
   names). *)

type cfg = {
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;  (** minimum sizes, for the smoke test *)
  flextensor : string;  (** the CLI binary, for the tuning daemon *)
  out_dir : string;  (** scratch space inside the checkout *)
}

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable correct : bool;
  mutable problems : string list;
}

let tally () = { attempted = 0; failed = 0; correct = true; problems = [] }

(* One operation of the workload: a search task, a measurement, a
   lookup, an append. *)
let attempt t ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

(* A correctness check; a failed one fails the run. *)
let check t ok msg =
  if not ok then begin
    t.correct <- false;
    if List.length t.problems < 20 then t.problems <- msg :: t.problems
  end

let fail_ratio t =
  if t.attempted = 0 then 0.
  else float_of_int t.failed /. float_of_int t.attempted

let bits = Int64.bits_of_float

(* Metrics of the untraced run.  [setup_s] is measured by run.py around
   this process. *)
let end_to_end =
  [
    ("op_ms", "ms");
    ("ok_ratio", "ratio");
    ("best_gflops_geomean", "GFLOPS");
    ("peak_rss_mb", "MiB");
  ]

(* Metrics of the traced run, by layer.  A workload reports 0 for a
   layer it does not exercise. *)
let per_layer =
  [
    ("par.regions", "count");
    ("par.region_us_p50", "us");
    ("par.lane_busy_ratio", "ratio");
    ("hw.cost_queries", "count");
    ("hw.cost_query_us_p50", "us");
    ("schedule.space_make_ms", "ms");
    ("schedule.key_calls", "count");
    ("schedule.key_us", "us");
    ("schedule.neighbors_calls", "count");
    ("schedule.neighbors_us", "us");
    ("schedule.features_us", "us");
    ("anneal.h_final", "count");
    ("anneal.select_us_p50", "us");
    ("qlearn.actions", "count");
    ("qlearn.forward_us_per_row", "us");
    ("qlearn.train_rounds", "count");
    ("qlearn.train_ms", "ms");
    ("explore.evals", "count");
    ("explore.evals_per_s", "1/s");
    ("explore.self_ms", "ms");
    ("search_s", "s");
    ("lower.lower_ms", "ms");
    ("lower.compile_ms", "ms");
    ("lower.kernel_ms", "ms");
    ("lower.sandbox_overhead_ms", "ms");
    ("lower.preflight_rejects", "count");
    ("lower.faults.timeout", "count");
    ("lower.faults.crashed", "count");
    ("lower.faults.oom", "count");
    ("lower.faults.protocol", "count");
    ("lower.faults.uncaught", "count");
    ("measure_ms_p50", "ms");
    ("measure_ms_p90", "ms");
    ("measurements_per_s", "1/s");
    ("store.best_exact_us_p50", "us");
    ("store.best_exact_us_p90", "us");
    ("store.nearest_us_p50", "us");
    ("store.append_us_p50", "us");
    ("store.append_us_p90", "us");
    ("store.transfer_ms", "ms");
    ("store.records", "count");
    ("lookup_ms_p50", "ms");
    ("lookup_ms_p90", "ms");
    ("appends_per_s", "1/s");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.promoted_mb", "MB");
    ("obs.trace_overhead_ratio", "ratio");
    ("attributed_ratio", "ratio");
    ("fail_ratio", "ratio");
  ]

(* Evenly spaced sample of at most [n] elements, in order. *)
let spread n xs =
  let a = Array.of_list xs in
  let len = Array.length a in
  if len <= n then xs
  else List.init n (fun i -> a.(i * len / n))

(* [f ()] and the seconds it took. *)
let time f =
  let t0 = Rec.now () in
  let x = f () in
  (x, Rec.now () -. t0)

(* Seconds per call of [f] over [xs], timed as one batch so the clock's
   resolution does not dominate microsecond calls. *)
let per_call f xs =
  match xs with
  | [] -> 0.
  | _ ->
      let t0 = Rec.now () in
      List.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
      (Rec.now () -. t0) /. float_of_int (List.length xs)

(* Run [pass ()] until [seconds] have elapsed, at least once; returns
   the passes in order. *)
let repeat_for seconds pass =
  let t0 = Rec.now () in
  let rec loop acc =
    let acc = pass () :: acc in
    if Rec.now () -. t0 < seconds then loop acc else List.rev acc
  in
  loop []

(* Operation latency on a shared host.  A run repeats each of its
   distinct operations (a search task, a measured config, a lookup of
   one entry, ...) many times.  Short bursts of other tenants' work slow
   a repetition down but never speed it up, so each operation counts at
   its fastest repetition. *)
type 'k fastest = ('k, int ref * float ref) Hashtbl.t

let fastest () : 'k fastest = Hashtbl.create 64

(* Record one repetition of operation [key] that took [dt] seconds. *)
let note (t : 'k fastest) key dt =
  match Hashtbl.find_opt t key with
  | Some (n, best) ->
      incr n;
      if dt < !best then best := dt
  | None -> Hashtbl.add t key (ref 1, ref dt)

(* The run's mean operation latency in ms, each operation at its fastest
   repetition and weighted by how often it ran. *)
let op_ms tables =
  let n, total =
    List.fold_left
      (fun acc t ->
        Hashtbl.fold (fun _ (n, best) (tn, tt) -> (tn + !n, tt +. (float_of_int !n *. !best))) t acc)
      (0, 0.) tables
  in
  if n = 0 then 0. else 1e3 *. total /. float_of_int n

(* Peak resident set of process [pid] in MiB, from VmHWM in
   /proc/PID/status: the high-water mark of the program's own address
   space.  (rusage's ru_maxrss would also count the memory of the
   process that forked it, before its exec.) *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> find ()
        | exception End_of_file -> 0.
      in
      find ())
