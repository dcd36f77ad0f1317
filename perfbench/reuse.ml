(* reuse: a tuning-daemon session.  Set-up starts `flextensor serve` on
   a unix socket and fills its store with valid records for the YOLO
   layers on three targets.  Then a closed loop on two connections runs
   a fixed mix: one connection issues exact-hit `optimize ~reuse` reads
   and nearest-shape queries followed by a refit; the other appends a
   record for every four reads completed, beside them.

   This is the only workload where the wire protocol, the shard index
   and append durability block the result; because writes sit beside
   reads, a change that speeds up lookups by slowing appends shows. *)

open Common
module F = Flextensor
module Client = F.Store_client

type entry = {
  graph : Ft_ir.Op.graph;
  target : F.Target.t;
  record : F.Store_record.t;
  variant : Ft_ir.Op.graph;  (** same layer at batch 2: a nearest-shape query *)
}

type state = {
  pid : int;
  daemon_out : in_channel;
  dir : string;
  entries : entry array;
  reader : Client.t;
  writer : Client.t;
}

let method_name = "Q-method"
let targets = F.Target.[ v100; xeon_e5_2699_v4; vu9p ]

(* The best of a search's seed points (the per-hardware heuristic
   points plus seeded random ones), scored by the cost model exactly as
   a search scores them. *)
let make_entry seed i (layer, target) =
  let graph = Ft_ir.Op.validate_exn (Ft_workloads.Yolo.graph layer) in
  let space = F.Space.make graph target in
  let rng = Ft_util.Rng.create ((seed * 7919) + i) in
  let candidates = F.Driver.seed_points rng space 16 in
  let scored =
    List.filter_map
      (fun c ->
        let perf = Ft_hw.Cost.evaluate space c in
        if perf.F.Perf.valid then Some (Ft_hw.Cost.perf_value space perf, c) else None)
      candidates
  in
  let value, best =
    List.fold_left (fun (bv, bc) (v, c) -> if v > bv then (v, c) else (bv, bc)) (List.hd scored) scored
  in
  let record =
    {
      F.Store_record.key = F.Store_record.key_of_space space;
      method_name;
      seed;
      best_value = value;
      sim_time_s = 0.;
      n_evals = List.length candidates;
      config = F.Config_io.to_string best;
      source = "analytical";
    }
  in
  let variant = Ft_ir.Op.validate_exn (Ft_workloads.Yolo.graph ~batch:2 layer) in
  { graph; target; record; variant }

let ok_exn what = function Ok x -> x | Error e -> failwith (what ^ ": " ^ e)

let rec remove path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Process start, daemon start and store fill: everything before the
   first timed request. *)
let setup (cfg : cfg) =
  let dir = Filename.concat cfg.out_dir (Printf.sprintf "reuse-%d" (Unix.getpid ())) in
  remove dir;
  Unix.mkdir dir 0o755;
  let addr = "unix:" ^ Filename.concat dir "d.sock" in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process cfg.flextensor
      [| cfg.flextensor; "serve"; "--store"; Filename.concat dir "store"; "--listen"; addr |]
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let daemon_out = Unix.in_channel_of_descr out_r in
  (* the daemon prints its address line once it is accepting *)
  (match input_line daemon_out with
  | _ -> ()
  | exception End_of_file -> failwith "flextensor serve exited before listening");
  let layers = if cfg.smoke then [ Ft_workloads.Yolo.find "C15" ] else Ft_workloads.Yolo.layers in
  let pairs = List.concat_map (fun l -> List.map (fun t -> (l, t)) targets) layers in
  let entries = Array.of_list (List.mapi (make_entry cfg.seed) pairs) in
  let reader = ok_exn "connect" (Client.connect addr) in
  let writer = ok_exn "connect" (Client.connect addr) in
  Array.iter (fun e -> ok_exn "fill" (Client.append writer e.record)) entries;
  { pid; daemon_out; dir; entries; reader; writer }

let teardown st =
  Client.close st.reader;
  Client.close st.writer;
  (try Unix.kill st.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] st.pid);
  close_in_noerr st.daemon_out;
  remove st.dir

(* ---------------------------------------------------------------- *)
(* The closed loop                                                  *)

(* What one phase of the loop did.  Memory does not grow with the number
   of requests: per-request latencies are kept only when [samples] is
   set (the traced run), everything else is per entry or per key. *)
type phase = {
  samples : bool;
  mutable lookups : float list;  (** seconds, newest first, when [samples] *)
  mutable near_parts : (float * float * float) list;  (** space, query, refit *)
  mutable appends : float list;
  hit : bool array;  (** entries looked up with an exact hit *)
  appended : bool array;  (** [appended_record] keys written *)
  read_ops : (char * int) fastest;  (** lookups and nearest queries, by entry *)
  write_ops : (char * int) fastest;  (** appends, by key *)
  mutable n_lookups : int;
  mutable n_appends : int;
  mutable reader_wall : float;
  mutable wall : float;
  reads : tally;
  writes : tally;
}

let reads_per_append = 4
let next_append = ref 0

(* The appends cycle over one key per fill record, so the daemon's index
   and the process's memory stay the same size however many requests a
   run makes. *)
let append_keys st = Array.length st.entries

(* The record appended under key [k]: a fill record under a key of its
   own.  A pure function of [k], so read-back regenerates it, and every
   append under one key writes the same bytes. *)
let appended_record st k =
  let base = st.entries.(k).record in
  {
    base with
    F.Store_record.key =
      { base.F.Store_record.key with graph = Printf.sprintf "%s+a%d" base.key.graph k };
    seed = k;
  }

let lookup st p i =
  let e = st.entries.(i) in
  match
    time (fun () ->
        Rec.timed "reuse.lookup" (fun () ->
            F.optimize ~remote:st.reader ~reuse:true e.graph e.target))
  with
  | (r : F.report), dt ->
      let hit =
        r.provenance = F.Reused
        && F.Config_io.to_string r.config = e.record.config
        && bits r.perf_value = bits e.record.best_value
      in
      attempt p.reads hit;
      check p.reads hit (e.record.key.graph ^ ": reuse did not return the stored schedule");
      if hit then begin
        p.hit.(i) <- true;
        p.n_lookups <- p.n_lookups + 1;
        note p.read_ops ('l', i) dt;
        if p.samples then p.lookups <- dt :: p.lookups
      end
  | exception ex ->
      attempt p.reads false;
      check p.reads false ("lookup raised " ^ Printexc.to_string ex)

let nearest st p i =
  let e = st.entries.(i) in
  match
    time (fun () ->
        let space, t_space =
          time (fun () ->
              Rec.timed "schedule.space_make" (fun () -> F.Space.make e.variant e.target))
        in
        let near, t_query =
          time (fun () ->
              Rec.timed "store.nearest" (fun () ->
                  Client.nearest ~method_name st.reader (F.Store_record.key_of_space space)))
        in
        let near = ok_exn "nearest" near in
        let seeds, t_refit =
          time (fun () ->
              Rec.timed "store.transfer" (fun () ->
                  F.Transfer.seeds_of_records ~exact:None ~near space))
        in
        (space, seeds, (t_space, t_query, t_refit)))
  with
  | (space, seeds, parts), dt ->
      let ok = seeds <> [] && List.for_all (F.Space.valid space) seeds in
      attempt p.reads ok;
      check p.reads ok (e.record.key.graph ^ ": nearest refit gave no valid seed");
      if ok then begin
        note p.read_ops ('n', i) dt;
        if p.samples then p.near_parts <- parts :: p.near_parts
      end
  | exception ex ->
      attempt p.reads false;
      check p.reads false ("nearest raised " ^ Printexc.to_string ex)

(* One phase of the closed loop: the reader runs its seeded mix until
   [seconds] have passed; the writer appends once per four reads and
   drains what is owed before the phase ends. *)
let run_phase st ~samples ~seed ~seconds =
  let p =
    {
      samples; lookups = []; near_parts = []; appends = [];
      hit = Array.make (Array.length st.entries) false;
      appended = Array.make (append_keys st) false;
      read_ops = fastest (); write_ops = fastest ();
      n_lookups = 0; n_appends = 0; reader_wall = 0.; wall = 0.;
      reads = tally (); writes = tally ();
    }
  in
  let m = Mutex.create () and c = Condition.create () in
  let owed = ref 0 and finished = ref false in
  let writer () =
    let rec go () =
      Mutex.lock m;
      while !owed = 0 && not !finished do
        Condition.wait c m
      done;
      let work = !owed > 0 in
      if work then decr owed;
      Mutex.unlock m;
      if work then begin
        let k = !next_append mod append_keys st in
        incr next_append;
        let r = appended_record st k in
        (match time (fun () -> Rec.timed "store.append" (fun () -> Client.append st.writer r)) with
        | Ok (), dt ->
            attempt p.writes true;
            p.appended.(k) <- true;
            p.n_appends <- p.n_appends + 1;
            note p.write_ops ('a', k) dt;
            if samples then p.appends <- dt :: p.appends
        | Error e, _ ->
            attempt p.writes false;
            check p.writes false ("append failed: " ^ e));
        go ()
      end
    in
    go ()
  in
  let t0 = Rec.now () in
  let th = Thread.create writer () in
  let rng = Ft_util.Rng.create seed in
  let reads = ref 0 in
  let n = Array.length st.entries in
  while Rec.now () -. t0 < seconds do
    let i = Ft_util.Rng.int rng n in
    if Ft_util.Rng.float rng 1.0 < 0.9 then lookup st p i else nearest st p i;
    incr reads;
    if !reads mod reads_per_append = 0 then begin
      Mutex.lock m;
      incr owed;
      Condition.signal c;
      Mutex.unlock m
    end
  done;
  p.reader_wall <- Rec.now () -. t0;
  Mutex.lock m;
  finished := true;
  Condition.signal c;
  Mutex.unlock m;
  Thread.join th;
  p.wall <- Rec.now () -. t0;
  p

(* Outside the timed loop: every exact hit and every append is read
   back and must be the record that was appended, byte for byte. *)
let verify st tally phases =
  let expect (r : F.Store_record.t) =
    match Client.best_exact ~method_name st.reader r.key with
    | Ok (Some got) ->
        check tally
          (F.Store_record.to_json got = F.Store_record.to_json r)
          (r.key.graph ^ ": stored record differs from the appended one")
    | Ok None -> check tally false (r.key.graph ^ ": appended record not found")
    | Error e -> check tally false (r.key.graph ^ ": read-back failed: " ^ e)
  in
  let any f i = List.exists (fun p -> f p i) phases in
  Array.iteri
    (fun i e -> if any (fun p i -> p.hit.(i)) i then expect e.record)
    st.entries;
  for k = 0 to append_keys st - 1 do
    if any (fun p k -> p.appended.(k)) k then expect (appended_record st k)
  done;
  List.iter
    (fun p ->
      List.iter
        (fun (t : tally) ->
          tally.attempted <- tally.attempted + t.attempted;
          tally.failed <- tally.failed + t.failed;
          List.iter (fun msg -> check tally false msg) t.problems)
        [ p.reads; p.writes ])
    phases

let gflops st p =
  let hit = List.filter (fun i -> p.hit.(i)) (List.init (Array.length st.entries) Fun.id) in
  Rec.geomean (List.map (fun i -> st.entries.(i).record.best_value) hit)

let untraced (cfg : cfg) st tally =
  let p = run_phase st ~samples:false ~seed:cfg.seed ~seconds:cfg.seconds in
  verify st tally [ p ];
  [
    ("op_ms", op_ms [ p.read_ops; p.write_ops ]);
    ("ok_ratio", 1. -. fail_ratio tally);
    ("best_gflops_geomean", gflops st p);
    (* the session's memory: this process and the daemon *)
    ("peak_rss_mb", peak_rss_mb (Unix.getpid ()) +. peak_rss_mb st.pid);
  ]

let traced (cfg : cfg) st tally =
  Rec.gc_start ();
  let plain = run_phase st ~samples:true ~seed:cfg.seed ~seconds:(cfg.seconds /. 2.) in
  let gc = Rec.gc_metrics () in
  Rec.on := true;
  let traced = run_phase st ~samples:true ~seed:cfg.seed ~seconds:(cfg.seconds /. 2.) in
  (* direct calls: space build and the exact-key round trip that every
     reuse hit makes *)
  let sample =
    List.init (min 200 traced.n_lookups) (fun k -> st.entries.(k mod Array.length st.entries))
  in
  let space_make = List.map (fun e -> snd (time (fun () -> F.Space.make e.graph e.target))) sample in
  let best_exact =
    List.map
      (fun e -> snd (time (fun () -> Client.best_exact ~method_name st.reader e.record.key)))
      sample
  in
  Rec.on := false;
  let records = match Client.stats st.reader with Ok (n, _) -> float_of_int n | Error _ -> 0. in
  verify st tally [ plain; traced ];
  let part f = List.map f traced.near_parts in
  let attributed =
    (float_of_int traced.n_lookups *. (Rec.median space_make +. Rec.median best_exact))
    +. Rec.sum (part (fun (s, q, r) -> s +. q +. r))
  in
  [
    ("schedule.space_make_ms", 1e3 *. Rec.median space_make);
    ("store.best_exact_us_p50", 1e6 *. Rec.median best_exact);
    ("store.best_exact_us_p90", 1e6 *. Rec.percentile 90. best_exact);
    ("store.nearest_us_p50", 1e6 *. Rec.median (part (fun (_, q, _) -> q)));
    ("store.append_us_p50", 1e6 *. Rec.median (plain.appends @ traced.appends));
    ("store.append_us_p90", 1e6 *. Rec.percentile 90. (plain.appends @ traced.appends));
    ("store.transfer_ms", 1e3 *. Rec.median (part (fun (_, _, r) -> r)));
    ("store.records", records);
    ("lookup_ms_p50", 1e3 *. Rec.median plain.lookups);
    ("lookup_ms_p90", 1e3 *. Rec.percentile 90. plain.lookups);
    ("appends_per_s", float_of_int plain.n_appends /. plain.wall);
    (* lookups only, the request both phases make most *)
    ("obs.trace_overhead_ratio", (Rec.median traced.lookups /. Rec.median plain.lookups) -. 1.);
    ("attributed_ratio", attributed /. traced.reader_wall);
    ("fail_ratio", fail_ratio tally);
  ]
  @ gc

let run (cfg : cfg) st tally = if cfg.trace then traced cfg st tally else untraced cfg st tally
