(* The benchmark's own in-memory trace: spans are kept in memory while a
   workload runs and written once, at exit, as JSON lines together with
   the run's counts and metrics.  Nothing here reaches into the library:
   every span wraps a call the benchmark itself makes. *)

(* monotonic, nanosecond resolution: immune to clock steps *)
let now = Ft_lower.Monotime.now_s

type span = { name : string; id : int; parent : int; t0 : float; t1 : float }

let spans : span list ref = ref []
let next_id = ref 1

(* open spans, innermost first, per thread *)
let stacks : (int, int list) Hashtbl.t = Hashtbl.create 4

(* Spans are only recorded in the traced run; the untraced run pays one
   flag test per call site. *)
let on = ref false
let mutex = Mutex.create ()

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

(* [timed name f] runs [f]; when tracing, records a span nested under
   the calling thread's innermost open span. *)
let timed name f =
  if not !on then f ()
  else begin
    let thread = Thread.id (Thread.self ()) in
    let stack () = Option.value (Hashtbl.find_opt stacks thread) ~default:[] in
    let id, parent =
      locked (fun () ->
          let id = !next_id in
          next_id := id + 1;
          let parent = match stack () with p :: _ -> p | [] -> 0 in
          Hashtbl.replace stacks thread (id :: stack ());
          (id, parent))
    in
    let t0 = now () in
    Fun.protect f ~finally:(fun () ->
        let t1 = now () in
        locked (fun () ->
            Hashtbl.replace stacks thread (List.tl (stack ()));
            spans := { name; id; parent; t0; t1 } :: !spans))
  end

(* ---------------------------------------------------------------- *)
(* Statistics                                                       *)

(* Linear interpolation between closest ranks; 0 for no samples. *)
let percentile p xs =
  match Array.of_list (List.sort Float.compare xs) with
  | [||] -> 0.
  | a ->
      let n = Array.length a in
      let pos = p /. 100. *. float_of_int (n - 1) in
      let lo = int_of_float pos in
      let hi = min (n - 1) (lo + 1) in
      a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile 50. xs
let sum xs = List.fold_left ( +. ) 0. xs

let mean xs =
  match xs with [] -> 0. | _ -> sum xs /. float_of_int (List.length xs)

let geomean xs =
  match List.filter (fun x -> x > 0.) xs with
  | [] -> 0.
  | pos -> Ft_util.Stats.geomean pos

(* ---------------------------------------------------------------- *)
(* Runtime                                                          *)

let gc_base = ref (Gc.quick_stat ())
let gc_start () = gc_base := Gc.quick_stat ()

let gc_metrics () =
  let s = Gc.quick_stat () and b = !gc_base in
  [
    ("gc.minor_collections", float_of_int (s.minor_collections - b.minor_collections));
    ("gc.major_collections", float_of_int (s.major_collections - b.major_collections));
    ("gc.promoted_mb", (s.promoted_words -. b.promoted_words) *. 8. /. 1e6);
  ]

(* ---------------------------------------------------------------- *)
(* Output                                                           *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let metric_json (name, v, unit) =
  Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name) (json_num v)
    (json_string unit)

(* The result line: the correctness flag, the operation counts and the
   metrics. *)
let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric_json metrics))

(* Spans, then the run's counts and metrics, one JSON object per line. *)
let write_trace path ~counts ~metrics =
  let oc = open_out path in
  let origin = List.fold_left (fun acc s -> Float.min acc s.t0) infinity !spans in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"span\": %s, \"id\": %d, \"parent\": %d, \"start_us\": %.1f, \"dur_us\": %.1f}\n"
        (json_string s.name) s.id s.parent
        ((s.t0 -. origin) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6))
    (List.rev !spans);
  List.iter
    (fun (k, v) -> Printf.fprintf oc "{\"count\": %s, \"value\": %d}\n" (json_string k) v)
    counts;
  List.iter (fun m -> Printf.fprintf oc "{%s}\n" (metric_json m)) metrics;
  close_out oc
