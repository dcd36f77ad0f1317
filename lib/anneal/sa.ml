(* Simulated-annealing starting-point selection (§5.1): a visited point
   [p] with performance [Ep] is chosen with probability proportional to
   exp(-gamma * (Ebest - Ep) / Ebest), where Ebest is the best
   performance seen so far.  Points close to the best are exponentially
   more likely to seed the next exploration step. *)

let[@inline] weight ~gamma ~best value =
  if best <= 0. then 1. else exp (-.gamma *. (best -. value) /. best)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The evaluated set H, kept so that a selection costs one pass of
   float adds instead of a fold, an allocation and an [exp] per point
   (DESIGN.md §17).  Points live in chronological arrays, but a draw
   scans H *newest first*: the seeded search results are pinned on
   that order, down to the rounding of every partial sum. *)
module Archive = struct
  type 'a t = {
    mutable points : 'a array;  (* [||] until the first add *)
    mutable values : float array;
    mutable weights : float array;  (* valid on [0, weighed) *)
    mutable prefix : float array;  (* newest-first running sums *)
    mutable length : int;
    mutable best : float;  (* running Float.max of [values] *)
    mutable weighed : int;
    mutable w_gamma : float;  (* the (gamma, best) [weights] were made for *)
    mutable w_best : float;
  }

  let create () =
    {
      points = [||];
      values = [||];
      weights = [||];
      prefix = [||];
      length = 0;
      best = neg_infinity;
      weighed = 0;
      w_gamma = nan;
      w_best = nan;
    }

  let length t = t.length
  let point t i = t.points.(i)
  let value t i = t.values.(i)
  let get t i = (t.points.(i), t.values.(i))

  let grow t point =
    let cap = max 64 (2 * t.length) in
    let extend a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 t.length;
      b
    in
    t.points <- extend t.points point;
    t.values <- extend t.values 0.;
    t.weights <- extend t.weights 0.;
    t.prefix <- extend t.prefix 0.

  (* Float.max is exact, commutative and NaN-absorbing, so the running
     maximum equals a fold over the whole set in any order. *)
  let add t point value =
    if t.length = Array.length t.points then grow t point;
    t.points.(t.length) <- point;
    t.values.(t.length) <- value;
    t.length <- t.length + 1;
    t.best <- Float.max t.best value

  let to_list t = List.init t.length (fun j -> get t (t.length - 1 - j))

  (* The inverse of [to_list], sized exactly. *)
  let of_list = function
    | [] -> create ()
    | (first, _) :: _ as pairs ->
        let n = List.length pairs in
        let t =
          {
            (create ()) with
            points = Array.make n first;
            values = Array.make n 0.;
            weights = Array.make n 0.;
            prefix = Array.make n 0.;
            length = n;
          }
        in
        let best = ref neg_infinity in
        List.iteri
          (fun j (point, value) ->
            t.points.(n - 1 - j) <- point;
            t.values.(n - 1 - j) <- value;
            best := Float.max !best value)
          pairs;
        t.best <- !best;
        t

  (* Bring [weights] up to date for [gamma] and the current best: all
     of them when (gamma, best) changed — an incumbent improvement —
     otherwise only the points added since the last call. *)
  let reweigh t ~gamma =
    if not (same_bits gamma t.w_gamma && same_bits t.best t.w_best) then begin
      if t.weighed > 0 then Ft_obs.Trace.incr "anneal.reweigh";
      t.w_gamma <- gamma;
      t.w_best <- t.best;
      t.weighed <- 0
    end;
    for i = t.weighed to t.length - 1 do
      t.weights.(i) <- weight ~gamma ~best:t.best t.values.(i)
    done;
    t.weighed <- t.length

  (* prefix.(j) is the sum of the j+1 newest weights, added newest
     first from 0.  Returns the total. *)
  let sum_prefix t =
    let n = t.length in
    let acc = ref 0. in
    for j = 0 to n - 1 do
      acc := !acc +. t.weights.(n - 1 - j);
      t.prefix.(j) <- !acc
    done;
    !acc

  (* The chronological index of the first newest-first position among
     the first n-1 whose prefix sum exceeds [threshold], else the
     oldest point.  Weights are never negative, so the prefix is
     non-decreasing and a binary search finds the same position as a
     linear first-exceed scan.  A NaN anywhere makes the total, hence
     the threshold, NaN: no comparison holds and the oldest point is
     the fallback, as in the scan.  Strict [>] keeps a zero-weight
     point unreachable while any weight is positive. *)
  let index_at t threshold =
    let lo = ref 0 and hi = ref (t.length - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if t.prefix.(mid) > threshold then hi := mid else lo := mid + 1
    done;
    t.length - 1 - !lo

  let pick_at t ~gamma ~threshold =
    if t.length = 0 then invalid_arg "Sa.Archive.pick_at: empty";
    reweigh t ~gamma;
    ignore (sum_prefix t);
    get t (index_at t threshold)

  let select t rng ~gamma ~count =
    if t.length = 0 then []
    else begin
      if Ft_obs.Trace.active () then
        Ft_obs.Trace.gauge "anneal.h" (float_of_int t.length);
      reweigh t ~gamma;
      (* The best point weighs exp 0 = 1 (every point does when the
         best is not positive), so the total is >= 1 or NaN, never a
         bound [Rng.float] rejects. *)
      let total = sum_prefix t in
      List.init count (fun _ -> get t (index_at t (Ft_util.Rng.float rng total)))
    end
end

(* [points] is H newest first, the order the archive draws in. *)
let select rng ~gamma ~count points =
  Archive.select (Archive.of_list points) rng ~gamma ~count

(* Metropolis acceptance for a plain annealing walk (used by the
   AutoTVM baseline's candidate proposal). *)
let accept rng ~temperature ~current ~candidate =
  candidate >= current
  ||
  let scale = Float.max 1e-9 (Float.max (Float.abs current) 1.) in
  temperature > 0.
  && Ft_util.Rng.float rng 1.0 < exp ((candidate -. current) /. (temperature *. scale))
