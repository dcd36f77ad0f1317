(** Simulated annealing (§5.1): starting-point selection over the set
    of already-evaluated schedule points, and Metropolis acceptance for
    annealing walks. *)

(** Selection weight exp(-gamma . (best - value) / best); 1 when
    [best <= 0.]. *)
val weight : gamma:float -> best:float -> float -> float

(** The evaluated set H as an annealing archive (DESIGN.md §17):
    [(point, performance)] pairs in insertion order, with the running
    best and cached selection weights, so a selection costs one pass of
    float additions and [count] binary searches instead of rebuilding
    the weighted distribution.  Draws scan H newest first and take one
    [Rng.float] each.  Not thread-safe. *)
module Archive : sig
  type 'a t

  val create : unit -> 'a t

  (** [add t point value] appends a point to H. *)
  val add : 'a t -> 'a -> float -> unit

  val length : 'a t -> int

  (** [point t i] and [value t i] are the [i]-th point added (0 is the
      oldest) and its performance. *)
  val point : 'a t -> int -> 'a

  val value : 'a t -> int -> float

  (** Every pair, newest first. *)
  val to_list : 'a t -> ('a * float) list

  (** [select t rng ~gamma ~count] draws [count] starting points (with
      replacement), each with probability proportional to its
      {!weight} against the current best, and returns them with their
      performance.  An empty archive yields [].  Cached weights are
      recomputed only when [gamma] or the best changed since the last
      selection (counted as [anneal.reweigh] in the trace; the
      [anneal.h] gauge records |H|). *)
  val select :
    'a t -> Ft_util.Rng.t -> gamma:float -> count:int -> ('a * float) list

  (** [pick_at t ~gamma ~threshold] is the pair a draw of [threshold]
      in [\[0, total weight)] selects: the first point, newest first,
      whose cumulative weight exceeds [threshold] (strict, so
      zero-weight points are unreachable while any weight is
      positive), and the oldest point as the fallback for
      [threshold >= total].  Exposed for testing.  Raises
      [Invalid_argument] when empty. *)
  val pick_at : 'a t -> gamma:float -> threshold:float -> 'a * float
end

(** [select rng ~gamma ~count points] is {!Archive.select} over the
    [(point, performance)] pairs of H given newest first. *)
val select :
  Ft_util.Rng.t -> gamma:float -> count:int -> ('a * float) list ->
  ('a * float) list

(** Metropolis acceptance of a candidate objective value given the
    current one at a temperature (relative scale). *)
val accept :
  Ft_util.Rng.t -> temperature:float -> current:float -> candidate:float -> bool
