type t = {
  spatial : int array array;
  reduce : int array array;
  order_id : int;
  unroll_id : int;
  fuse_levels : int;
  vectorize : bool;
  inline : bool;
  partition_id : int;
  mutable key_memo : string option;
}

let copy cfg =
  {
    cfg with
    spatial = Array.map Array.copy cfg.spatial;
    reduce = Array.map Array.copy cfg.reduce;
    key_memo = None;
  }

let level factors idx = Array.map (fun parts -> parts.(idx)) factors

let product_level factors idx =
  Array.fold_left (fun acc parts -> acc * parts.(idx)) 1 factors

(* The six loop-order templates permute three serial loop groups
   (spatial middle tile, reduce outer, reduce middle); the reduce-inner
   and spatial-inner loops always sit innermost.  [order_perm id]
   returns the group order, where 0 = spatial-middle, 1 = reduce-outer,
   2 = reduce-middle. *)
let order_perms =
  [| [| 0; 1; 2 |]; [| 0; 2; 1 |]; [| 1; 0; 2 |]; [| 1; 2; 0 |]; [| 2; 0; 1 |]; [| 2; 1; 0 |] |]

let order_perm id =
  if id < 0 || id >= Array.length order_perms then
    invalid_arg "Config.order_perm: order_id out of range";
  order_perms.(id)

(* Length of [string_of_int n].  Digits are counted on the non-positive
   side, where [min_int] has a magnitude. *)
let rec nonpos_digits m acc = if m > -10 then acc else nonpos_digits (m / 10) (acc + 1)
let int_width n = if n < 0 then nonpos_digits n 2 else nonpos_digits (-n) 1

(* Writes [string_of_int n] at [pos]; returns the position after it. *)
let put_int b pos n =
  let stop = pos + int_width n in
  let first = if n < 0 then (Bytes.set b pos '-'; pos + 1) else pos in
  let m = ref (if n < 0 then n else -n) in
  for i = stop - 1 downto first do
    Bytes.set b i (Char.unsafe_chr (Char.code '0' - (!m mod 10)));
    m := !m / 10
  done;
  stop

(* Each factor is written as ["<int>."], each axis closed by ['/']. *)
let factors_width factors =
  let w = ref 0 in
  for a = 0 to Array.length factors - 1 do
    let parts = factors.(a) in
    for j = 0 to Array.length parts - 1 do
      w := !w + int_width parts.(j) + 1
    done;
    incr w
  done;
  !w

let put_factors b pos factors =
  let pos = ref pos in
  for a = 0 to Array.length factors - 1 do
    let parts = factors.(a) in
    for j = 0 to Array.length parts - 1 do
      let p = put_int b !pos parts.(j) in
      Bytes.set b p '.';
      pos := p + 1
    done;
    Bytes.set b !pos '/';
    incr pos
  done;
  !pos

(* A scalar field is written as ["<tag><int>."]. *)
let field_width n = int_width n + 2

let put_field b pos tag n =
  Bytes.set b pos tag;
  let p = put_int b (pos + 1) n in
  Bytes.set b p '.';
  p + 1

(* Called once per point per search step (visited set, eval cache), so
   keying must stay small next to the cost-model query it guards.  The
   key is written in two closure-free passes: the first sums the exact
   length, the second writes every integer's decimal digits straight
   into one [Bytes] of that length, which becomes the key without a
   copy.  No Printf, no per-integer string: the result string is the
   only allocation.  The bytes are exactly those of [string_of_int] for
   every int, so keys on disk, on the wire and in the fault plan's
   hashes do not change. *)
let compute_key cfg =
  let vectorize = Bool.to_int cfg.vectorize and inline = Bool.to_int cfg.inline in
  let len =
    factors_width cfg.spatial + 1 + factors_width cfg.reduce + 1
    + field_width cfg.order_id + field_width cfg.unroll_id
    + field_width cfg.fuse_levels + field_width vectorize
    + field_width inline + field_width cfg.partition_id
  in
  let b = Bytes.create len in
  let pos = put_factors b 0 cfg.spatial in
  Bytes.set b pos '|';
  let pos = put_factors b (pos + 1) cfg.reduce in
  Bytes.set b pos '|';
  let pos = put_field b (pos + 1) 'o' cfg.order_id in
  let pos = put_field b pos 'u' cfg.unroll_id in
  let pos = put_field b pos 'f' cfg.fuse_levels in
  let pos = put_field b pos 'v' vectorize in
  let pos = put_field b pos 'i' inline in
  let pos = put_field b pos 'p' cfg.partition_id in
  assert (pos = len);
  Bytes.unsafe_to_string b

(* Frontiers key the same config many times (visited set, eval cache,
   repository lookups), so the key is memoized on the record.  Every
   construction and mutation path resets the memo; concurrent first
   calls from two domains race benignly — both compute the identical
   string. *)
let key cfg =
  match cfg.key_memo with
  | Some k -> k
  | None ->
      let k = compute_key cfg in
      cfg.key_memo <- Some k;
      k

(* Equality bypasses the memo, so it stays truthful on a record mutated
   in place after its key was computed.  It compares the fields the key
   serializes, which is the same relation as comparing fresh keys (the
   key is injective), without building either string. *)
let rec ints_equal_from (a : int array) b i =
  i = Array.length a || (a.(i) = b.(i) && ints_equal_from a b (i + 1))

let ints_equal (a : int array) b = Array.length a = Array.length b && ints_equal_from a b 0

let rec factors_equal_from a b i =
  i = Array.length a || (ints_equal a.(i) b.(i) && factors_equal_from a b (i + 1))

let factors_equal a b = Array.length a = Array.length b && factors_equal_from a b 0

let equal a b =
  a.order_id = b.order_id && a.unroll_id = b.unroll_id
  && a.fuse_levels = b.fuse_levels
  && Bool.equal a.vectorize b.vectorize
  && Bool.equal a.inline b.inline
  && a.partition_id = b.partition_id
  && factors_equal a.spatial b.spatial
  && factors_equal a.reduce b.reduce

let pp fmt cfg =
  let pp_factors fmt factors =
    Array.iter
      (fun parts ->
        Format.fprintf fmt "[%s]"
          (String.concat "," (Array.to_list (Array.map string_of_int parts))))
      factors
  in
  Format.fprintf fmt
    "spatial=%a reduce=%a order=%d unroll=%d fuse=%d vec=%b inline=%b part=%d"
    pp_factors cfg.spatial pp_factors cfg.reduce cfg.order_id cfg.unroll_id
    cfg.fuse_levels cfg.vectorize cfg.inline cfg.partition_id

let to_string cfg = Format.asprintf "%a" pp cfg
