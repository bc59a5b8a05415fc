(* Nearest-rank percentiles that report their sample count and refuse
   to report a tail the data cannot support. *)

type t =
  { n : int
  ; p50 : float
  ; p90 : float option
  ; p99 : float option
  }

(* Nearest-rank: the smallest sample with at least p% of the samples at
   or below it.  [sorted] must be ascending and non-empty. *)
let rank (n : int) (p : float) : int =
  max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)))

let nearest_rank (sorted : float array) (p : float) : float =
  sorted.(rank (Array.length sorted) p - 1)

(* A tail percentile is reported only when at least ten samples lie
   beyond it; below that its value is one or two outliers. *)
let min_beyond = 10

let tail (sorted : float array) (p : float) : float option =
  let n = Array.length sorted in
  if n - rank n p >= min_beyond then Some (nearest_rank sorted p) else None

let summarize (xs : float array) : t =
  if Array.length xs = 0 then invalid_arg "Stats.summarize: no samples";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  { n = Array.length s
  ; p50 = nearest_rank s 50.0
  ; p90 = tail s 90.0
  ; p99 = tail s 99.0
  }

let median (xs : float array) : float = (summarize xs).p50
