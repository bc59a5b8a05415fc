(* What one workload run hands back to [Main], and the op-loop helpers
   the workloads share. *)

(* A time as the wall clock read it, and scaled to the reference host
   (speed.ml). *)
type time =
  { raw : float
  ; scaled : float
  }

type t =
  { attempted : int
  ; failed : int (* ops that raised, were refused, or gave a wrong output *)
  ; checks_ok : bool (* post-loop verification and zero-count invariants *)
  ; setup_s : time array (* each repetition of the workload's set-up *)
  ; latencies_ms : time array (* untraced ops *)
  ; peak_rss_mb : float
  ; layers : (string * float) list (* per-layer values; traced runs only *)
  }

let now_s () : float = Int64.to_float (Trace.now_ns ()) /. 1e9

(* Set up [n] times, timing each, and keep the last state: one set-up
   is too few samples for a time a later change is judged on. *)
let setups ~n ~(setup : unit -> 'a) ~(teardown : 'a -> unit) : time array * 'a =
  let rec go i acc =
    let raw, scaled, st = Speed.timed_s setup in
    let acc = { raw; scaled } :: acc in
    if i = n then (Array.of_list (List.rev acc), st)
    else begin
      teardown st;
      go (i + 1) acc
    end
  in
  go 1 []

(* Per-op timing.  In a traced run the even-numbered ops record spans
   and the odd ones do not, so the two halves see the same inputs and
   the same machine state and their p50s give the tracing overhead.
   Between ops the sampler times the canary when a reading is due. *)
type sampler =
  { traced_run : bool
  ; speed : Speed.t
  ; mutable next_op : int
  ; mutable plain : (float * int) list (* ms and canary window, untraced ops *)
  ; mutable traced : float list (* ms, traced ops *)
  ; mutable attempted : int
  ; mutable failed : int
  }

let sampler ~traced_run =
  { traced_run
  ; speed = Speed.create ()
  ; next_op = 0
  ; plain = []
  ; traced = []
  ; attempted = 0
  ; failed = 0
  }

let traces (traced_run : bool) (n : int) : bool = traced_run && n land 1 = 0

(* Whether the next op of [s] records spans. *)
let next_traced (s : sampler) : bool = traces s.traced_run s.next_op

(* Run one op: [f op] gets the op's span id.  Returns its output (None
   if it raised, which counts as a failure), the latency in ms and
   whether the op was traced.  The caller checks the output outside the
   timed region and reports it with [check]. *)
let op (s : sampler) (f : int -> 'a) : 'a option * float * bool =
  let n = s.next_op in
  s.next_op <- n + 1;
  let traced = traces s.traced_run n in
  let op = if traced then n else Trace.untraced in
  let window = Speed.tick s.speed in
  let t0 = Trace.now_ns () in
  let out = match Trace.span ~op "op" (fun () -> f op) with
    | v -> Some v
    | exception _ -> None
  in
  let dt = Int64.sub (Trace.now_ns ()) t0 in
  let ms = Trace.ms_of_ns dt in
  s.attempted <- s.attempted + 1;
  if Option.is_none out then s.failed <- s.failed + 1;
  if traced then s.traced <- ms :: s.traced else s.plain <- (ms, window) :: s.plain;
  (out, ms, traced)

(* Count an op whose output [ok] says was wrong. *)
let check (s : sampler) (ok : bool) : unit = if not ok then s.failed <- s.failed + 1

(* Layer values every traced run reports: the traced op p50 (the base of
   every share), the tracing overhead, and the share of op time no layer
   span covers. *)
let traced_summary ~(traced : float list) ~(plain : float list)
    ~(attributed_ms : float) : (string * float) list =
  let traced = Array.of_list traced and plain = Array.of_list plain in
  let total = Array.fold_left ( +. ) 0.0 traced in
  let p50 = Stats.median traced in
  [ ("op.traced_ms_p50", p50)
  ; ("trace.overhead_frac", (p50 /. Stats.median plain) -. 1.0)
  ; ("unattributed.share", (total -. attributed_ms) /. total)
  ]

let sampler_summary (s : sampler) ~attributed_ms =
  traced_summary ~traced:s.traced ~plain:(List.map fst s.plain) ~attributed_ms

let traced_total_ms (s : sampler) : float = List.fold_left ( +. ) 0.0 s.traced

let finish ?(peak_rss_mb = Host.peak_rss_mb ()) (s : sampler) ~checks_ok ~setup_s ~layers : t
    =
  let scales = Speed.scales s.speed in
  { attempted = s.attempted
  ; failed = s.failed
  ; checks_ok
  ; setup_s
  ; latencies_ms =
      Array.of_list
        (List.rev_map (fun (ms, w) -> { raw = ms; scaled = ms *. scales.(w) }) s.plain)
  ; peak_rss_mb
  ; layers
  }

(* Seeded Fisher-Yates shuffle: the order of one pass over a suite. *)
let shuffle (rng : Random.State.t) (a : 'a array) : 'a array =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Whether an op loop started at [t0] has more to do: [seconds] have not
   gone by, or fewer than [Params.min_ops] ops have run. *)
let more (s : sampler) ~(t0 : float) ~(seconds : float) : bool =
  now_s () -. t0 < seconds || s.attempted < Params.min_ops

(* Whole passes over the suite until [more] says stop, so every program
   contributes the same number of ops. *)
let passes (s : sampler) ~(seconds : float) (pass : unit -> unit) : unit =
  let t0 = now_s () in
  while more s ~t0 ~seconds do
    pass ()
  done

(* Metric names allow letters, digits, '_', '.' and '-'. *)
let metric_name (s : string) : string =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> c
      | _ -> '-')
    s
