(* The host's speed through a run, and every time the benchmark reports
   scaled to a host of fixed speed.

   The host is a few cores of a machine that other tenants load.  Its
   speed drifts by a fifth or more over minutes, for single-threaded code
   too, and a run of --seconds sees one stretch of that drift.  So a
   fixed loop, the canary, is timed between ops, never inside one, and
   each op's time is multiplied by [Params.canary_reference_ms] over the
   canary's time around that op: the time a host at reference speed
   would have taken.  The canary is this file's own code and allocates
   nothing, so no change to the program under test moves it. *)

(* The canary: sort a fixed array of random ints with the polymorphic
   compare, in a buffer allocated once, timed in ms.  Like the code under
   test it is branchy, calls through a closure and reads a few hundred
   KB, so the other tenants slow it about as much as they slow the
   workloads.  A loop of register arithmetic did not: on a shared 2-vCPU
   Xeon host, per-run moccuda-forward medians divided by it still spread
   by 16% over a dozen runs, and by 5% divided by this one. *)
let canary_src =
  let rng = Random.State.make [| 0xca9a |] in
  Array.init Params.canary_len (fun _ -> Random.State.bits rng)

let canary_buf = Array.make Params.canary_len 0

let canary_ms ?(reps = 1) () : float =
  let t0 = Trace.now_ns () in
  for _ = 1 to reps do
    Array.blit canary_src 0 canary_buf 0 Params.canary_len;
    Array.sort compare canary_buf
  done;
  Trace.ms_of_ns (Int64.sub (Trace.now_ns ()) t0)

(* Scale factor from a few canary readings taken together. *)
let probe () : float =
  Params.canary_reference_ms /. Stats.median (Array.init Params.canary_probe (fun _ -> canary_ms ()))

(* Time [f] as a reference host would have: a probe before and after. *)
let timed_s (f : unit -> 'a) : float * float * 'a =
  let before = probe () in
  let t0 = Trace.now_ns () in
  let r = f () in
  let raw_s = Int64.to_float (Int64.sub (Trace.now_ns ()) t0) /. 1e9 in
  let after = probe () in
  (raw_s, raw_s *. (before +. after) /. 2.0, r)

(* Readings taken through an op loop.  Window [k] is the stretch between
   reading [k] and reading [k + 1]. *)
type t =
  { mutable last_ns : int64
  ; mutable readings : float list (* newest first *)
  ; mutable count : int
  }

let sample (t : t) : unit =
  t.readings <- canary_ms () :: t.readings;
  t.count <- t.count + 1;
  t.last_ns <- Trace.now_ns ()

let create () : t =
  let t = { last_ns = 0L; readings = []; count = 0 } in
  sample t;
  t

let every_ns = Int64.of_float (Params.canary_every_s *. 1e9)

(* Call between ops: takes a reading when one is due, and returns the
   window the next op runs in. *)
let tick (t : t) : int =
  if Int64.sub (Trace.now_ns ()) t.last_ns >= every_ns then sample t;
  t.count - 1

(* Scale factor of each window: from the median of the readings just
   before and just after it, so a drift in the middle of the run is
   followed. *)
let scales (t : t) : float array =
  let r = Array.of_list (List.rev t.readings) in
  let n = Array.length r in
  Array.init n (fun k ->
      let lo = max 0 (k - 1) and hi = min (n - 1) (k + 2) in
      Params.canary_reference_ms /. Stats.median (Array.sub r lo (hi - lo + 1)))
