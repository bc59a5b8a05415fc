(* Retry policy of the job fault wall: which failures are worth
   retrying, how many times, and how long to wait between attempts.

   The delay schedule is decorrelated-jitter exponential backoff
   (min(cap, uniform(base, 3 * previous))): each delay is drawn from a
   window that grows with the previous delay, which spreads retries of
   concurrently-failing jobs apart instead of synchronizing them the
   way plain exponential backoff does.  The draw is seeded from
   (seed, attempt), so a daemon run is deterministic end to end — the
   same job stream produces the same delays, which is what makes the
   fault matrix and the smoke test replayable.

   This module is pure (no sleeping, no clock): the supervisor owns the
   actual [Unix.sleepf].  That is what makes the policy property-testable
   — see the QCheck suite in test/test_serve.ml. *)

type policy =
  { base_ms : int (* lower bound of every delay window *)
  ; cap_ms : int (* upper bound on any delay *)
  ; max_retries : int (* retries after the first attempt *)
  }

let default = { base_ms = 25; cap_ms = 1000; max_retries = 2 }

(* Failure classes.  Transient failures (a watchdog timeout, an injected
   fault, a corrupted artifact that a re-run will regenerate) are worth
   retrying; deterministic failures (parse errors, codegen errors, a
   kernel that divides by zero) will fail identically every time, so
   retrying them only burns the queue's service capacity. *)
type cls =
  | Transient
  | Deterministic

(* [retryable p cls ~attempt] — may attempt [attempt + 1] be made?
   [attempt] counts completed failed attempts (1 = the first failure). *)
let retryable (p : policy) (cls : cls) ~(attempt : int) : bool =
  match cls with
  | Deterministic -> false
  | Transient -> attempt <= p.max_retries

(* Deterministic decorrelated jitter.  [prev_ms] is the previous delay
   (pass [p.base_ms] before the first retry).  The result is always in
   [base_ms, cap_ms] for any well-formed policy (base <= cap). *)
let delay_ms (p : policy) ~(seed : int) ~(attempt : int) ~(prev_ms : int) : int
    =
  let base = max 0 p.base_ms in
  let cap = max base p.cap_ms in
  let hi = min cap (max (base + 1) (prev_ms * 3)) in
  let rng = Random.State.make [| seed; attempt; 0xb0ff |] in
  let d = base + Random.State.int rng (max 1 (hi - base)) in
  min cap (max base d)

(* Upper bound on the total delay the whole retry schedule can insert:
   every delay is capped at [cap_ms] and there are at most [max_retries]
   of them.  The serving fleet's executor-wedge deadline is derived
   from this — an executor is only declared wedged once its job has
   outlived every legitimate retry the policy could have scheduled. *)
let worst_case_total_ms (p : policy) : int =
  max 0 p.max_retries * max (max 0 p.base_ms) p.cap_ms
