(* The job fault wall.

   [run_job] executes one compile(/run) job with exactly the one-shot
   CLI's semantics (same pipeline, same degradation ladder, same exit
   codes and output checksum) inside a supervision harness that the
   one-shot driver does not need:

     - one decode ({!Proto.decode}): a job whose settings do not name
       a recipe, engine, schedule, team size or fault plan is answered
       "invalid job" at once — no attempt, no retry, no bundle;
     - a wall-clock deadline enforced through {!Runtime.Watchdog}: the
       parallel engine gets the remaining budget as its cancel bound,
       and serving-layer hangs (the serve:hang fault) spin on the
       watchdog token instead of blocking forever;
     - a fuel budget ([fuel]), so a diverging conservative lowering
       raises {!Core.Fuel.Exhausted} instead of wedging the executor;
     - exception containment: NOTHING escapes [run_job] — every job
       death becomes a structured failure outcome plus a replayable
       rung="serve" crash bundle (duration, retry count, queue depth);
     - pool hygiene: any failure after a parallel launch tears down the
       lane's cached domain pool ({!Runtime.Pool.shutdown_cached}), so a
       poisoned team never bleeds into the next job, whose launch
       builds a fresh one;
     - retry with decorrelated-jitter backoff ({!Backoff}) for
       transient failure classes (timeouts, injected faults, corrupt
       artifacts) — deterministic failures are never retried;
     - a per-source circuit breaker: a source hash that keeps failing
       is tripped to the conservative no-opt lowering (the pass
       manager's final ladder rung), one attempt and no retries,
       instead of burning retries forever.

   Integrity: a successful result is serialized and digest-sealed
   before it is cached or returned; the serve:corrupt fault flips a
   byte between sealing and verification, and the wall treats the
   mismatch as a transient job death — the corrupt artifact is never
   cached and never reaches the client. *)

exception Corrupt_artifact

(* --- failure description and classification --- *)

(* One line, stable across runs: it is both the client-visible error
   and the replay oracle recorded in the crash bundle — of the daemon's
   failed jobs and of the one-shot CLI's failed parallel runs alike. *)
let describe (e : exn) : string =
  match e with
  | Cudafe.Parser.Error e -> "parse error: " ^ e
  | Cudafe.Codegen.Error e -> "codegen error: " ^ e
  | Core.Cpuify.Stuck e -> "cpuify: " ^ e
  | Interp.Mem.Runtime_error e -> "runtime error: " ^ e
  | Core.Fault.Injected s -> "injected fault: " ^ s
  | Core.Fuel.Exhausted w -> "fuel exhausted: " ^ w
  | Runtime.Exec.Injected -> "injected fault"
  | Runtime.Exec.Unsupported s -> "unsupported: " ^ s
  | Runtime.Exec.Timeout ms ->
    Printf.sprintf "timeout: exceeded %d ms (watchdog cancel)" ms
  | Corrupt_artifact -> "corrupt artifact: result failed its digest check"
  | Failure msg -> msg
  | e -> Printexc.to_string e

(* Transient = a re-run can plausibly succeed: watchdog timeouts and
   injected faults (one-shot by construction) and artifact corruption
   (regenerated by a re-run).  Everything else — parse errors, codegen
   errors, kernels that trap, unknown exceptions — is deterministic:
   the job would fail identically, so retrying burns service capacity
   for nothing. *)
let classify (e : exn) : Backoff.cls =
  match e with
  | Runtime.Exec.Timeout _ | Runtime.Exec.Injected | Core.Fault.Injected _
  | Corrupt_artifact | Core.Fuel.Exhausted _ ->
    Backoff.Transient
  | _ -> Backoff.Deterministic

(* --- argument synthesis (shared with the one-shot CLI driver) --- *)

(* Integer arguments come from the job's sizes; every pointer parameter
   gets a buffer of the first size, filled with a deterministic pattern
   so the output checksum is meaningful AND identical to the one-shot
   CLI's.  Callers that retry execution must call this again: a failed
   parallel run may have half-mutated the previous buffers. *)
let make_args (f : Ir.Op.op) (sizes : int list) : Interp.Mem.rv list =
  let default_n = match sizes with n :: _ -> n | [] -> 64 in
  let sizes = ref sizes in
  Array.to_list f.Ir.Op.regions.(0).rargs
  |> List.map (fun (p : Ir.Value.t) ->
      match p.Ir.Value.typ with
      | Ir.Types.Memref { elem; _ } ->
        if Ir.Types.is_float_dtype elem then
          Interp.Mem.Buf
            (Interp.Mem.of_float_array
               (Array.init default_n (fun i ->
                    float_of_int ((i * 7 mod 11) + 1) /. 3.0)))
        else
          Interp.Mem.Buf
            (Interp.Mem.of_int_array
               (Array.init default_n (fun i -> i * 13 mod 17)))
      | Ir.Types.Scalar d when Ir.Types.is_int_dtype d -> begin
        match !sizes with
        | n :: rest ->
          sizes := rest;
          Interp.Mem.Int n
        | [] -> Interp.Mem.Int default_n
      end
      | Ir.Types.Scalar _ -> Interp.Mem.Flt 1.0)

(* Commutative digest of the final buffer contents: identical across
   correct lowerings AND across serial/parallel executions of the same
   race-free program. *)
let checksum_of_args (args : Interp.Mem.rv list) : string =
  let bufs =
    List.filter_map (function Interp.Mem.Buf b -> Some b | _ -> None) args
    |> Array.of_list
  in
  Printf.sprintf "%.9g" (Interp.Mem.checksum bufs)

(* --- the run step (shared with the one-shot CLI driver) --- *)

(* Run function [f] of the lowered module [m] once, on fresh
   [make_args] arguments: on the multicore engine (with the plan's
   "runtime" fault) or on the serial interpreter.  Writes the
   "executed @..." and "output checksum @..." lines through [log] and
   returns the checksum and, for a parallel run, the engine's counters.
   A failed parallel run raises ({!describe} names it); what to do
   about it is the caller's policy. *)
let run_entry ~(log : string -> unit) ~(exec : [ `Interp | `Parallel ])
    ~(domains : int) ~(schedule : Runtime.Schedule.policy) ?chunk
    ~(timeout_ms : int) ~(plan : Core.Fault.plan) (m : Ir.Op.op)
    (f : Ir.Op.op) (sizes : int list) : string * Runtime.Exec.stats option =
  let entry = Ir.Op.func_name f in
  let args = make_args f sizes in
  let stats =
    match exec with
    | `Interp ->
      let _, s = Interp.Eval.run m entry args in
      log
        (Printf.sprintf
           "executed @%s: %d ops, %d loads, %d stores, %d barrier waits" entry
           s.Interp.Eval.ops s.Interp.Eval.loads s.Interp.Eval.stores
           s.Interp.Eval.barriers);
      None
    | `Parallel ->
      let fault =
        Option.map
          (fun k ->
            if k = Core.Fault.Hang then Runtime.Exec.Hang
            else Runtime.Exec.Raise)
          (Core.Fault.take (Core.Fault.pending_of_plan plan) "runtime")
      in
      let _, s =
        Runtime.Exec.run_module ~domains ~schedule ?chunk ?fault ~timeout_ms m
          entry args
      in
      log
        (Printf.sprintf
           "executed @%s: parallel runtime, %d domains, %d launches, %d \
            barrier phases, %d domain spawns"
           entry domains s.Runtime.Exec.launches s.Runtime.Exec.barrier_phases
           s.Runtime.Exec.domain_spawns);
      Some s
  in
  let checksum = checksum_of_args args in
  log (Printf.sprintf "output checksum @%s: %s" entry checksum);
  (checksum, stats)

(* --- circuit breaker --- *)

(* Consecutive failed jobs of one source that trip its breaker, and
   conservative successes that untrip it. *)
let breaker_threshold = 3
let breaker_recovery = 3

module Breaker = struct
  type state =
    { mutable fails : int (* consecutive failed attempts *)
    ; mutable tripped : bool
    ; mutable okstreak : int (* conservative successes while tripped *)
    }

  type t =
    { tbl : (string, state) Hashtbl.t (* source hash -> state *)
    ; mutable trips : int
    }

  let create () : t = { tbl = Hashtbl.create 16; trips = 0 }

  let state (t : t) (hash : string) : state =
    match Hashtbl.find_opt t.tbl hash with
    | Some s -> s
    | None ->
      let s = { fails = 0; tripped = false; okstreak = 0 } in
      Hashtbl.replace t.tbl hash s;
      s

  let tripped (t : t) (hash : string) : bool = (state t hash).tripped

  let record_failure (t : t) (hash : string) : unit =
    let s = state t hash in
    s.fails <- s.fails + 1;
    s.okstreak <- 0;
    if (not s.tripped) && s.fails >= breaker_threshold then begin
      s.tripped <- true;
      t.trips <- t.trips + 1
    end

  (* [conservative] successes count toward half-open recovery; a direct
     success simply clears the failure streak. *)
  let record_success (t : t) (hash : string) ~(conservative : bool) : unit =
    let s = state t hash in
    if s.tripped then begin
      if conservative then begin
        s.okstreak <- s.okstreak + 1;
        if s.okstreak >= breaker_recovery then begin
          s.tripped <- false;
          s.fails <- 0;
          s.okstreak <- 0
        end
      end
    end
    else s.fails <- 0
end

(* --- configuration and state --- *)

type config =
  { deadline_ms : int (* per-job wall-clock budget; 0 disables *)
  ; backoff : Backoff.policy
  ; crash_dir : string option
  ; seed : int (* jitter seed component *)
  }

let default_config =
  { deadline_ms = 10_000
  ; backoff = Backoff.default
  ; crash_dir = None
  ; seed = 0
  }

(* Fuel budget of a job's lowering: only the conservative no-opt
   lowering ticks under it (pipeline stages install their own). *)
let fuel = 10_000_000

type stats =
  { mutable jobs : int
  ; mutable completed : int
  ; mutable failed : int (* jobs that died after exhausting retries *)
  ; mutable retries : int
  ; mutable bundles : int
  ; mutable pool_rebuilds : int (* teams torn down after a failed launch *)
  ; mutable leaked_domains : int
  ; mutable breaker_served : int (* jobs served via a tripped breaker *)
  }

type t =
  { cfg : config
  ; breaker : Breaker.t
  ; stats : stats
  }

let create (cfg : config) : t =
  { cfg
  ; breaker = Breaker.create ()
  ; stats =
      { jobs = 0
      ; completed = 0
      ; failed = 0
      ; retries = 0
      ; bundles = 0
      ; pool_rebuilds = 0
      ; leaked_domains = 0
      ; breaker_served = 0
      }
  }

let breaker_trips (t : t) : int = t.breaker.Breaker.trips

(* Tear down the lane's cached domain pool after a failed launch, so a
   poisoned team never bleeds into the next job: the next launch builds
   a fresh team. *)
let drop_pool (t : t) : unit =
  t.stats.pool_rebuilds <- t.stats.pool_rebuilds + 1;
  t.stats.leaked_domains <-
    t.stats.leaked_domains + Runtime.Pool.shutdown_cached ()

(* A one-shot-CLI-shaped repro line, for humans reading the bundle. *)
let repro_of_job (j : Proto.job) : string =
  let b = Buffer.create 128 in
  Buffer.add_string b "polygeist-cpu JOB.cu -cuda-lower";
  Buffer.add_string b (Printf.sprintf " --cpuify %s" j.mode);
  (match j.entry with
   | Some e -> Buffer.add_string b (Printf.sprintf " --run %s" e)
   | None -> ());
  List.iter (fun n -> Buffer.add_string b (Printf.sprintf " --size %d" n)) j.sizes;
  Buffer.add_string b
    (Printf.sprintf " --exec %s --domains %d --schedule %s" j.exec j.domains
       j.schedule);
  if j.faults <> "" then
    Buffer.add_string b (Printf.sprintf " --inject-fault %s" j.faults);
  Buffer.add_string b " (via polygeist-cpu serve)";
  Buffer.contents b

(* --- one attempt: the CLI-equivalent execution --- *)

(* Execute the job once through the shared lowering recipe
   ({!Core.Passmgr.lower}) and run step ({!run_entry}): exit 0 = full,
   1 = degraded (ladder rung, breaker or runtime fallback), raise = the
   job died (exit 2 territory).  A failed parallel run degrades to the
   serial interpreter, except a timeout: the bound came from the job
   deadline, so that is job death.  [launched] is set as soon as a
   parallel launch is attempted, so the fault wall knows whether the
   domain pool needs a teardown.  [remaining_ms] reports the deadline
   budget left (0 = no deadline). *)
let execute (t : t) ~(conservative : bool) ~(launched : bool ref)
    ~(remaining_ms : unit -> int) ~(job : Proto.job) ~(spec : Proto.spec) :
  Proto.outcome =
  let logb = Buffer.create 256 in
  let log s =
    Buffer.add_string logb s;
    Buffer.add_char logb '\n'
  in
  let m = Cudafe.Codegen.compile job.source in
  let breaker_degraded = conservative && spec.recipe <> Core.Passmgr.No_opt in
  if breaker_degraded then
    log "circuit breaker tripped for this source: conservative no-opt lowering";
  let recipe = if conservative then Core.Passmgr.No_opt else spec.recipe in
  let report =
    match
      Core.Fuel.with_budget fuel (fun () ->
          Core.Passmgr.lower ~faults:spec.plan ~source:job.source
            ~repro:(repro_of_job job) recipe m)
    with
    | Ok report -> report
    | Error (_, msg) -> failwith msg
  in
  if Core.Passmgr.degraded report then
    log ("pipeline degraded:\n" ^ Core.Passmgr.report_to_string report);
  let checksum, runtime_degraded =
    match job.entry with
    | None -> ("-", false)
    | Some entry -> begin
      match Ir.Op.find_func m entry with
      | None -> failwith (Printf.sprintf "no function @%s in the module" entry)
      | Some f -> begin
        let run exec =
          fst
            (run_entry ~log ~exec ~domains:spec.team ~schedule:spec.policy
               ~timeout_ms:(remaining_ms ()) ~plan:spec.plan m f job.sizes)
        in
        if spec.engine = `Interp || conservative then (run `Interp, false)
        else begin
          launched := true;
          match run `Parallel with
          | checksum -> (checksum, false)
          | exception (Runtime.Exec.Timeout _ as e) -> raise e
          | exception e ->
            log
              (Printf.sprintf
                 "parallel runtime failed (%s); degrading to the serial \
                  interpreter"
                 (describe e));
            drop_pool t;
            (run `Interp, true)
        end
      end
    end
  in
  let degraded =
    breaker_degraded || Core.Passmgr.degraded report || runtime_degraded
  in
  { Proto.exit_code = (if degraded then 1 else 0)
  ; checksum
  ; cached = false
  ; retries = 0
  ; breaker = conservative
  ; log = Buffer.contents logb
  }

(* --- the fault wall around one attempt --- *)

(* Run one attempt under the serve-level fault injection and the
   watchdog deadline.  Returns the outcome together with its sealed
   artifact payload.  Raises on job death — the caller (retry loop)
   owns containment. *)
let attempt (t : t) ~(conservative : bool) ~(launched : bool ref)
    ~(job : Proto.job) ~(spec : Proto.spec)
    ~(serve_fault : Core.Fault.kind option) : Proto.outcome * string =
  let deadline_ms = t.cfg.deadline_ms in
  let token =
    if deadline_ms > 0 then
      Some (Runtime.Watchdog.arm ~timeout_ms:deadline_ms ~on_timeout:(fun () -> ()))
    else None
  in
  let t0 = Unix.gettimeofday () in
  let remaining_ms () =
    match token with
    | None -> 0
    | Some _ ->
      let left =
        deadline_ms - int_of_float ((Unix.gettimeofday () -. t0) *. 1000.)
      in
      max 1 left
  in
  Fun.protect
    ~finally:(fun () ->
      match token with Some tok -> Runtime.Watchdog.disarm tok | None -> ())
    (fun () ->
      (match serve_fault with
       | None | Some Core.Fault.Corrupt -> () (* after the seal, below *)
       | Some Core.Fault.Raise ->
         raise (Core.Fault.Injected "serve:raise")
       | Some Core.Fault.Exhaust ->
         (* the job's fuel budget, exhausted immediately *)
         Core.Fuel.with_budget 0 (fun () -> Core.Fuel.tick "serve")
       | Some Core.Fault.Hang -> begin
         match token with
         | None ->
           (* no deadline to cancel the hang: degrade the injection to
              an immediate raise rather than wedging the executor *)
           raise (Core.Fault.Injected "serve:hang")
         | Some tok ->
           (* park the serving layer until the watchdog fires — the
              cancellation the deadline exists to provide *)
           while not (Runtime.Watchdog.fired tok) do
             Unix.sleepf 0.001
           done;
           raise (Runtime.Exec.Timeout deadline_ms)
       end);
      let o = execute t ~conservative ~launched ~remaining_ms ~job ~spec in
      (* integrity seal: hash the artifact, then verify before it may
         be cached or returned.  serve:corrupt flips a byte in between,
         which the verification must catch. *)
      let payload = Proto.outcome_to_string o in
      let digest = Digest.string payload in
      let payload =
        if serve_fault = Some Core.Fault.Corrupt then Cache.rot payload
        else payload
      in
      if Digest.string payload <> digest then raise Corrupt_artifact;
      (o, payload))

(* --- the supervised job --- *)

let source_hash (j : Proto.job) : string = Wal.digest j.source

let write_bundle (t : t) ~(job : Proto.job) ~(plan : Core.Fault.plan)
    ~(exn_text : string) ~(backtrace : string) ~(attempt_no : int)
    ~(duration_ms : int) ~(queue_depth : int) : string option =
  match t.cfg.crash_dir with
  | None -> None
  | Some dir -> begin
    let b =
      { Core.Crashbundle.kind =
          Serve
            { run =
                { entry = job.entry
                ; sizes = job.sizes
                ; mode = job.mode
                ; exec = job.exec
                ; domains = job.domains
                ; schedule = job.schedule
                ; timeout_ms = t.cfg.deadline_ms
                }
            ; duration_ms
            ; retries = attempt_no - 1
            ; queue_depth
            }
      ; stage = "serve"
      ; stage_index = attempt_no - 1
      ; rung = "serve"
      ; exn_text
      ; backtrace
      ; repro = repro_of_job job
      ; mincut = true
      ; faults = plan
      ; source = job.source
      ; ir_before = ""
      }
    in
    match Core.Crashbundle.write ~dir b with
    | Ok path ->
      t.stats.bundles <- t.stats.bundles + 1;
      Some path
    | Error _ -> None
  end

(* Crash bundle for a job whose EXECUTOR the fleet monitor declared
   wedged: the job never returned, so there is no exception or
   backtrace — the evidence is the elapsed time.  Written by the
   monitor domain after it has won the ticket (so a job that completed
   in the race window leaves no bundle). *)
let wedge_bundle (t : t) ~(job : Proto.job) ~(elapsed_ms : int) : string option
    =
  (* an invalid job is answered at once, so it never wedges *)
  let plan =
    Result.fold ~ok:(fun s -> s.Proto.plan) ~error:(fun _ -> [])
      (Proto.decode job)
  in
  t.stats.failed <- t.stats.failed + 1;
  write_bundle t ~job ~plan
    ~exn_text:
      (Printf.sprintf
         "executor wedged: job still running after %d ms (fleet deadline)"
         elapsed_ms)
    ~backtrace:"" ~attempt_no:1 ~duration_ms:elapsed_ms ~queue_depth:0

(* The answer to a job that died: exit 2, no checksum. *)
let failure_outcome ?(retries = 0) ?(bundle : string option) (exn_text : string)
    : Proto.outcome =
  let log =
    match bundle with
    | Some path ->
      Printf.sprintf "job failed: %s\ncrash bundle: %s" exn_text path
    | None -> Printf.sprintf "job failed: %s" exn_text
  in
  { Proto.exit_code = 2
  ; checksum = "-"
  ; cached = false
  ; retries
  ; breaker = false
  ; log
  }

(* Run one job to completion under the full fault wall.  Never raises;
   never takes more than [1 + backoff.max_retries] attempts (one, while
   the source's breaker is tripped); every failed attempt leaves exactly
   one crash bundle (when crash_dir is set) and a torn-down pool behind
   it. *)
let run_job (t : t) ~(cache : Cache.t) ~(queue_depth : int) ~(job_id : int)
    (job : Proto.job) : Proto.outcome =
  t.stats.jobs <- t.stats.jobs + 1;
  match Proto.decode job with
  | Error e ->
    t.stats.failed <- t.stats.failed + 1;
    failure_outcome ("invalid job: " ^ e)
  | Ok spec ->
    (* injected-fault jobs are never cached: caching would swallow the
       injection (and its crash bundle) on every later submission *)
    let cacheable = job.faults = "" in
    let key = Cache.key ~source:job.source ~flags:(Proto.job_flags job) in
    let hit =
      if not cacheable then None
      else
        (* an unparsable artifact falls through to a re-run *)
        Option.bind (Cache.find cache key) (fun payload ->
            Result.to_option (Proto.outcome_of_string payload))
    in
    match hit with
    | Some o ->
      t.stats.completed <- t.stats.completed + 1;
      { o with Proto.cached = true }
    | None ->
      let hash = source_hash job in
      (* serve faults are one-shot across the job's attempts *)
      let serve_faults = Core.Fault.pending_of_plan spec.plan in
      (* tripped: one conservative attempt, no retries — the ladder's
         last rung either serves a degraded result or fails cleanly *)
      let conservative = Breaker.tripped t.breaker hash in
      let backoff =
        if conservative then { t.cfg.backoff with max_retries = 0 }
        else t.cfg.backoff
      in
      let rec go attempt_no prev_delay =
        let launched = ref false in
        let t0 = Unix.gettimeofday () in
        match
          attempt t ~conservative ~launched ~job ~spec
            ~serve_fault:(Core.Fault.take serve_faults "serve")
        with
        | o, payload ->
          Breaker.record_success t.breaker hash ~conservative;
          if conservative then
            t.stats.breaker_served <- t.stats.breaker_served + 1
          else if cacheable then Cache.store cache key payload;
          t.stats.completed <- t.stats.completed + 1;
          { o with Proto.retries = attempt_no - 1 }
        | exception e ->
          let duration_ms =
            int_of_float ((Unix.gettimeofday () -. t0) *. 1000.)
          in
          let exn_text = describe e in
          let backtrace = Printexc.get_backtrace () in
          if !launched then drop_pool t;
          Breaker.record_failure t.breaker hash;
          let bundle =
            write_bundle t ~job ~plan:spec.plan ~exn_text ~backtrace ~attempt_no
              ~duration_ms ~queue_depth
          in
          let cls = classify e in
          if Backoff.retryable backoff cls ~attempt:attempt_no then begin
            let delay =
              Backoff.delay_ms backoff
                ~seed:(t.cfg.seed lxor job_id)
                ~attempt:attempt_no ~prev_ms:prev_delay
            in
            t.stats.retries <- t.stats.retries + 1;
            Unix.sleepf (float_of_int delay /. 1000.);
            go (attempt_no + 1) delay
          end
          else begin
            t.stats.failed <- t.stats.failed + 1;
            failure_outcome ~retries:(attempt_no - 1) ?bundle exn_text
          end
      in
      go 1 backoff.Backoff.base_ms

(* A single unsupervised attempt, for --replay of rung="serve" crash
   bundles: same fault wall, no retry/cache/bundle.  Returns the
   failure text on job death. *)
let replay_attempt ~(deadline_ms : int) (job : Proto.job) :
  (Proto.outcome, string) result =
  let t = create { default_config with deadline_ms; crash_dir = None } in
  match Proto.decode job with
  | Error e -> Error ("invalid job: " ^ e)
  | Ok spec -> (
    let launched = ref false in
    let serve_fault =
      Core.Fault.take (Core.Fault.pending_of_plan spec.plan) "serve"
    in
    match attempt t ~conservative:false ~launched ~job ~spec ~serve_fault with
    | o, _ -> Ok o
    | exception e ->
      if !launched then drop_pool t;
      Error (describe e))
