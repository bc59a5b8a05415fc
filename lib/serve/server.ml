(* The compile daemon: bounded-queue admission control in front of a
   supervised FLEET of executor lanes.

   Structure: the in-process core ([create] / [submit] / [await] /
   [drain]) is what the bench harness, the smoke test and the chaos
   campaign drive directly; [serve_unix] wraps it in a
   Unix-domain-socket front end for `polygeist_cpu serve`.

   Threads of control:

     - the caller (or the socket accept loop) submits jobs; admission
       is a bounded count across all lanes — a full queue is an
       immediate, explicit [`Overloaded] rejection, never unbounded
       latency;

     - [executors] EXECUTOR LANES, each a domain that pops jobs from
       its own queue and runs them through {!Supervisor.run_job}.  Each
       lane owns its own {!Supervisor.t} (so circuit-breaker state
       needs no cross-domain locking) and — via the domain-local pool
       cache — its own {!Runtime.Pool} team, so a poisoned or torn-down
       pool in one lane never stalls another.  Jobs are routed by
       SOURCE-HASH AFFINITY: the same source always lands on the same
       lane, which keeps per-source results deterministic (the cache's
       bit-identity check relies on it) and keeps each source's breaker
       history in one place.  [--executors 1] is a fleet of one lane;

     - a MONITOR domain watches every lane's heartbeat.  A lane whose
       job outlives the executor deadline (derived from the supervisor
       deadline and the worst-case retry schedule, so it only fires
       beyond any legitimate work) is declared wedged: the monitor
       fails the in-flight ticket with a rung="serve" crash bundle,
       marks the incarnation dead, and spawns a replacement executor on
       the same queue.  Fulfilling the ticket is first-write-wins and
       doubles as the race linearization: the monitor only kills after
       its failure-fulfill WON, and a zombie executor whose late
       fulfill LOSES sees its incarnation is dead and exits instead of
       touching the lane.  (An OCaml domain cannot be killed, so a
       truly wedged executor is leaked — exactly like the pool's
       leaked-worker accounting.)  The monitor also replaces executors
       whose loop crashed outright;

     - a responder domain (socket mode only) writes each completed
       job's response — in COMPLETION order, paired to its connection
       by the ticket, echoing the request's wire id — so neither a slow
       client nor a slow job stalls the others.

   Durability: accepted tickets are recorded in an in-flight journal
   (S at admission, E at terminal reply, fsynced), and the artifact
   cache appends to a write-ahead journal on every store, so a SIGKILL
   loses neither completed work nor the identity of in-flight work:
   restart reports exactly which tickets died with the process.

   The executor is fault-walled twice: [Supervisor.run_job] never
   raises by contract, and the lane loop catches anyway — a bug in the
   supervisor must degrade to a failed job, not a dead lane (and a dead
   lane degrades to a replaced lane, not a dead daemon). *)

type config =
  { queue_cap : int (* admission bound; jobs beyond it are rejected *)
  ; sup : Supervisor.config
  ; cache_dir : string option (* persist cache + in-flight journal here *)
  ; executors : int (* executor lanes (>= 1) *)
  ; executor_deadline_ms : int
    (* wall-clock bound on one lane's job before the monitor declares
       the lane wedged; 0 derives it from the supervisor deadline and
       the worst-case retry schedule (and disables monitoring when the
       supervisor deadline is itself 0) *)
  }

let default_config =
  { queue_cap = 32
  ; sup = Supervisor.default_config
  ; cache_dir = None
  ; executors = 1
  ; executor_deadline_ms = 0
  }

(* The monitor must not declare a lane wedged while its job could still
   be doing legitimate work: a job may burn the full supervisor
   deadline on every attempt plus every backoff delay in between. *)
let derived_executor_deadline (cfg : config) : int =
  if cfg.executor_deadline_ms > 0 then cfg.executor_deadline_ms
  else if cfg.sup.Supervisor.deadline_ms <= 0 then 0
  else
    ((1 + cfg.sup.Supervisor.backoff.Backoff.max_retries)
     * cfg.sup.Supervisor.deadline_ms)
    + Backoff.worst_case_total_ms cfg.sup.Supervisor.backoff
    + 2000

(* A submitted job's future result.  [id] is the daemon-wide ticket id
   (also the in-flight journal key).  [notify] lets the socket
   responder subscribe to completion instead of parking a domain per
   connection; it is invoked outside the ticket lock and must be
   cheap. *)
type ticket =
  { id : int
  ; tm : Mutex.t
  ; tcv : Condition.t
  ; mutable result : Proto.outcome option
  ; mutable notify : (Proto.outcome -> unit) option
  }

(* One executor incarnation.  A lane can go through several: the
   monitor replaces an incarnation when it wedges or crashes.  [dead]
   is the kill switch (set only after the monitor won the in-flight
   ticket); [exited] is the incarnation's own "my loop returned";
   [crashed] marks an uncaught exception (the monitor spawns a
   replacement). *)
type incarnation =
  { dead : bool Atomic.t
  ; exited : bool Atomic.t
  ; crashed : bool Atomic.t
  ; mutable domain : unit Domain.t option
  }

type lane =
  { lq : (Proto.job * ticket) Queue.t
  ; lm : Mutex.t
  ; lcv : Condition.t
  ; lsup : Supervisor.t (* lane-private: breaker state needs no lock *)
  ; mutable busy_since : float (* heartbeat; 0.0 = idle (under lm) *)
  ; mutable current : (Proto.job * ticket) option (* under lm *)
  ; mutable inc : incarnation (* written by create/monitor only *)
  ; mutable kills : int (* incarnations the monitor replaced *)
  }

type t =
  { cfg : config
  ; cache : Cache.t
  ; lanes : lane array
  ; qm : Mutex.t (* admission: draining / next_id / overloaded *)
  ; mutable draining : bool
  ; mutable next_id : int
  ; mutable overloaded : int (* submissions rejected by admission *)
  ; queued : int Atomic.t (* admitted, not yet popped by a lane *)
  ; exec_deadline_ms : int
  ; journal : Journal.t option
  ; recovery : Journal.recovery option (* what the previous run lost *)
  ; mstop : bool Atomic.t
  ; mutable monitor : unit Domain.t option
  }

(* --- tickets --- *)

(* First write wins; the bool is the linearization every kill decision
   hangs off. *)
let fulfill (tk : ticket) (o : Proto.outcome) : bool =
  Mutex.lock tk.tm;
  if tk.result <> None then begin
    Mutex.unlock tk.tm;
    false
  end
  else begin
    tk.result <- Some o;
    Condition.broadcast tk.tcv;
    let n = tk.notify in
    tk.notify <- None;
    Mutex.unlock tk.tm;
    (match n with Some f -> f o | None -> ());
    true
  end

(* Non-blocking result read; the chaos harness uses it after drain,
   when "no result yet" means a lost ticket (an invariant violation),
   not "still running". *)
let peek (tk : ticket) : Proto.outcome option =
  Mutex.lock tk.tm;
  let r = tk.result in
  Mutex.unlock tk.tm;
  r

let ticket_id (tk : ticket) : int = tk.id

let await (tk : ticket) : Proto.outcome =
  Mutex.lock tk.tm;
  while tk.result = None do
    Condition.wait tk.tcv tk.tm
  done;
  let o = Option.get tk.result in
  Mutex.unlock tk.tm;
  o

(* Subscribe to completion; fires immediately if the result already
   landed.  Used by the socket responder. *)
let on_complete (tk : ticket) (f : Proto.outcome -> unit) : unit =
  Mutex.lock tk.tm;
  match tk.result with
  | Some o ->
    Mutex.unlock tk.tm;
    f o
  | None ->
    tk.notify <- Some f;
    Mutex.unlock tk.tm

let journal_finish (t : t) (tk : ticket) (status : string) : unit =
  match t.journal with
  | Some j -> Journal.finish j ~id:tk.id ~status
  | None -> ()

let status_of (o : Proto.outcome) : string =
  if o.Proto.exit_code = 2 then "failed" else "done"

(* --- executor lanes --- *)

(* Lane-level fault injection (the chaos campaign's wedge lever):
   executor:hang wedges the lane itself — run_job never starts, the
   monitor must notice; executor:raise kills the lane loop — the crash
   wall must answer the ticket and the monitor must respawn. *)
let executor_fault (job : Proto.job) : Core.Fault.kind option =
  match Proto.decode job with
  | Error _ -> None (* run_job answers an invalid job *)
  | Ok spec ->
    Core.Fault.take (Core.Fault.pending_of_plan spec.plan) "executor"

let executor_body (t : t) (lane : lane) (inc : incarnation) : unit =
  let rec loop () =
    Mutex.lock lane.lm;
    while
      Queue.is_empty lane.lq && (not t.draining) && not (Atomic.get inc.dead)
    do
      Condition.wait lane.lcv lane.lm
    done;
    if Atomic.get inc.dead || Queue.is_empty lane.lq then
      (* killed, or draining with nothing left *)
      Mutex.unlock lane.lm
    else begin
      let (job, tk) = Queue.pop lane.lq in
      Atomic.decr t.queued;
      lane.busy_since <- Unix.gettimeofday ();
      lane.current <- Some (job, tk);
      Mutex.unlock lane.lm;
      match executor_fault job with
      | Some Core.Fault.Hang ->
        (* wedged executor: spin (not block — there is nothing to block
           on) until the monitor fails our ticket and declares this
           incarnation dead, then exit as a zombie without touching the
           lane.  If no monitor is armed, drain's force-kill is the
           backstop. *)
        while not (Atomic.get inc.dead) do
          Unix.sleepf 0.002
        done
      | ef ->
        if ef = Some Core.Fault.Raise then
          raise (Core.Fault.Injected "executor:raise");
        let outcome =
          (* second wall: run_job never raises by contract, but a dead
             executor would wedge every future ticket, so catch anyway *)
          try
            Supervisor.run_job lane.lsup ~cache:t.cache
              ~queue_depth:(Atomic.get t.queued) ~job_id:tk.id job
          with e ->
            Supervisor.failure_outcome
              ("internal error: supervisor raised " ^ Printexc.to_string e)
        in
        if fulfill tk outcome then journal_finish t tk (status_of outcome);
        Mutex.lock lane.lm;
        if not (Atomic.get inc.dead) then begin
          lane.current <- None;
          lane.busy_since <- 0.0
        end;
        Mutex.unlock lane.lm;
        loop ()
    end
  in
  loop ()

(* The incarnation wall: even a crash of the lane LOOP (not just a job)
   answers the in-flight ticket and leaves a respawnable lane behind. *)
let executor_main (t : t) (lane : lane) (inc : incarnation) : unit =
  (match executor_body t lane inc with
   | () -> ()
   | exception e ->
     Atomic.set inc.crashed true;
     Mutex.lock lane.lm;
     let cur = if Atomic.get inc.dead then None else lane.current in
     (match cur with
      | Some _ ->
        lane.current <- None;
        lane.busy_since <- 0.0
      | None -> ());
     Mutex.unlock lane.lm;
     (match cur with
      | Some (_job, tk) ->
        let o =
          Supervisor.failure_outcome
            ("executor crashed: " ^ Supervisor.describe e)
        in
        if fulfill tk o then journal_finish t tk "failed"
      | None -> ()));
  (* the lane's cached pool is domain-local: tear it down with the
     incarnation so worker domains don't outlive their lane *)
  ignore (Runtime.Pool.shutdown_cached ());
  Atomic.set inc.exited true

let incarnation () : incarnation =
  { dead = Atomic.make false
  ; exited = Atomic.make false
  ; crashed = Atomic.make false
  ; domain = None
  }

let spawn_incarnation (t : t) (lane : lane) : unit =
  let inc = incarnation () in
  lane.inc <- inc;
  inc.domain <- Some (Domain.spawn (fun () -> executor_main t lane inc))

(* --- the monitor --- *)

let wedge_outcome ~(elapsed_ms : int) : Proto.outcome =
  Supervisor.failure_outcome
    (Printf.sprintf
       "executor wedged: job still running after %d ms (fleet deadline); \
        executor replaced"
       elapsed_ms)

(* Retire [lane]'s incarnation as wedged on [job] IF failing its
   ticket wins: mark it dead, clear its in-flight slot, count the kill,
   write the wedge bundle and journal the end.  Winning is the license
   to kill: if the job completed in the race window, the executor's
   fulfill won and nothing happens. *)
let retire (t : t) (lane : lane) ~(job : Proto.job) ~(tk : ticket)
    ~(elapsed_ms : int) : bool =
  if fulfill tk (wedge_outcome ~elapsed_ms) then begin
    Atomic.set lane.inc.dead true;
    Mutex.lock lane.lm;
    lane.current <- None;
    lane.busy_since <- 0.0;
    Condition.broadcast lane.lcv;
    Mutex.unlock lane.lm;
    lane.kills <- lane.kills + 1;
    ignore (Supervisor.wedge_bundle lane.lsup ~job ~elapsed_ms);
    journal_finish t tk "wedged";
    true
  end
  else false

let monitor_loop (t : t) : unit =
  while not (Atomic.get t.mstop) do
    Unix.sleepf 0.02;
    Array.iter
      (fun lane ->
        let inc = lane.inc in
        if
          Atomic.get inc.crashed
          && Atomic.get inc.exited
          && not (Atomic.get inc.dead)
        then begin
          (* the lane loop died; its queue may still hold jobs *)
          Atomic.set inc.dead true;
          lane.kills <- lane.kills + 1;
          spawn_incarnation t lane
        end
        else if t.exec_deadline_ms > 0 then begin
          Mutex.lock lane.lm;
          let cur = lane.current and since = lane.busy_since in
          Mutex.unlock lane.lm;
          match cur with
          | Some (job, tk) when since > 0.0 ->
            let elapsed_ms =
              int_of_float ((Unix.gettimeofday () -. since) *. 1000.)
            in
            (* a lost race leaves the lane alone; the next tick
               re-evaluates a fresh heartbeat *)
            if
              elapsed_ms > t.exec_deadline_ms
              && retire t lane ~job ~tk ~elapsed_ms
            then spawn_incarnation t lane
          | _ -> ()
        end)
      t.lanes
  done

(* --- construction --- *)

let create (cfg : config) : t =
  let n = max 1 cfg.executors in
  let lanes =
    Array.init n (fun _ ->
        { lq = Queue.create ()
        ; lm = Mutex.create ()
        ; lcv = Condition.create ()
        ; lsup = Supervisor.create cfg.sup
        ; busy_since = 0.0
        ; current = None
        ; inc = incarnation () (* replaced before any job can arrive *)
        ; kills = 0
        })
  in
  let recovery, journal =
    match cfg.cache_dir with
    | None -> (None, None)
    | Some dir ->
      (* read what the previous process left behind BEFORE open_
         truncates it *)
      let r = Journal.recover ~dir in
      let j = match Journal.open_ ~dir with Ok j -> Some j | Error _ -> None in
      (Some r, j)
  in
  let t =
    { cfg
    ; cache = Cache.create ()
    ; lanes
    ; qm = Mutex.create ()
    ; draining = false
    ; next_id = 0
    ; overloaded = 0
    ; queued = Atomic.make 0
    ; exec_deadline_ms = derived_executor_deadline cfg
    ; journal
    ; recovery
    ; mstop = Atomic.make false
    ; monitor = None
    }
  in
  (match cfg.cache_dir with
   | Some dir -> ignore (Cache.load t.cache ~dir)
   | None -> ());
  Array.iter (fun lane -> spawn_incarnation t lane) t.lanes;
  t.monitor <- Some (Domain.spawn (fun () -> monitor_loop t));
  t

(* --- admission --- *)

(* Source-hash affinity: a given source always runs on the same lane,
   so its results stay deterministic and its breaker history stays in
   one supervisor. *)
let lane_index (t : t) (job : Proto.job) : int =
  Hashtbl.hash (Supervisor.source_hash job) mod Array.length t.lanes

(* Admission control: accept into the bounded (fleet-wide) queue or
   reject NOW. *)
let submit (t : t) (job : Proto.job) :
  [ `Ticket of ticket | `Overloaded of int * int | `Draining ] =
  Mutex.lock t.qm;
  if t.draining then begin
    Mutex.unlock t.qm;
    `Draining
  end
  else begin
    let depth = Atomic.get t.queued in
    if depth >= t.cfg.queue_cap then begin
      t.overloaded <- t.overloaded + 1;
      Mutex.unlock t.qm;
      `Overloaded (depth, t.cfg.queue_cap)
    end
    else begin
      let id = t.next_id in
      t.next_id <- id + 1;
      Atomic.incr t.queued;
      Mutex.unlock t.qm;
      let tk =
        { id
        ; tm = Mutex.create ()
        ; tcv = Condition.create ()
        ; result = None
        ; notify = None
        }
      in
      (* accepted => journaled: after a SIGKILL, this ticket is either
         E-terminated or reported lost — never silently forgotten *)
      (match t.journal with
       | Some j ->
         Journal.start j ~id
           ~digest:(Cache.key ~source:job.Proto.source ~flags:(Proto.job_flags job))
       | None -> ());
      let lane = t.lanes.(lane_index t job) in
      Mutex.lock lane.lm;
      Queue.push (job, tk) lane.lq;
      Condition.signal lane.lcv;
      Mutex.unlock lane.lm;
      `Ticket tk
    end
  end

(* Synchronous submit for in-process callers (bench, tests). *)
let run (t : t) (job : Proto.job) : Proto.response =
  match submit t job with
  | `Ticket tk -> Proto.Done (await tk)
  | `Overloaded (depth, cap) -> Proto.Overloaded { depth; cap }
  | `Draining -> Proto.Rejected "draining"

(* --- drain --- *)

(* Graceful drain: stop admitting, finish every queued job (the monitor
   stays up so wedges during the drain are still replaced), stop the
   lanes and the monitor, compact the cache journal.  A lane that is
   wedged with no monitor armed is force-killed here — its ticket is
   failed, never lost. *)
let drain (t : t) : unit =
  Mutex.lock t.qm;
  t.draining <- true;
  Mutex.unlock t.qm;
  Array.iter
    (fun lane ->
      Mutex.lock lane.lm;
      Condition.broadcast lane.lcv;
      Mutex.unlock lane.lm)
    t.lanes;
  (* settle: every lane empty, idle, and its incarnation exited *)
  let settled lane =
    Mutex.lock lane.lm;
    let empty = Queue.is_empty lane.lq && lane.current = None in
    Mutex.unlock lane.lm;
    empty && Atomic.get lane.inc.exited
  in
  let deadline =
    Unix.gettimeofday ()
    +. (float_of_int (max 30_000 (3 * t.exec_deadline_ms)) /. 1000.)
  in
  let rec settle () =
    if Array.for_all settled t.lanes then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.01;
      settle ()
    end
  in
  let clean = settle () in
  if not clean then
    (* force-kill what never settled so no ticket is left unanswered *)
    Array.iter
      (fun lane ->
        if not (settled lane) then begin
          (* dead first: the incarnation then neither pops another job
             nor clears its slot, so [cur] stays the job it wedged on *)
          Atomic.set lane.inc.dead true;
          Mutex.lock lane.lm;
          let cur = lane.current in
          let leftovers = Queue.fold (fun acc it -> it :: acc) [] lane.lq in
          Queue.clear lane.lq;
          Mutex.unlock lane.lm;
          Option.iter
            (fun (job, tk) -> ignore (retire t lane ~job ~tk ~elapsed_ms:0))
            cur;
          let fail (_job, tk) =
            Atomic.decr t.queued;
            if
              fulfill tk
                (Supervisor.failure_outcome
                   "daemon drained while executor wedged")
            then journal_finish t tk "wedged"
          in
          List.iter fail (List.rev leftovers)
        end)
      t.lanes;
  Atomic.set t.mstop true;
  (match t.monitor with
   | Some d ->
     Domain.join d;
     t.monitor <- None
   | None -> ());
  (* join the incarnations that exited; wedged zombies are leaked *)
  Array.iter
    (fun lane ->
      let inc = lane.inc in
      if Atomic.get inc.exited then
        match inc.domain with
        | Some d ->
          (try Domain.join d with _ -> ());
          inc.domain <- None
        | None -> ())
    t.lanes;
  (match t.cfg.cache_dir with
   | Some dir -> ignore (Cache.flush t.cache ~dir)
   | None -> ());
  (match t.journal with Some j -> Journal.close j | None -> ());
  Cache.close t.cache;
  ignore (Runtime.Pool.shutdown_cached ())

(* --- introspection --- *)

let queue_depth (t : t) : int = Atomic.get t.queued
let overloaded_count (t : t) : int = t.overloaded
let cache (t : t) : Cache.t = t.cache
let executors (t : t) : int = Array.length t.lanes
let recovered (t : t) : Journal.recovery option = t.recovery

let executor_kills (t : t) : int =
  Array.fold_left (fun acc lane -> acc + lane.kills) 0 t.lanes

(* Fleet-wide supervisor stats: the sum over the lanes' private
   supervisors. *)
let agg_stats (t : t) : Supervisor.stats =
  let sum f =
    Array.fold_left (fun n lane -> n + f lane.lsup.Supervisor.stats) 0 t.lanes
  in
  { Supervisor.jobs = sum (fun s -> s.Supervisor.jobs)
  ; completed = sum (fun s -> s.completed)
  ; failed = sum (fun s -> s.failed)
  ; retries = sum (fun s -> s.retries)
  ; bundles = sum (fun s -> s.bundles)
  ; pool_rebuilds = sum (fun s -> s.pool_rebuilds)
  ; leaked_domains = sum (fun s -> s.leaked_domains)
  ; breaker_served = sum (fun s -> s.breaker_served)
  }

(* --- Unix-domain-socket front end --- *)

(* The responder: completions (not submissions) are queued, so a
   10-second job on lane 0 never delays the reply of a 10-ms job that
   finished on lane 1.  Each entry pairs the finished outcome with its
   connection and the client's wire id. *)
type responder_q =
  { rq : (Unix.file_descr * int * Proto.outcome) option Queue.t
  ; rm : Mutex.t
  ; rcv : Condition.t
  }

let responder_push (r : responder_q)
    (item : (Unix.file_descr * int * Proto.outcome) option) : unit =
  Mutex.lock r.rm;
  Queue.push item r.rq;
  Condition.signal r.rcv;
  Mutex.unlock r.rm

let responder_loop (r : responder_q) : unit =
  let rec loop () =
    Mutex.lock r.rm;
    while Queue.is_empty r.rq do
      Condition.wait r.rcv r.rm
    done;
    let item = Queue.pop r.rq in
    Mutex.unlock r.rm;
    match item with
    | None -> () (* sentinel: drain complete *)
    | Some (fd, wire_id, o) ->
      (try Proto.send fd (Proto.response_to_string ~id:wire_id (Proto.Done o))
       with _ -> () (* client went away; its job still ran and cached *));
      (try Unix.close fd with Unix.Unix_error _ -> ());
      loop ()
  in
  loop ()

let reply_and_close (fd : Unix.file_descr) ~(id : int) (resp : Proto.response)
    : unit =
  (try Proto.send fd (Proto.response_to_string ~id resp) with _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Run the daemon on [socket] until a shutdown request or SIGTERM /
   SIGINT, then drain.  Returns the number of jobs admitted.  [ready]
   (if given) is called once the socket is listening — the smoke test
   uses it; external clients use {!Client.wait_ready}. *)
let serve_unix ?(ready : (unit -> unit) option) ~(socket : string)
    (t : t) : int =
  let stop = Atomic.make false in
  (* a client that disconnects before its response is written must
     surface as EPIPE (caught around every send), not as a fatal
     SIGPIPE — readiness probes do exactly this *)
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let old_term =
    Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set stop true))
  in
  let old_int =
    Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> Atomic.set stop true))
  in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX socket);
  Unix.listen sock 16;
  (match ready with Some f -> f () | None -> ());
  let responder =
    { rq = Queue.create (); rm = Mutex.create (); rcv = Condition.create () }
  in
  let responder_d = Domain.spawn (fun () -> responder_loop responder) in
  let admitted = ref 0 in
  let rec accept_loop () =
    if Atomic.get stop then ()
    else begin
      match Unix.select [ sock ] [] [] 0.25 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | [], _, _ -> accept_loop ()
      | _ -> begin
        match Unix.accept sock with
        | exception Unix.Unix_error _ -> accept_loop ()
        | conn, _ ->
          (* a silent client must not wedge the accept loop *)
          (try Unix.setsockopt_float conn Unix.SO_RCVTIMEO 10.0
           with Unix.Unix_error _ -> ());
          (match Proto.recv conn with
           | Error e -> reply_and_close conn ~id:0 (Proto.Rejected e)
           | Ok payload -> begin
             match Proto.request_of_string payload with
             | Error e -> reply_and_close conn ~id:0 (Proto.Rejected e)
             | Ok (wire_id, Proto.Shutdown) ->
               reply_and_close conn ~id:wire_id
                 (Proto.Done
                    { Proto.exit_code = 0
                    ; checksum = "-"
                    ; cached = false
                    ; retries = 0
                    ; breaker = false
                    ; log = "draining: shutdown accepted"
                    });
               Atomic.set stop true
             | Ok (wire_id, Proto.Submit job) -> begin
               match submit t job with
               | `Ticket tk ->
                 incr admitted;
                 (* the responder sends the reply — in completion
                    order, echoing the client's id — once the job
                    lands *)
                 on_complete tk (fun o ->
                     responder_push responder (Some (conn, wire_id, o)))
               | `Overloaded (depth, cap) ->
                 reply_and_close conn ~id:wire_id
                   (Proto.Overloaded { depth; cap })
               | `Draining ->
                 reply_and_close conn ~id:wire_id (Proto.Rejected "draining")
             end
           end);
          if not (Atomic.get stop) then accept_loop ()
      end
    end
  in
  accept_loop ();
  (* drain: queued jobs finish (every ticket is fulfilled, so every
     pending on_complete fires), then the responder sees the
     sentinel *)
  drain t;
  responder_push responder None;
  Domain.join responder_d;
  (try Unix.close sock with Unix.Unix_error _ -> ());
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  Sys.set_signal Sys.sigterm old_term;
  Sys.set_signal Sys.sigint old_int;
  Sys.set_signal Sys.sigpipe old_pipe;
  !admitted
