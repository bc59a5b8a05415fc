(* Seeded chaos campaign against the in-process daemon core.

   The campaign drives a fleet-configured {!Server.t} through a
   deterministic (seed-derived) schedule of events — clean submits,
   fault-plan submits (serve:raise / serve:corrupt / serve:exhaust /
   serve:hang), executor wedges (executor:hang) and crashes
   (executor:raise), and admission bursts past the queue cap — then
   drains and checks the serving tier's delivery invariants:

     1. LIVENESS: the daemon survives (we are in-process: no uncaught
        exception, [drain] returns).
     2. DELIVERY: every accepted ticket holds a terminal outcome after
        drain.  An empty ticket is a lost job — the exact bug the
        supervision layer exists to rule out.
     3. CORRECTNESS: every clean job's checksum is bit-identical to the
        one-shot (unsupervised, uncached) execution of the same job,
        and cache hits are bit-identical to cold results.
     4. SUPERVISION: every injected executor wedge was detected and the
        wedged incarnation replaced (kills >= wedges injected).
     5. DURABILITY (when a state dir is given): reloading the cache
        journal into a fresh cache yields only digest-verified entries
        ([Cache.verify_all] = 0), and the in-flight journal reports
        nothing lost after a clean drain.

   Randomness comes only from [Random.State.make [| seed |]], so a
   seed is a complete reproducer.  The schedule is quota-adjusted after
   generation: a campaign always contains at least [min_faults] (20)
   fault events and [min_wedges] (2) wedge events regardless of seed, so
   the acceptance bar ("the campaign exercised the machinery") cannot be
   dodged by an unlucky draw. *)

type config =
  { seed : int
  ; events : int (* schedule length (bursts count as one event) *)
  ; executors : int
  ; queue_cap : int
  ; state_dir : string option (* cache + journal dir; None = in-memory *)
  ; crash_dir : string option
  }

let default_config =
  { seed = 42
  ; events = 60
  ; executors = 4
  ; queue_cap = 16
  ; state_dir = None
  ; crash_dir = None
  }

let min_faults = 20
let min_wedges = 2

type report =
  { submitted : int
  ; accepted : int
  ; overloaded : int
  ; faults_injected : int
  ; wedges_injected : int
  ; crashes_injected : int
  ; executor_kills : int
  ; completed_ok : int
  ; completed_failed : int
  ; cache_hits : int
  ; violations : string list (* empty = campaign passed *)
  }

let report_to_string (r : report) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "chaos: %d submitted (%d accepted, %d overloaded), %d faults, %d \
        wedges, %d crashes injected; %d executor kill(s); %d ok / %d failed; \
        %d cache hit(s)\n"
       r.submitted r.accepted r.overloaded r.faults_injected r.wedges_injected
       r.crashes_injected r.executor_kills r.completed_ok r.completed_failed
       r.cache_hits);
  (match r.violations with
   | [] -> Buffer.add_string b "chaos: all invariants held\n"
   | vs ->
     List.iter
       (fun v -> Buffer.add_string b (Printf.sprintf "chaos VIOLATION: %s\n" v))
       vs);
  Buffer.contents b

(* --- the job pool --- *)

(* Several distinct sources so source-hash affinity spreads the
   campaign across lanes (and the cache holds several keys). *)
let sources : string array =
  [| {|__global__ void saxpy(float* x, float* y, int n) {
  int i = blockIdx.x * 64 + threadIdx.x;
  if (i < n) y[i] = 2.0f * x[i] + y[i];
}
void run(float* x, float* y, int n) {
  saxpy<<<(n + 63) / 64, 64>>>(x, y, n);
}
|}
   ; {|__global__ void scale(float* x, float* y, int n) {
  int i = blockIdx.x * 64 + threadIdx.x;
  if (i < n) y[i] = 3.0f * x[i];
}
void run(float* x, float* y, int n) {
  scale<<<(n + 63) / 64, 64>>>(x, y, n);
}
|}
   ; {|__global__ void offset(float* x, float* y, int n) {
  int i = blockIdx.x * 64 + threadIdx.x;
  if (i < n) y[i] = x[i] + 1.5f;
}
void run(float* x, float* y, int n) {
  offset<<<(n + 63) / 64, 64>>>(x, y, n);
}
|}
   ; {|__global__ void square(float* x, float* y, int n) {
  int i = blockIdx.x * 64 + threadIdx.x;
  if (i < n) y[i] = x[i] * x[i];
}
void run(float* x, float* y, int n) {
  square<<<(n + 63) / 64, 64>>>(x, y, n);
}
|}
  |]

let mk_job ?(faults = "") (src : int) : Proto.job =
  { Proto.source = sources.(src mod Array.length sources)
  ; entry = Some "run"
  ; sizes = [ 96 ]
  ; mode = "inner-serial"
  ; exec = "interp" (* serial engine: fast and deterministic under load *)
  ; domains = 2
  ; schedule = "static"
  ; faults
  }

(* --- the schedule --- *)

type event =
  | Clean of int (* source index *)
  | Faulty of int * string (* source, serve:* fault kind *)
  | Wedge of int (* executor:hang — the lane must be killed/replaced *)
  | Crash of int (* executor:raise — the lane loop dies, is respawned *)
  | Burst of int (* n rapid clean submits; > queue_cap forces overloads *)

let schedule (cfg : config) : event list =
  let rng = Random.State.make [| cfg.seed; 0xc4a05 |] in
  let pick () =
    let src = Random.State.int rng (Array.length sources) in
    match Random.State.int rng 10 with
    | 0 | 1 | 2 | 3 ->
      let kinds = [| "raise"; "corrupt"; "exhaust"; "hang" |] in
      Faulty (src, kinds.(Random.State.int rng 4))
    | 4 -> Wedge src
    | 5 -> Crash src
    | 6 -> Burst (cfg.queue_cap + 4 + Random.State.int rng 8)
    | _ -> Clean src
  in
  let evs = Array.init cfg.events (fun _ -> pick ()) in
  (* quota top-up: deterministically overwrite leading events so every
     campaign meets its fault/wedge floor whatever the draw *)
  let count p = Array.fold_left (fun n e -> if p e then n + 1 else n) 0 evs in
  let is_fault = function Faulty _ -> true | _ -> false in
  let is_wedge = function Wedge _ -> true | _ -> false in
  let is_burst = function Burst _ -> true | _ -> false in
  let place p mk need =
    let missing = ref (need - count p) in
    Array.iteri
      (fun i e ->
        if !missing > 0 && (not (p e)) && (not (is_wedge e)) && not (is_burst e)
        then begin
          evs.(i) <- mk i;
          decr missing
        end)
      evs
  in
  place is_wedge (fun i -> Wedge i) min_wedges;
  place is_fault
    (fun i ->
      let kinds = [| "raise"; "corrupt"; "exhaust"; "hang" |] in
      Faulty (i, kinds.(i mod 4)))
    min_faults;
  Array.to_list evs

(* --- references: the one-shot answer for every clean job --- *)

(* The unsupervised, uncached execution of a source is the oracle the
   daemon's answers must match bit for bit. *)
let reference_checksums () : string array =
  Array.mapi
    (fun i _ ->
      match Supervisor.replay_attempt ~deadline_ms:30_000 (mk_job i) with
      | Ok o -> o.Proto.checksum
      | Error e -> failwith ("chaos: reference job died: " ^ e))
    sources

(* --- the campaign --- *)

type pending =
  { psrc : int
  ; pclean : bool
  ; ptk : Server.ticket
  }

let run (cfg : config) : report =
  let refs = reference_checksums () in
  let server_cfg =
    { Server.queue_cap = cfg.queue_cap
    ; cache_dir = cfg.state_dir
    ; executors = cfg.executors
    ; executor_deadline_ms = 1500
      (* far above any legitimate job here (deadline 150 ms, 1 retry,
         5 ms backoff cap), far below the test-suite budget *)
    ; sup =
        { Supervisor.deadline_ms = 150
        ; crash_dir = cfg.crash_dir
        ; backoff = { Backoff.base_ms = 1; cap_ms = 5; max_retries = 1 }
        ; seed = cfg.seed
        }
    }
  in
  let t = Server.create server_cfg in
  let submitted = ref 0
  and overloaded = ref 0
  and faults = ref 0
  and wedges = ref 0
  and crashes = ref 0 in
  let pend : pending list ref = ref [] in
  let submit ?(faults = "") ~clean src : bool =
    incr submitted;
    match Server.submit t (mk_job ~faults src) with
    | `Ticket tk ->
      pend := { psrc = src; pclean = clean; ptk = tk } :: !pend;
      true
    | `Overloaded _ | `Draining ->
      incr overloaded;
      false
  in
  (* The campaign is the daemon's only client, so waiting for queue
     space guarantees the next submit is admitted.  Non-burst events
     are paced this way — an injection that bounces off admission
     control exercises nothing — while bursts deliberately slam past
     the cap to exercise exactly that. *)
  let wait_space () =
    while Server.queue_depth t >= cfg.queue_cap do
      Unix.sleepf 0.005
    done
  in
  List.iter
    (fun ev ->
      match ev with
      | Clean src ->
        wait_space ();
        ignore (submit ~clean:true src)
      | Faulty (src, kind) ->
        wait_space ();
        if submit ~faults:("serve:" ^ kind) ~clean:false src then incr faults
      | Wedge src ->
        wait_space ();
        if submit ~faults:"executor:hang" ~clean:false src then incr wedges
      | Crash src ->
        wait_space ();
        if submit ~faults:"executor:raise" ~clean:false src then incr crashes
      | Burst n ->
        for i = 0 to n - 1 do
          ignore (submit ~clean:true i)
        done)
    (schedule cfg);
  Server.drain t;
  (* --- invariants --- *)
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let ok = ref 0 and failed = ref 0 and hits = ref 0 in
  List.iter
    (fun p ->
      match Server.peek p.ptk with
      | None ->
        (* invariant 2: accepted => answered *)
        violate "ticket %d accepted but never answered (lost job)"
          (Server.ticket_id p.ptk)
      | Some o ->
        if o.Proto.cached then incr hits;
        if o.Proto.exit_code = 2 then begin
          incr failed;
          if p.pclean then
            violate "clean ticket %d failed: %s" (Server.ticket_id p.ptk)
              (String.concat " | " (String.split_on_char '\n' o.Proto.log))
        end
        else begin
          incr ok;
          (* invariant 3: clean answers match the one-shot oracle *)
          if p.pclean && o.Proto.checksum <> refs.(p.psrc mod Array.length refs)
          then
            violate "clean ticket %d checksum %s, one-shot reference %s"
              (Server.ticket_id p.ptk) o.Proto.checksum
              refs.(p.psrc mod Array.length refs)
        end)
    !pend;
  (* invariant 4: every wedge was detected (over-detection — a kill of
     a merely slow lane — is allowed; losing a wedge is not) *)
  let kills = Server.executor_kills t in
  if kills < !wedges then
    violate "%d executor wedge(s) injected but only %d kill(s) recorded"
      !wedges kills;
  (* invariant 5: the journal a restart would replay is verified *)
  (match cfg.state_dir with
   | None -> ()
   | Some dir ->
     let fresh = Cache.create () in
     let loaded = Cache.load fresh ~dir in
     let bad = Cache.verify_all fresh in
     if bad <> 0 then
       violate "cache journal replay produced %d corrupt entr(ies)" bad;
     if loaded = 0 && !ok > 0 then
       violate "cache journal replay loaded nothing after %d completed jobs"
         !ok;
     Cache.close fresh;
     let rec_ = Journal.recover ~dir in
     if rec_.Journal.lost <> [] then
       violate "in-flight journal reports %d lost ticket(s) after a CLEAN drain"
         (List.length rec_.Journal.lost));
  { submitted = !submitted
  ; accepted = List.length !pend
  ; overloaded = !overloaded
  ; faults_injected = !faults
  ; wedges_injected = !wedges
  ; crashes_injected = !crashes
  ; executor_kills = kills
  ; completed_ok = !ok
  ; completed_failed = !failed
  ; cache_hits = !hits
  ; violations = List.rev !violations
  }
