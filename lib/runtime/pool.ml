(* Persistent domain pool (see the .mli).

   Each worker owns a mutex/condvar pair used in both directions: the
   caller posts a job and signals; the worker runs it, marks itself done
   and signals back.  One pair per worker (not a shared queue) keeps
   wakeups targeted: posting N jobs wakes exactly the N workers. *)

(* [idle_job] is a sentinel so posting a job writes a closure that
   already exists instead of wrapping it in [Some] — launch hot paths
   must not allocate (see Exec's zero-allocation launch contract). *)
let idle_job (_ : int) = ()

type worker =
  { rank : int
  ; m : Mutex.t
  ; cv : Condition.t
  ; mutable job : int -> unit
  ; mutable has_job : bool
  ; mutable done_ : bool
  ; mutable exn_ : exn option
  ; mutable stop : bool
  }

type t =
  { size : int
  ; workers : worker array (* size - 1 entries, ranks 1.. *)
  ; mutable domains : unit Domain.t array
  }

let spawns = Atomic.make 0
let total_spawns () = Atomic.get spawns

let worker_loop (w : worker) : unit =
  let running = ref true in
  while !running do
    Mutex.lock w.m;
    while (not w.has_job) && not w.stop do
      Condition.wait w.cv w.m
    done;
    if w.stop then begin
      Mutex.unlock w.m;
      running := false
    end
    else begin
      let job = w.job in
      Mutex.unlock w.m;
      let exn_ = match job w.rank with () -> None | exception e -> Some e in
      Mutex.lock w.m;
      w.exn_ <- exn_;
      w.job <- idle_job;
      w.has_job <- false;
      w.done_ <- true;
      Condition.broadcast w.cv;
      Mutex.unlock w.m
    end
  done

let release_pool (t : t) : unit =
  Array.iter
    (fun w ->
      Mutex.lock w.m;
      w.stop <- true;
      Condition.broadcast w.cv;
      Mutex.unlock w.m)
    t.workers;
  Array.iter Domain.join t.domains;
  t.domains <- [||]

let create size : t =
  if size < 1 then invalid_arg "Pool.get: domains must be >= 1";
  let workers =
    Array.init (size - 1) (fun i ->
        { rank = i + 1
        ; m = Mutex.create ()
        ; cv = Condition.create ()
        ; job = idle_job
        ; has_job = false
        ; done_ = false
        ; exn_ = None
        ; stop = false
        })
  in
  let t = { size; workers; domains = [||] } in
  (try
     Array.iter
       (fun w ->
         Atomic.incr spawns;
         let d = Domain.spawn (fun () -> worker_loop w) in
         t.domains <- Array.append t.domains [| d |])
       workers
   with e ->
     (* Domain.spawn fails once the process holds OCaml's maximum of
        live domains: stop the part of the team already spawned rather
        than leave it parked forever *)
     release_pool t;
     raise e);
  t

(* Fault-wall teardown.  [release_pool] joins every worker, which is
   correct for a healthy pool but blocks forever if a worker is wedged
   mid-job (a hung launch whose watchdog never fired, or a rank parked
   on a barrier whose poison broadcast it missed).  [shutdown] instead
   signals stop, joins only the workers that are demonstrably between
   jobs, and abandons the rest: an OCaml domain cannot be killed, so a
   wedged worker is leaked (it exits on its own if the job ever
   returns) and the count of leaked domains is reported so callers can
   surface it.  The racy [has_job && not done_] read is conservative —
   a worker finishing right after the check is leaked-but-exiting, not
   blocked. *)
let shutdown (t : t) : int =
  let leaked = ref 0 in
  Array.iteri
    (fun i w ->
      Mutex.lock w.m;
      w.stop <- true;
      Condition.broadcast w.cv;
      let busy = w.has_job && not w.done_ in
      Mutex.unlock w.m;
      if busy then incr leaked
      else if i < Array.length t.domains then
        try Domain.join t.domains.(i) with _ -> ())
    t.workers;
  t.domains <- [||];
  !leaked

(* The cached pool is DOMAIN-LOCAL: each domain that launches kernels
   (the CLI's main domain, or one of the compile service's executor
   lanes) owns its own persistent team.  This is what lets the serving
   tier run N executors concurrently — a poisoned or torn-down pool in
   one lane never stalls or steals the team of another. *)
let cached_pool : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let shutdown_cached () : int =
  let cell = Domain.DLS.get cached_pool in
  match !cell with
  | None -> 0
  | Some p ->
    cell := None;
    shutdown p

let get ~domains : t =
  let cell = Domain.DLS.get cached_pool in
  match !cell with
  | Some p when p.size = domains -> p
  | existing ->
    (* empty the cell before releasing: when [create] fails (OCaml's
       domain limit), the next [get] must build a team, not hand back
       the released one *)
    cell := None;
    Option.iter release_pool existing;
    let p = create domains in
    cell := Some p;
    p

let run (t : t) (job : int -> unit) : unit =
  if t.size = 1 then job 0
  else begin
    Array.iter
      (fun w ->
        Mutex.lock w.m;
        w.done_ <- false;
        w.exn_ <- None;
        w.job <- job;
        w.has_job <- true;
        Condition.broadcast w.cv;
        Mutex.unlock w.m)
      t.workers;
    (* the caller is rank 0 of the team *)
    let first_exn =
      ref (match job 0 with () -> None | exception e -> Some e)
    in
    Array.iter
      (fun w ->
        Mutex.lock w.m;
        while not w.done_ do
          Condition.wait w.cv w.m
        done;
        (match w.exn_ with
         | Some e when Option.is_none !first_exn -> first_exn := Some e
         | _ -> ());
        Mutex.unlock w.m)
      t.workers;
    match !first_exn with
    | Some e -> raise e
    | None -> ()
  end
