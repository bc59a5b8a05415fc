(* serve-mixed: an in-process compile service with a real cache
   directory, so the write-ahead cache journal and the in-flight journal
   fsync, driven closed-loop by one client.  One op is one submit +
   await.  The mix puts writes (cold sources) beside reads (warm
   repeats) behind admission, queueing and durability, and a few jobs
   carry an injected fault that exercises the retry path.

   A job fails on a nonzero exit, an Overloaded reply, or a checksum
   other than [reference]'s for the same source. *)

module P = Serve.Proto

type cls =
  | Warm
  | Cold
  | Faulted

let cls_name = function Warm -> "warm" | Cold -> "cold" | Faulted -> "faulted"

(* The saxpy family of the earlier service table (BENCH_5.json). *)
let saxpy (k : int) : string =
  Printf.sprintf
    {|__global__ void saxpy(float* x, float* y, int n) {
  int i = blockIdx.x * 64 + threadIdx.x;
  if (i < n) y[i] = %d.0f * x[i] + y[i];
}
void run(float* x, float* y, int n) {
  saxpy<<<(n + 63) / 64, 64>>>(x, y, n);
}
|}
    k

(* test/fixtures/reduce.cu with a constant scaling its input: a shared-
   memory tree reduction, so every cold job of this kind runs barrier
   lowering. *)
let reduce (k : int) : string =
  Printf.sprintf
    {|__global__ void reduce(float* in, float* out, int n) {
  __shared__ float buf[64];
  int t = threadIdx.x;
  int i = blockIdx.x * 64 + t;
  if (i < n) buf[t] = in[i] * %d.0f;
  else buf[t] = 0.0f;
  __syncthreads();
  for (int s = 32; s > 0; s = s / 2) {
    if (t < s) buf[t] = buf[t] + buf[t + s];
    __syncthreads();
  }
  if (t == 0) out[blockIdx.x] = buf[0];
}
void run(float* in, float* out, int n) {
  reduce<<<(n + 63) / 64, 64>>>(in, out, n);
}
|}
    k

(* Half of each source population per template. *)
let source (k : int) : string = if k land 1 = 0 then saxpy k else reduce k

let job ?(faults = "") (src : string) : P.job =
  { P.source = src
  ; entry = Some "run"
  ; sizes = [ Params.serve_size ]
  ; mode = "inner-serial"
  ; exec = "interp"
  ; domains = Params.domains
  ; schedule = "static"
  ; faults
  }

(* Constants 2 .. hot_set+1 are the hot set; cold constants start above
   every hot one and never repeat within a run. *)
let hot = Array.init Params.serve_hot_set (fun i -> source (i + 2))
let cold_base = 1_000

let sup_config (dir : string) : Serve.Supervisor.config =
  { Serve.Supervisor.default_config with
    crash_dir = Some (Filename.concat dir "crash")
  ; backoff = { Serve.Backoff.default with base_ms = 1; cap_ms = 5 }
  }

let rec rm_rf (path : string) : unit =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let ok_outcome (r : P.outcome) : bool = r.P.exit_code = 0

(* Submit every hot-set source at once and wait: set-up fills the cache. *)
let warm_hot_set (srv : Serve.Server.t) : unit =
  let tickets =
    Array.map
      (fun src ->
        match Serve.Server.submit srv (job src) with
        | `Ticket tk -> tk
        | `Overloaded _ | `Draining -> failwith "hot-set compile refused")
      hot
  in
  Array.iter
    (fun tk ->
      if not (ok_outcome (Serve.Server.await tk)) then failwith "hot-set compile failed")
    tickets

type server =
  { dir : string
  ; srv : Serve.Server.t
  }

let start ~durable : server =
  let dir = Filename.temp_dir "serve" "" in
  let srv =
    Serve.Server.create
      { Serve.Server.queue_cap = Params.serve_queue_cap
      ; sup = sup_config dir
      ; cache_dir = (if durable then Some (Filename.concat dir "cache") else None)
      ; executors = Params.serve_executors
      ; executor_deadline_ms = 0
      }
  in
  warm_hot_set srv;
  { dir; srv }

let stop (s : server) : unit =
  Serve.Server.drain s.srv;
  rm_rf s.dir

(* The job's checksum from the GPU-semantics interpreter on the
   frontend's IR, with the service's own argument construction: no pass,
   cache or journal of the service on the path. *)
let reference (j : P.job) : string =
  let m = Cudafe.Codegen.compile j.P.source in
  let f = Option.get (Ir.Op.find_func m "run") in
  let args = Serve.Supervisor.make_args f j.P.sizes in
  ignore (Interp.Eval.run m "run" args);
  Serve.Supervisor.checksum_of_args args

(* A traced op's record, for the per-layer shares. *)
type sample =
  { cls : cls
  ; ms : float
  ; submit_ms : float
  ; await_ms : float
  }

let time_ms f =
  let t0 = Trace.now_ns () in
  let r = f () in
  (r, Trace.ms_of_ns (Int64.sub (Trace.now_ns ()) t0))

(* The closed loop.  Returns the traced ops' records, the cold jobs with
   the checksums they returned (verified after the loop), and the peak
   RSS. *)
let block : cls array =
  Array.concat
    [ Array.make Params.serve_faulted Faulted
    ; Array.make Params.serve_cold Cold
    ; Array.make (Params.serve_block - Params.serve_faulted - Params.serve_cold) Warm
    ]

let client_loop ~srv ~seed ~seconds ~hot_refs (s : Report.sampler) =
  let rng = Random.State.make [| seed |] in
  let order = ref [||] and next = ref 0 and cold_n = ref 0 in
  let traced_samples = ref [] and cold_results = ref [] and rss = ref None in
  let t0 = Report.now_s () in
  while Report.more s ~t0 ~seconds do
    if !next = Array.length !order then begin
      order := Report.shuffle rng block;
      next := 0
    end;
    let cls = !order.(!next) and hot_i = Random.State.int rng Params.serve_hot_set in
    incr next;
    let j =
      match cls with
      | Warm -> job hot.(hot_i)
      | Faulted -> job ~faults:"serve:raise" hot.(hot_i)
      | Cold ->
        incr cold_n;
        let template = if !cold_n mod Params.serve_cold_saxpy_one_in = 0 then saxpy else reduce in
        job (template (cold_base + !cold_n))
    in
    let out, ms, traced =
      Report.op s (fun op ->
          let r, submit_ms =
            time_ms (fun () -> Trace.span ~op "serve.submit" (fun () -> Serve.Server.submit srv j))
          in
          match r with
          | `Ticket tk ->
            let o, await_ms =
              time_ms (fun () -> Trace.span ~op "serve.await" (fun () -> Serve.Server.await tk))
            in
            (Some o, submit_ms, await_ms)
          | `Overloaded _ | `Draining -> (None, submit_ms, 0.0))
    in
    Option.iter
      (fun (outcome, submit_ms, await_ms) ->
        let correct =
          match outcome, cls with
          | Some o, Cold when ok_outcome o ->
            cold_results := (j, o.P.checksum) :: !cold_results;
            true
          | Some o, (Warm | Faulted) -> ok_outcome o && o.P.checksum = hot_refs.(hot_i)
          | _ -> false
        in
        if not correct then
          Printf.eprintf "serve-mixed: %s job failed: %s\n%!" (cls_name cls)
            (match outcome with
             | Some o ->
               Printf.sprintf "exit %d, checksum %s\n%s" o.P.exit_code o.P.checksum o.P.log
             | None -> "refused at admission");
        Report.check s correct;
        if traced then traced_samples := { cls; ms; submit_ms; await_ms } :: !traced_samples)
      out;
    if s.Report.attempted = Params.serve_rss_at_ops then rss := Some (Host.peak_rss_mb ())
  done;
  (!traced_samples, !cold_results, !rss)

(* Warm ops from one client, one at a time: the latency a cache hit
   pays with and without the journals' fsyncs. *)
let warm_p50 (srv : Serve.Server.t) : float =
  Stats.median
    (Array.init Params.serve_durable_ops (fun i ->
         snd (time_ms (fun () -> Serve.Server.run srv (job hot.(i mod Params.serve_hot_set))))))

(* Traced runs only: the mean time of Supervisor.run_job called
   directly, per job class, on the live server's cache; the rest of an
   await is queue wait and hand-off.  A mean, because it is charged to
   every op of its class and the charges are summed. *)
let run_job_mean (s : server) : cls -> float =
  let sup = Serve.Supervisor.create (sup_config s.dir) in
  let cache = Serve.Server.cache s.srv in
  let time n mk =
    let total = ref 0.0 in
    for i = 0 to n - 1 do
      total :=
        !total
        +. snd
             (time_ms (fun () ->
                  Serve.Supervisor.run_job sup ~cache ~queue_depth:0 ~job_id:i (mk i)))
    done;
    !total /. float_of_int n
  in
  let warm = time Params.serve_run_job_warm (fun i -> job hot.(i mod Params.serve_hot_set)) in
  let cold = time Params.serve_run_job_cold (fun i -> job (source (cold_base - 100 - i))) in
  let faulted =
    time Params.serve_run_job_faulted (fun i ->
        job ~faults:"serve:raise" hot.(i mod Params.serve_hot_set))
  in
  function Warm -> warm | Cold -> cold | Faulted -> faulted

let run ~seed ~seconds ~traced : Report.t =
  let setup_s, srv =
    Report.setups ~n:Params.setup_reps ~setup:(fun () -> start ~durable:true) ~teardown:stop
  in
  let hot_refs = Array.map (fun src -> reference (job src)) hot in
  let cache0 = Serve.Cache.stats (Serve.Server.cache srv.srv) in
  let sup0 = Serve.Server.agg_stats srv.srv in
  let s = Report.sampler ~traced_run:traced in
  let tr, cold_results, rss = client_loop ~srv:srv.srv ~seed ~seconds ~hot_refs s in
  let cache1 = Serve.Cache.stats (Serve.Server.cache srv.srv) in
  let sup1 = Serve.Server.agg_stats srv.srv in
  List.iter
    (fun (j, ck) ->
      let want = reference j in
      if want <> ck then
        Printf.eprintf "serve-mixed: cold job checksum %s, reference %s\n%!" ck want;
      Report.check s (want = ck))
    cold_results;
  let layers =
    if not traced then []
    else begin
      let run_job = run_job_mean srv in
      let durable = warm_p50 srv.srv in
      let plain = start ~durable:false in
      let non_durable = warm_p50 plain.srv in
      stop plain;
      let sum f l = List.fold_left (fun a x -> a +. f x) 0.0 l in
      let total = sum (fun x -> x.ms) tr in
      let share f = sum f tr /. total in
      let ops = float_of_int s.Report.attempted in
      let per_op a b = float_of_int (a - b) /. ops in
      let await = share (fun x -> x.await_ms) in
      let run_job_share = share (fun x -> run_job x.cls) in
      Report.sampler_summary s ~attributed_ms:(sum (fun x -> x.submit_ms +. x.await_ms) tr)
      @ [ ("serve.submit.share", share (fun x -> x.submit_ms))
        ; ("serve.queue_wait.share", await -. run_job_share)
        ; ("supervisor.run_job.share", run_job_share)
        ; ("serve.durable.share", (durable -. non_durable) /. durable)
        ; ("cache.hits", per_op cache1.hits cache0.hits)
        ; ("cache.misses", per_op cache1.misses cache0.misses)
        ; ("cache.quarantined", per_op cache1.quarantined cache0.quarantined)
        ; ( "cache.hit_ratio",
            float_of_int (cache1.hits - cache0.hits)
            /. float_of_int (cache1.hits - cache0.hits + cache1.misses - cache0.misses) )
        ; ("supervisor.retries", per_op sup1.retries sup0.retries)
        ; ("supervisor.bundles", per_op sup1.bundles sup0.bundles)
        ; ("supervisor.failed", per_op sup1.failed sup0.failed)
        ; ("supervisor.breaker_served", per_op sup1.breaker_served sup0.breaker_served)
        ]
      @ List.map
          (fun c -> ("serve.class." ^ cls_name c ^ ".share", share (fun x -> if x.cls = c then x.ms else 0.0)))
          [ Warm; Cold; Faulted ]
    end
  in
  stop srv;
  Report.finish ?peak_rss_mb:rss s ~checks_ok:true ~setup_s ~layers
