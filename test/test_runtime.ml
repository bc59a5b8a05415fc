(* Differential and unit tests for the multicore runtime (lib/runtime).

   The heart is the differential suite: for every Rodinia benchmark, the
   parallel engine at d domains must produce the exact commutative
   checksum of the serial GPU-semantics interpreter at team_size = d —
   bitwise, no tolerance, since a correct race-free execution is
   schedule-independent.  The domain counts come from RUNTIME_DOMAINS
   (comma-separated, default "1,2,4"); the @runtime dune alias runs this
   executable once with RUNTIME_DOMAINS=1 and once with =2,4,8.

   Unit tests cover the sense-reversing barrier under contention and
   poisoning, domain-pool reuse and exception propagation, schedule
   partition/exactly-once properties and the balanced static partition
   (single source of truth in Interp.Eval), the compiled access paths (a
   QCheck differential of strided loads/stores against the interpreter,
   including out-of-bounds ranges that must be rejected at loop entry,
   and one of checked accesses at ranks 0, 1, 3 and 4 with exact error
   texts), every scalar op against the interpreter bit for bit (QCheck)
   and, as a table over edge operands in registers and literals, the
   engine at every domain count and the interpreter against
   Interp.Scalar.eval, the per-compile unbound-register sentinel, the
   zero-allocation relaunch contract, a loop that must allocate nothing
   per iteration, and the --chunk knob, worksharing via builder-built IR
   under many team sizes and all three schedules (including a skewed
   load for dynamic work stealing), the interpreter's team-size plumbing
   (wsloops inside GPU block regions must NOT be chunked), scf.if
   results and scf.for iter_args on both engines (int and float
   registers, a parallel-copy swap, zero-trip and nested loops, a
   faulting arm), and fault injection through the parallel path. *)

open Ir

let domains_under_test : int list =
  match Sys.getenv_opt "RUNTIME_DOMAINS" with
  | None | Some "" -> [ 1; 2; 4 ]
  | Some s ->
    String.split_on_char ',' s
    |> List.filter_map (fun x -> int_of_string_opt (String.trim x))

(* --- Rodinia differential --- *)

let build_bench (b : Rodinia.Bench_def.t) : Op.op =
  let m = Cudafe.Codegen.compile b.cuda_src in
  Core.Cpuify.run m;
  ignore (Core.Omp_lower.run m);
  Core.Canonicalize.run m;
  m

let serial_checksum (m : Op.op) (b : Rodinia.Bench_def.t) ~team_size : float =
  let w = b.mk_workload b.test_size in
  ignore
    (Interp.Eval.run ~team_size m b.entry
       (Rodinia.Bench_def.args_of_workload w));
  Interp.Mem.checksum w.Rodinia.Bench_def.buffers

let parallel_checksum (m : Op.op) (b : Rodinia.Bench_def.t) ~domains
    ~schedule : float =
  let w = b.mk_workload b.test_size in
  ignore
    (Runtime.Exec.run_module ~domains ~schedule m b.entry
       (Rodinia.Bench_def.args_of_workload w));
  Interp.Mem.checksum w.Rodinia.Bench_def.buffers

let test_rodinia_differential (b : Rodinia.Bench_def.t) () =
  let m = build_bench b in
  List.iter
    (fun d ->
      let expect = serial_checksum m b ~team_size:d in
      let got =
        parallel_checksum m b ~domains:d ~schedule:Runtime.Schedule.Static
      in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%s @ %d domains (static)" b.name d)
        expect got)
    domains_under_test

(* --- barrier --- *)

let test_barrier_contention () =
  let size = 8 and phases = 200 in
  let b = Runtime.Barrier.create size in
  let counter = Atomic.make 0 in
  let errors = Atomic.make 0 in
  let work () =
    for p = 1 to phases do
      Atomic.incr counter;
      Runtime.Barrier.wait b;
      (* every thread's increment for phase [p] must be visible; the
         second barrier keeps anyone from racing into phase [p+1]
         before all checks are done *)
      if Atomic.get counter <> p * size then Atomic.incr errors;
      Runtime.Barrier.wait b
    done
  in
  let ds = Array.init (size - 1) (fun _ -> Domain.spawn work) in
  work ();
  Array.iter Domain.join ds;
  Alcotest.(check int) "no torn phases" 0 (Atomic.get errors);
  Alcotest.(check int) "phase count" (2 * phases) (Runtime.Barrier.phases b)

let test_barrier_poison () =
  let b = Runtime.Barrier.create 3 in
  let poisoned = Atomic.make 0 in
  let ds =
    Array.init 2 (fun _ ->
        Domain.spawn (fun () ->
            match Runtime.Barrier.wait b with
            | () -> ()
            | exception Runtime.Barrier.Poisoned -> Atomic.incr poisoned))
  in
  (* let the waiters block (they fall through the spin phase onto the
     condvar on this single-core machine), then poison *)
  Unix.sleepf 0.05;
  Runtime.Barrier.poison b;
  Array.iter Domain.join ds;
  Alcotest.(check int) "both waiters unblocked with Poisoned" 2
    (Atomic.get poisoned)

(* --- pool --- *)

let test_pool_reuse () =
  ignore (Runtime.Pool.shutdown_cached ());
  let s0 = Runtime.Pool.total_spawns () in
  let p = Runtime.Pool.get ~domains:4 in
  let hits = Atomic.make 0 in
  Runtime.Pool.run p (fun _ -> Atomic.incr hits);
  Alcotest.(check int) "all ranks ran" 4 (Atomic.get hits);
  Alcotest.(check int) "first acquisition spawns n-1 domains" 3
    (Runtime.Pool.total_spawns () - s0);
  let p2 = Runtime.Pool.get ~domains:4 in
  Runtime.Pool.run p2 (fun _ -> Atomic.incr hits);
  Alcotest.(check int) "reuse spawns nothing" 3
    (Runtime.Pool.total_spawns () - s0);
  ignore (Runtime.Pool.shutdown_cached ())

exception Boom

let test_pool_exception () =
  ignore (Runtime.Pool.shutdown_cached ());
  let p = Runtime.Pool.get ~domains:4 in
  let raised =
    match Runtime.Pool.run p (fun rank -> if rank = 2 then raise Boom) with
    | () -> false
    | exception Boom -> true
  in
  Alcotest.(check bool) "worker exception re-raised at the join" true raised;
  (* the pool must survive a failed job *)
  let hits = Atomic.make 0 in
  Runtime.Pool.run p (fun _ -> Atomic.incr hits);
  Alcotest.(check int) "pool healthy after a failed job" 4 (Atomic.get hits);
  ignore (Runtime.Pool.shutdown_cached ())

(* A team larger than OCaml lets one process hold fails to build, and
   takes its partly spawned workers down with it: the process can
   still spawn domains afterwards, and the failed resize leaves no
   released team cached, so the next acquisition builds a fresh one. *)
let test_pool_spawn_failure () =
  ignore (Runtime.Pool.shutdown_cached ());
  ignore (Runtime.Pool.get ~domains:4);
  (match Runtime.Pool.get ~domains:200 with
   | _ -> () (* a runtime without the 128 limit *)
   | exception Failure _ -> ());
  Domain.join (Domain.spawn ignore);
  let s0 = Runtime.Pool.total_spawns () in
  let p = Runtime.Pool.get ~domains:4 in
  Alcotest.(check int) "the next acquisition spawns a fresh team" 3
    (Runtime.Pool.total_spawns () - s0);
  let hits = Atomic.make 0 in
  Runtime.Pool.run p (fun _ -> Atomic.incr hits);
  Alcotest.(check int) "and the team runs" 4 (Atomic.get hits);
  ignore (Runtime.Pool.shutdown_cached ())

(* --- schedule --- *)

let covers_exactly_once ~n (ranges : (int * int) list) : bool =
  let seen = Array.make (max n 1) 0 in
  List.iter
    (fun (lo, hi) ->
      for i = lo to hi - 1 do
        if i >= 0 && i < n then seen.(i) <- seen.(i) + 1
      done)
    ranges;
  n = 0 || Array.for_all (fun c -> c = 1) seen

let test_schedule_partition () =
  List.iter
    (fun n ->
      List.iter
        (fun size ->
          (* static: per-rank chunks partition the space *)
          let static =
            List.init size (fun rank ->
                Runtime.Schedule.static_chunk ~rank ~size ~n)
          in
          Alcotest.(check bool)
            (Printf.sprintf "static n=%d size=%d" n size)
            true
            (covers_exactly_once ~n static);
          (* dynamic/guided: interleaved grabbing exhausts the space with
             no overlap *)
          List.iter
            (fun p ->
              let s = Runtime.Schedule.make_shared () in
              let out = ref [] in
              let exhausted = ref 0 in
              while !exhausted < size do
                (* round-robin the "threads" to interleave grabs *)
                match Runtime.Schedule.next s p ~size ~n with
                | Some r ->
                  out := r :: !out;
                  exhausted := 0
                | None -> incr exhausted
              done;
              Alcotest.(check bool)
                (Printf.sprintf "%s n=%d size=%d"
                   (Runtime.Schedule.to_string p)
                   n size)
                true
                (covers_exactly_once ~n !out))
            [ Runtime.Schedule.Dynamic; Runtime.Schedule.Guided ])
        [ 1; 3; 4; 8 ])
    [ 0; 1; 7; 64; 1000 ]

(* --- builder-built worksharing IR --- *)

(* func @k(buf : memref<n x f64>) { omp.parallel { omp.wsloop i in
   [0,n) { buf[i] <- buf[i] + 1.0 } } } — every element must end up
   exactly 1.0 no matter the team size or schedule. *)
let mk_wsloop_module n : Op.op =
  Builder.module_
    [ Builder.func "k"
        [ ("buf", Types.memref Types.F64 [ Some n ]) ]
        (fun params ->
          let buf = params.(0) in
          let s = Builder.Seq.create () in
          let c0 = Builder.Seq.emitv s (Builder.const_int ~dtype:Types.Index 0) in
          let c1 = Builder.Seq.emitv s (Builder.const_int ~dtype:Types.Index 1) in
          let cn = Builder.Seq.emitv s (Builder.const_int ~dtype:Types.Index n) in
          let one =
            Builder.Seq.emitv s (Builder.const_float ~dtype:Types.F64 1.0)
          in
          ignore
            (Builder.Seq.emit s
               (Builder.omp_parallel
                  [ Builder.omp_wsloop ~lbs:[ c0 ] ~ubs:[ cn ] ~steps:[ c1 ]
                      (fun ivs ->
                        let s2 = Builder.Seq.create () in
                        let v =
                          Builder.Seq.emitv s2 (Builder.load buf [ ivs.(0) ])
                        in
                        let v' =
                          Builder.Seq.emitv s2 (Builder.binop Op.Add v one)
                        in
                        ignore
                          (Builder.Seq.emit s2
                             (Builder.store v' buf [ ivs.(0) ]));
                        Builder.Seq.to_list s2)
                  ]));
          Builder.Seq.to_list s)
    ]

let run_k ?schedule ~domains (m : Op.op) (n : int) : float array =
  let buf = Interp.Mem.alloc_buffer Types.F64 [| n |] in
  ignore
    (Runtime.Exec.run_module ?schedule ~domains m "k" [ Interp.Mem.Buf buf ]);
  Interp.Mem.float_contents buf

let test_wsloop_exactly_once () =
  List.iter
    (fun n ->
      let m = mk_wsloop_module n in
      List.iter
        (fun domains ->
          List.iter
            (fun schedule ->
              let got = run_k ~schedule ~domains m n in
              Alcotest.(check bool)
                (Printf.sprintf "n=%d domains=%d %s" n domains
                   (Runtime.Schedule.to_string schedule))
                true
                (Array.for_all (fun x -> x = 1.0) got))
            [ Runtime.Schedule.Static
            ; Runtime.Schedule.Dynamic
            ; Runtime.Schedule.Guided
            ])
        [ 1; 2; 3; 4; 5; 6; 7 ])
    [ 5; 64; 101 ]

(* Skewed load: iteration i does i+1 increments of buf[i], so late
   iterations carry almost all the work — the shape where dynamic/guided
   stealing matters.  Every schedule must still produce buf[i] = i+1,
   matching the serial interpreter bit-for-bit. *)
let mk_skewed_module n : Op.op =
  Builder.module_
    [ Builder.func "k"
        [ ("buf", Types.memref Types.F64 [ Some n ]) ]
        (fun params ->
          let buf = params.(0) in
          let s = Builder.Seq.create () in
          let c0 = Builder.Seq.emitv s (Builder.const_int ~dtype:Types.Index 0) in
          let c1 = Builder.Seq.emitv s (Builder.const_int ~dtype:Types.Index 1) in
          let cn = Builder.Seq.emitv s (Builder.const_int ~dtype:Types.Index n) in
          let one =
            Builder.Seq.emitv s (Builder.const_float ~dtype:Types.F64 1.0)
          in
          ignore
            (Builder.Seq.emit s
               (Builder.omp_parallel
                  [ Builder.omp_wsloop ~lbs:[ c0 ] ~ubs:[ cn ] ~steps:[ c1 ]
                      (fun ivs ->
                        let s2 = Builder.Seq.create () in
                        let hi =
                          Builder.Seq.emitv s2
                            (Builder.binop Op.Add ivs.(0) c1)
                        in
                        ignore
                          (Builder.Seq.emit s2
                             (Builder.for_ ~lo:c0 ~hi ~step:c1 (fun _j ->
                                  let s3 = Builder.Seq.create () in
                                  let v =
                                    Builder.Seq.emitv s3
                                      (Builder.load buf [ ivs.(0) ])
                                  in
                                  let v' =
                                    Builder.Seq.emitv s3
                                      (Builder.binop Op.Add v one)
                                  in
                                  ignore
                                    (Builder.Seq.emit s3
                                       (Builder.store v' buf [ ivs.(0) ]));
                                  Builder.Seq.to_list s3)));
                        Builder.Seq.to_list s2)
                  ]));
          Builder.Seq.to_list s)
    ]

let test_dynamic_skewed_load () =
  let n = 97 in
  let m = mk_skewed_module n in
  (* serial interpreter ground truth *)
  let expect =
    let buf = Interp.Mem.alloc_buffer Types.F64 [| n |] in
    ignore (Interp.Eval.run ~team_size:4 m "k" [ Interp.Mem.Buf buf ]);
    Interp.Mem.float_contents buf
  in
  Array.iteri
    (fun i x ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "ground truth buf[%d]" i)
        (float_of_int (i + 1))
        x)
    expect;
  List.iter
    (fun schedule ->
      List.iter
        (fun domains ->
          let got = run_k ~schedule ~domains m n in
          Alcotest.(check bool)
            (Printf.sprintf "skewed %s @ %d domains"
               (Runtime.Schedule.to_string schedule)
               domains)
            true (got = expect))
        [ 2; 4; 8 ])
    [ Runtime.Schedule.Dynamic; Runtime.Schedule.Guided ]

(* --- interpreter team-size plumbing (the Eval.run ?team_size fix) --- *)

(* GPU threads are not an OpenMP team: a wsloop nested inside a
   [scf.parallel Block] region (with a barrier, so the fiber scheduler
   runs it) inside an [omp.parallel] must be executed IN FULL by every
   GPU thread.  With team_size = 3 and 2 GPU threads, every element
   gets 3 * 2 increments; a team-flag leak would chunk the wsloop and
   leave every element at 2. *)
let mk_gpu_in_team_module n : Op.op =
  Builder.module_
    [ Builder.func "k"
        [ ("buf", Types.memref Types.F64 [ Some n ]) ]
        (fun params ->
          let buf = params.(0) in
          let s = Builder.Seq.create () in
          let c0 = Builder.Seq.emitv s (Builder.const_int ~dtype:Types.Index 0) in
          let c1 = Builder.Seq.emitv s (Builder.const_int ~dtype:Types.Index 1) in
          let c2 = Builder.Seq.emitv s (Builder.const_int ~dtype:Types.Index 2) in
          let cn = Builder.Seq.emitv s (Builder.const_int ~dtype:Types.Index n) in
          let one =
            Builder.Seq.emitv s (Builder.const_float ~dtype:Types.F64 1.0)
          in
          ignore
            (Builder.Seq.emit s
               (Builder.omp_parallel
                  [ Builder.parallel Op.Block ~lbs:[ c0 ] ~ubs:[ c2 ]
                      ~steps:[ c1 ] (fun _tids ->
                        [ Builder.omp_wsloop ~lbs:[ c0 ] ~ubs:[ cn ]
                            ~steps:[ c1 ] (fun ivs ->
                              let s2 = Builder.Seq.create () in
                              let v =
                                Builder.Seq.emitv s2
                                  (Builder.load buf [ ivs.(0) ])
                              in
                              let v' =
                                Builder.Seq.emitv s2
                                  (Builder.binop Op.Add v one)
                              in
                              ignore
                                (Builder.Seq.emit s2
                                   (Builder.store v' buf [ ivs.(0) ]));
                              Builder.Seq.to_list s2)
                        ; Builder.barrier ()
                        ])
                  ]));
          Builder.Seq.to_list s)
    ]

let test_interp_gpu_threads_not_a_team () =
  let n = 11 in
  let m = mk_gpu_in_team_module n in
  let buf = Interp.Mem.alloc_buffer Types.F64 [| n |] in
  ignore (Interp.Eval.run ~team_size:3 m "k" [ Interp.Mem.Buf buf ]);
  Array.iteri
    (fun i x ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "buf[%d] = team_size * gpu_threads" i)
        6.0 x)
    (Interp.Mem.float_contents buf)

let test_interp_wsloop_exactly_once () =
  let n = 37 in
  let m = mk_wsloop_module n in
  List.iter
    (fun t ->
      let buf = Interp.Mem.alloc_buffer Types.F64 [| n |] in
      ignore (Interp.Eval.run ~team_size:t m "k" [ Interp.Mem.Buf buf ]);
      Alcotest.(check bool)
        (Printf.sprintf "team_size=%d" t)
        true
        (Array.for_all
           (fun x -> x = 1.0)
           (Interp.Mem.float_contents buf)))
    [ 1; 2; 3; 4; 5; 6; 7 ]

(* The engine must refuse GPU-barrier IR at compile time (the driver
   degrades to the fiber interpreter on this). *)
let test_exec_rejects_gpu_barriers () =
  let m = mk_gpu_in_team_module 4 in
  let rejected =
    match Runtime.Exec.compile m "k" with
    | _ -> false
    | exception Runtime.Exec.Unsupported _ -> true
  in
  Alcotest.(check bool) "Unsupported raised" true rejected

(* --- fault injection through the parallel path --- *)

let mk_barrier_team_module n : Op.op =
  Builder.module_
    [ Builder.func "k"
        [ ("buf", Types.memref Types.F64 [ Some n ]) ]
        (fun params ->
          let buf = params.(0) in
          let s = Builder.Seq.create () in
          let c0 = Builder.Seq.emitv s (Builder.const_int ~dtype:Types.Index 0) in
          let c1 = Builder.Seq.emitv s (Builder.const_int ~dtype:Types.Index 1) in
          let cn = Builder.Seq.emitv s (Builder.const_int ~dtype:Types.Index n) in
          let one =
            Builder.Seq.emitv s (Builder.const_float ~dtype:Types.F64 1.0)
          in
          let incr_loop () =
            Builder.omp_wsloop ~lbs:[ c0 ] ~ubs:[ cn ] ~steps:[ c1 ]
              (fun ivs ->
                let s2 = Builder.Seq.create () in
                let v = Builder.Seq.emitv s2 (Builder.load buf [ ivs.(0) ]) in
                let v' = Builder.Seq.emitv s2 (Builder.binop Op.Add v one) in
                ignore (Builder.Seq.emit s2 (Builder.store v' buf [ ivs.(0) ]));
                Builder.Seq.to_list s2)
          in
          ignore
            (Builder.Seq.emit s
               (Builder.omp_parallel
                  [ incr_loop (); Builder.omp_barrier (); incr_loop () ]));
          Builder.Seq.to_list s)
    ]

let test_inject_fault_parallel () =
  let n = 16 in
  let m = mk_barrier_team_module n in
  let c = Runtime.Exec.compile m "k" in
  List.iter
    (fun domains ->
      let buf = Interp.Mem.alloc_buffer Types.F64 [| n |] in
      let injected =
        match
          Runtime.Exec.run ~domains ~fault:Runtime.Exec.Raise c
            [ Interp.Mem.Buf buf ]
        with
        | _ -> false
        | exception Runtime.Exec.Injected -> true
      in
      Alcotest.(check bool)
        (Printf.sprintf "Injected surfaces at %d domains" domains)
        true injected;
      (* the poisoned barrier must not wedge the cached pool: a clean
         re-run on the same compiled function still works *)
      let buf2 = Interp.Mem.alloc_buffer Types.F64 [| n |] in
      ignore (Runtime.Exec.run ~domains c [ Interp.Mem.Buf buf2 ]);
      Alcotest.(check bool)
        (Printf.sprintf "clean run after fault at %d domains" domains)
        true
        (Array.for_all
           (fun x -> x = 2.0)
           (Interp.Mem.float_contents buf2)))
    [ 1; 4 ]

(* --- watchdog --- *)

let test_watchdog_unit () =
  let hit = Atomic.make 0 in
  let t =
    Runtime.Watchdog.arm ~timeout_ms:50 ~on_timeout:(fun () ->
        Atomic.incr hit)
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not (Runtime.Watchdog.fired t)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  Alcotest.(check bool) "armed entry fires" true (Runtime.Watchdog.fired t);
  Alcotest.(check int) "action ran exactly once" 1 (Atomic.get hit);
  let t2 =
    Runtime.Watchdog.arm ~timeout_ms:5000 ~on_timeout:(fun () ->
        Atomic.incr hit)
  in
  Runtime.Watchdog.disarm t2;
  Unix.sleepf 0.05;
  Alcotest.(check bool) "disarmed entry never fires" false
    (Runtime.Watchdog.fired t2);
  Alcotest.(check int) "disarmed action did not run" 1 (Atomic.get hit);
  let rejected =
    match Runtime.Watchdog.arm ~timeout_ms:0 ~on_timeout:(fun () -> ()) with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "timeout_ms <= 0 rejected" true rejected

(* A genuinely non-terminating kernel from the frontend: in[0] starts at
   0.0 and nothing ever writes it, so the while condition holds forever.
   The compiled engine observes the watchdog's cancel flag at while-loop
   back-edges, so the launch must end in Timeout — this is the "no test
   can hang indefinitely" guarantee exercised end-to-end. *)
let infinite_src =
  "__global__ void k(float* out, float* in) {\n\
  \  int t = threadIdx.x;\n\
  \  while (in[0] < 1.0f) { out[t] = out[t] + 1.0f; }\n\
   }\n\
   void launch(float* out, float* in) { k<<<1, 4>>>(out, in); }\n"

let test_watchdog_cancels_infinite_loop () =
  let m = Cudafe.Codegen.compile infinite_src in
  Core.Cpuify.run m;
  ignore (Core.Omp_lower.run m);
  Core.Canonicalize.run m;
  List.iter
    (fun domains ->
      let out = Interp.Mem.alloc_buffer Types.F32 [| 4 |] in
      let inp = Interp.Mem.alloc_buffer Types.F32 [| 4 |] in
      let timed_out =
        match
          Runtime.Exec.run_module ~domains ~timeout_ms:300 m "launch"
            [ Interp.Mem.Buf out; Interp.Mem.Buf inp ]
        with
        | _ -> false
        | exception Runtime.Exec.Timeout ms -> ms = 300
      in
      Alcotest.(check bool)
        (Printf.sprintf "Timeout(300) at %d domains" domains)
        true timed_out)
    [ 1; 4 ]

(* A Hang fault parks one rank in a loop only the watchdog's cancel ends;
   the other ranks park at the team barrier, so the timeout path must
   both flip the cancel flag and poison the barrier to unwind everyone.
   Afterwards the poisoned team state must be rebuilt transparently: a
   clean launch of the same compiled function still computes. *)
let test_watchdog_hang_injection () =
  let n = 16 in
  let m = mk_barrier_team_module n in
  let c = Runtime.Exec.compile m "k" in
  let buf = Interp.Mem.alloc_buffer Types.F64 [| n |] in
  let timed_out =
    match
      Runtime.Exec.run ~domains:4 ~fault:Runtime.Exec.Hang ~timeout_ms:300 c
        [ Interp.Mem.Buf buf ]
    with
    | _ -> false
    | exception Runtime.Exec.Timeout _ -> true
  in
  Alcotest.(check bool) "hang cancelled by the watchdog" true timed_out;
  let buf2 = Interp.Mem.alloc_buffer Types.F64 [| n |] in
  ignore (Runtime.Exec.run ~domains:4 c [ Interp.Mem.Buf buf2 ]);
  Alcotest.(check bool) "clean run after a timeout" true
    (Array.for_all (fun x -> x = 2.0) (Interp.Mem.float_contents buf2))

(* The driver's default bound (60 s) must never fire on real kernels:
   every Rodinia benchmark completes under it at 4 domains with the
   serial interpreter's exact checksum. *)
let test_watchdog_no_false_fire () =
  List.iter
    (fun (b : Rodinia.Bench_def.t) ->
      let m = build_bench b in
      let expect = serial_checksum m b ~team_size:4 in
      let w = b.mk_workload b.test_size in
      ignore
        (Runtime.Exec.run_module ~domains:4 ~timeout_ms:60000 m b.entry
           (Rodinia.Bench_def.args_of_workload w));
      Alcotest.(check (float 0.0))
        (b.name ^ " completes under the default watchdog bound")
        expect
        (Interp.Mem.checksum w.Rodinia.Bench_def.buffers))
    Rodinia.Registry.all

(* One rank raising mid-wsloop at 4 domains: the poison broadcast must
   wake the ranks parked on the barrier condvar promptly.  The generous
   5 s bound guards against a deadlock-until-watchdog regression in the
   wakeup broadcast, not a performance number. *)
let test_poison_wakeup_latency () =
  let n = 64 in
  let m = mk_barrier_team_module n in
  let c = Runtime.Exec.compile m "k" in
  let buf = Interp.Mem.alloc_buffer Types.F64 [| n |] in
  let t0 = Unix.gettimeofday () in
  let injected =
    match
      Runtime.Exec.run ~domains:4 ~fault:Runtime.Exec.Raise c
        [ Interp.Mem.Buf buf ]
    with
    | _ -> false
    | exception Runtime.Exec.Injected -> true
  in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "Injected surfaced" true injected;
  Alcotest.(check bool)
    (Printf.sprintf "all ranks unblocked in %.3f s (bound 5 s)" dt)
    true (dt < 5.0)

(* --- balanced static partition --- *)

(* The partition is defined once, in Interp.Eval.static_chunk;
   Runtime.Schedule delegates to it.  Beyond exactly-once cover (tested
   above), the balanced partition must be contiguous ascending and give
   every rank within one iteration of every other — the old ceil-chunk
   partition left trailing ranks empty (e.g. n=64 size=7: 10,10,10,10,
   10,10,4), which is a tail-imbalance bug, not just an aesthetic one. *)
let test_static_chunk_balanced () =
  List.iter
    (fun n ->
      List.iter
        (fun size ->
          let chunks =
            List.init size (fun rank ->
                Runtime.Schedule.static_chunk ~rank ~size ~n)
          in
          List.iteri
            (fun rank c ->
              Alcotest.(check (pair int int))
                (Printf.sprintf "runtime = interp, n=%d size=%d rank=%d" n
                   size rank)
                (Interp.Eval.static_chunk ~rank ~size ~n)
                c)
            chunks;
          Alcotest.(check bool)
            (Printf.sprintf "cover n=%d size=%d" n size)
            true
            (covers_exactly_once ~n chunks);
          ignore
            (List.fold_left
               (fun prev_hi (lo, hi) ->
                 Alcotest.(check int)
                   (Printf.sprintf "contiguous n=%d size=%d" n size)
                   prev_hi lo;
                 Alcotest.(check bool) "nonnegative length" true (hi >= lo);
                 hi)
               0 chunks);
          let lens = List.map (fun (lo, hi) -> hi - lo) chunks in
          let mx = List.fold_left max 0 lens in
          let mn = List.fold_left min max_int lens in
          Alcotest.(check bool)
            (Printf.sprintf "balanced (max-min<=1) n=%d size=%d" n size)
            true
            (mx - mn <= 1))
        [ 1; 2; 3; 4; 5; 7; 8; 16 ])
    [ 0; 1; 2; 3; 5; 7; 8; 63; 64; 65; 100; 1000 ]

(* --- access paths: compiled strided access vs the interpreter --- *)

(* "#<digits>" -> "#<id>": buffer ids come from a process-wide counter,
   so the two engines' runs see different ones. *)
let mask_bufids (msg : string) : string =
  let b = Buffer.create (String.length msg) in
  let n = String.length msg in
  let rec go i =
    if i < n then begin
      Buffer.add_char b msg.[i];
      if msg.[i] = '#' && i + 1 < n && msg.[i + 1] >= '0' && msg.[i + 1] <= '9'
      then begin
        Buffer.add_string b "<id>";
        let j = ref (i + 1) in
        while !j < n && msg.[!j] >= '0' && msg.[!j] <= '9' do
          incr j
        done;
        go !j
      end
      else go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

(* func @k(buf : memref<rows x cols x f64>) { for i in [lo,hi):
   buf[row][i] <- buf[row][i] + 1.0 } with row/lo/hi baked in as
   constants: a loop-invariant row and the loop's iv as the innermost
   index, every access checked where it runs.  In-bounds runs must match
   the interpreter bit-for-bit; an out-of-bounds range must raise
   Runtime_error from BOTH engines with the same message. *)
let mk_strided_module ~rows ~cols ~row ~lo ~hi : Op.op =
  Builder.module_
    [ Builder.func "k"
        [ ("buf", Types.memref Types.F64 [ Some rows; Some cols ]) ]
        (fun params ->
          let buf = params.(0) in
          let s = Builder.Seq.create () in
          let ci k =
            Builder.Seq.emitv s (Builder.const_int ~dtype:Types.Index k)
          in
          let crow = ci row in
          let clo = ci lo in
          let chi = ci hi in
          let c1 = ci 1 in
          let one =
            Builder.Seq.emitv s (Builder.const_float ~dtype:Types.F64 1.0)
          in
          ignore
            (Builder.Seq.emit s
               (Builder.for_ ~lo:clo ~hi:chi ~step:c1 (fun i ->
                    let s2 = Builder.Seq.create () in
                    let v =
                      Builder.Seq.emitv s2 (Builder.load buf [ crow; i ])
                    in
                    let v' =
                      Builder.Seq.emitv s2 (Builder.binop Op.Add v one)
                    in
                    ignore
                      (Builder.Seq.emit s2
                         (Builder.store v' buf [ crow; i ]));
                    Builder.Seq.to_list s2)));
          Builder.Seq.to_list s)
    ]

let strided_outcome ~rows ~cols (run : Interp.Mem.buffer -> unit) :
  (float array, string) result =
  let buf =
    Interp.Mem.of_float_array
      ~dims:[| rows; cols |]
      (Array.init (rows * cols) (fun k -> (float_of_int k *. 0.5) +. 0.25))
  in
  match run buf with
  | () -> Ok (Interp.Mem.float_contents buf)
  | exception Interp.Mem.Runtime_error msg -> Error (mask_bufids msg)

let prop_strided_access =
  let gen =
    QCheck.Gen.(
      int_range 1 4 >>= fun rows ->
      int_range 1 16 >>= fun cols ->
      int_range (-1) rows >>= fun row ->
      int_range (-2) (cols + 2) >>= fun lo ->
      int_range lo (cols + 3) >>= fun hi -> return (rows, cols, row, lo, hi))
  in
  let print (rows, cols, row, lo, hi) =
    Printf.sprintf "rows=%d cols=%d row=%d lo=%d hi=%d" rows cols row lo hi
  in
  QCheck.Test.make ~count:200
    ~name:"compiled strided access = interpreter (incl. OOB)"
    (QCheck.make ~print gen)
    (fun (rows, cols, row, lo, hi) ->
      let m = mk_strided_module ~rows ~cols ~row ~lo ~hi in
      let interp =
        strided_outcome ~rows ~cols (fun b ->
            ignore (Interp.Eval.run m "k" [ Interp.Mem.Buf b ]))
      in
      let engine =
        strided_outcome ~rows ~cols (fun b ->
            ignore (Runtime.Exec.run_module m "k" [ Interp.Mem.Buf b ]))
      in
      match (interp, engine) with
      | Ok a, Ok b -> a = b
      | Error a, Error b ->
        a = b
        || QCheck.Test.fail_reportf "interp: %s\nengine: %s" a b
      | Ok _, Error e ->
        QCheck.Test.fail_reportf "engine raised but interp succeeded: %s" e
      | Error e, Ok _ ->
        QCheck.Test.fail_reportf "interp raised (%s) but engine succeeded" e)

(* Deterministic pin of the same shape against the bounds-checked typed
   accessor API (Mem.lindex + get_f/set_f), so a bug that broke the
   checked access of both engines identically would still be caught. *)
let test_strided_expected () =
  let rows = 3 and cols = 8 and row = 1 and lo = 2 and hi = 7 in
  let init () =
    Interp.Mem.of_float_array
      ~dims:[| rows; cols |]
      (Array.init (rows * cols) (fun k -> float_of_int k))
  in
  let buf = init () in
  let m = mk_strided_module ~rows ~cols ~row ~lo ~hi in
  ignore (Runtime.Exec.run_module m "k" [ Interp.Mem.Buf buf ]);
  let expect = init () in
  for i = lo to hi - 1 do
    let li = Interp.Mem.lindex expect [| row; i |] in
    Interp.Mem.set_f expect li (Interp.Mem.get_f expect li +. 1.0)
  done;
  Alcotest.(check bool) "checked path = Mem.lindex + typed accessors" true
    (Interp.Mem.float_contents buf = Interp.Mem.float_contents expect)

let test_strided_oob_rejected () =
  (* hi one past the row: the access at i = 8 must raise, in both
     engines *)
  let m = mk_strided_module ~rows:2 ~cols:8 ~row:1 ~lo:0 ~hi:9 in
  let raises run =
    let buf =
      Interp.Mem.of_float_array ~dims:[| 2; 8 |] (Array.make 16 0.0)
    in
    match run buf with
    | () -> false
    | exception Interp.Mem.Runtime_error _ -> true
  in
  Alcotest.(check bool) "interp rejects OOB" true
    (raises (fun b -> ignore (Interp.Eval.run m "k" [ Interp.Mem.Buf b ])));
  Alcotest.(check bool) "engine rejects OOB" true
    (raises (fun b ->
         ignore (Runtime.Exec.run_module m "k" [ Interp.Mem.Buf b ])))

(* --- compile cost: every loop body compiled once --- *)

(* func @k(buf : memref<2 x f64>) { [depth] nested [for i in [0, 2)],
   each level doing buf[i] <- buf[i] + 1.0 before the next level }. *)
let mk_nest_module depth : Op.op =
  Builder.module_
    [ Builder.func "k"
        [ ("buf", Types.memref Types.F64 [ Some 2 ]) ]
        (fun params ->
          let buf = params.(0) in
          let s = Builder.Seq.create () in
          let ci k =
            Builder.Seq.emitv s (Builder.const_int ~dtype:Types.Index k)
          in
          let c0 = ci 0 in
          let c1 = ci 1 in
          let c2 = ci 2 in
          let one =
            Builder.Seq.emitv s (Builder.const_float ~dtype:Types.F64 1.0)
          in
          let rec level d =
            Builder.for_ ~lo:c0 ~hi:c2 ~step:c1 (fun i ->
                let s2 = Builder.Seq.create () in
                let v = Builder.Seq.emitv s2 (Builder.load buf [ i ]) in
                let v' = Builder.Seq.emitv s2 (Builder.binop Op.Add v one) in
                ignore (Builder.Seq.emit s2 (Builder.store v' buf [ i ]));
                if d > 1 then ignore (Builder.Seq.emit s2 (level (d - 1)));
                Builder.Seq.to_list s2)
          in
          ignore (Builder.Seq.emit s (level depth));
          Builder.Seq.to_list s)
    ]

(* func @k(buf : memref<?xf64>, ib : memref<?xi64>, x : index) {
   buf[0] <- buf[t_n] }, where t_0 = x and t_(i+1) = t_i + c_i, each
   addi single-use: a chain that folds into the load.  [c_i] is the
   literal 1, or with [distinct] a fresh int load of ib[0], a register
   of its own, so the folded forms keep reaching their term cap. *)
let mk_chain_module ~distinct n : Op.op =
  Builder.module_
    [ Builder.func "k"
        [ ("buf", Types.memref Types.F64 [ None ])
        ; ("ib", Types.memref Types.I64 [ None ])
        ; ("x", Types.Scalar Types.Index)
        ]
        (fun p ->
          let s = Builder.Seq.create () in
          let e op = Builder.Seq.emitv s op in
          let c0 = e (Builder.const_int 0) and c1 = e (Builder.const_int 1) in
          let t = ref p.(2) in
          for _ = 1 to n do
            let c = if distinct then e (Builder.load p.(1) [ c0 ]) else c1 in
            t := e (Builder.binop Op.Add !t c)
          done;
          let v = e (Builder.load p.(0) [ !t ]) in
          ignore (Builder.Seq.emit s (Builder.store v p.(0) [ c0 ]));
          Builder.Seq.to_list s)
    ]

let test_compile_linear_in_depth () =
  let compile_words m =
    let w0 = Gc.minor_words () in
    ignore (Runtime.Exec.compile m "k");
    Gc.minor_words () -. w0
  in
  let w6 = compile_words (mk_nest_module 6) in
  let w12 = compile_words (mk_nest_module 12) in
  if w12 > 4.0 *. w6 then
    Alcotest.failf
      "Exec.compile allocates %.0f words on a 12-deep loop nest vs %.0f 6 \
       deep (%.1fx, bound 4x)"
      w12 w6 (w12 /. w6);
  List.iter
    (fun distinct ->
      let w1 = compile_words (mk_chain_module ~distinct 64) in
      let w4 = compile_words (mk_chain_module ~distinct 256) in
      if w4 > 4.0 *. w1 then
        Alcotest.failf
          "Exec.compile allocates %.0f words on a 256-op index chain vs %.0f \
           on 64 ops (%.1fx, bound 4x)"
          w4 w1 (w4 /. w1);
      let m = mk_chain_module ~distinct 16 in
      let contents run =
        let buf = Interp.Mem.of_float_array (Array.init 40 float_of_int) in
        let ib = Interp.Mem.of_int_array [| 2 |] in
        run Interp.Mem.[ Buf buf; Buf ib; Int 1 ];
        Array.map Int64.bits_of_float (Interp.Mem.float_contents buf)
      in
      Alcotest.(check (array int64))
        (Printf.sprintf "16-op chain (distinct=%b): engine = interpreter" distinct)
        (contents (fun args -> ignore (Interp.Eval.run m "k" args)))
        (contents (fun args ->
             ignore (Runtime.Exec.run_module ~domains:1 m "k" args))))
    [ false; true ];
  let m = mk_nest_module 6 in
  let contents run =
    let buf = Interp.Mem.of_float_array ~dims:[| 2 |] [| 0.25; 0.5 |] in
    run [ Interp.Mem.Buf buf ];
    Array.map Int64.bits_of_float (Interp.Mem.float_contents buf)
  in
  let interp = contents (fun args -> ignore (Interp.Eval.run m "k" args)) in
  let engine =
    contents (fun args ->
        ignore (Runtime.Exec.run_module ~domains:1 m "k" args))
  in
  Alcotest.(check (array int64)) "depth-6 nest: engine = interpreter" interp
    engine;
  Alcotest.(check (array int64)) "63 increments per element"
    (Array.map Int64.bits_of_float [| 63.25; 63.5 |])
    engine

(* --- non-positive parallel step: one message in both engines --- *)

(* A 2-D loop over [0,4) x [0,4) with step -3 in dim 1: an [scf.parallel],
   or an [omp.wsloop] inside an [omp.parallel]. *)
let mk_neg_step_module ~wsloop : Op.op =
  Builder.module_
    [ Builder.func "k"
        [ ("buf", Types.memref Types.F64 [ Some 4; Some 4 ]) ]
        (fun params ->
          let buf = params.(0) in
          let s = Builder.Seq.create () in
          let ci k =
            Builder.Seq.emitv s (Builder.const_int ~dtype:Types.Index k)
          in
          let c0 = ci 0 in
          let c1 = ci 1 in
          let c4 = ci 4 in
          let cm3 = ci (-3) in
          let one =
            Builder.Seq.emitv s (Builder.const_float ~dtype:Types.F64 1.0)
          in
          let lbs = [ c0; c0 ] and ubs = [ c4; c4 ] and steps = [ c1; cm3 ] in
          let body ivs = [ Builder.store one buf [ ivs.(0); ivs.(1) ] ] in
          ignore
            (Builder.Seq.emit s
               (if wsloop then
                  Builder.omp_parallel
                    [ Builder.omp_wsloop ~lbs ~ubs ~steps body ]
                else Builder.parallel Op.Flat ~lbs ~ubs ~steps body));
          Builder.Seq.to_list s)
    ]

let test_nonpositive_step_message () =
  List.iter
    (fun wsloop ->
      let m = mk_neg_step_module ~wsloop in
      let error run =
        let buf = Interp.Mem.alloc_buffer Types.F64 [| 4; 4 |] in
        match run [ Interp.Mem.Buf buf ] with
        | () -> "no error"
        | exception Interp.Mem.Runtime_error msg -> msg
      in
      List.iter
        (fun (engine, run) ->
          Alcotest.(check string)
            (Printf.sprintf "%s on the %s"
               (if wsloop then "omp.wsloop" else "scf.parallel")
               engine)
            "parallel: non-positive step -3 in dim 1" (error run))
        [ ("interpreter", fun args -> ignore (Interp.Eval.run m "k" args))
        ; ( "engine"
          , fun args -> ignore (Runtime.Exec.run_module ~domains:1 m "k" args)
          )
        ])
    [ false; true ]

(* --- access paths at every rank: checked path vs the interpreter --- *)

(* func @k(buf : memref<?x..xT>, a0..a(r-1), b0..b(r-1) : index) {
   buf[b..] <- buf[a..] + 1 } with every index in a register, so both
   accesses take the checked path.  The buffer passed in may have
   another rank than the memref type says, and an f64 memref may hold
   int data: the engine must then fail, or convert, exactly like the
   interpreter.  (An i64 memref holding floats is left out: the
   interpreter keeps the loaded float and rejects the integer add,
   while the engine converts at the load.) *)
let mk_rank_module ~rank ~(elem : Types.dtype) : Op.op =
  let idx =
    List.init (2 * rank) (fun i ->
        (Printf.sprintf "i%d" i, Types.Scalar Types.Index))
  in
  Builder.module_
    [ Builder.func "k"
        (("buf", Types.memref elem (List.init rank (fun _ -> None))) :: idx)
        (fun params ->
          let buf = params.(0) in
          let a = List.init rank (fun i -> params.(1 + i)) in
          let b = List.init rank (fun i -> params.(1 + rank + i)) in
          let s = Builder.Seq.create () in
          let one =
            Builder.Seq.emitv s
              (if Types.is_float_dtype elem then
                 Builder.const_float ~dtype:elem 1.0
               else Builder.const_int ~dtype:elem 1)
          in
          let v = Builder.Seq.emitv s (Builder.load buf a) in
          let v' = Builder.Seq.emitv s (Builder.binop Op.Add v one) in
          ignore (Builder.Seq.emit s (Builder.store v' buf b));
          Builder.Seq.to_list s)
    ]

let rank_outcome ~(float_data : bool) ~(dims : int array)
    (run : Interp.Mem.rv list -> unit) (idx : int list) :
    (string, string) result =
  let buf =
    Interp.Mem.alloc_buffer (if float_data then Types.F64 else Types.I64) dims
  in
  for k = 0 to Interp.Mem.size buf - 1 do
    if float_data then Interp.Mem.set_f buf k ((float_of_int k *. 0.5) +. 0.25)
    else Interp.Mem.set_i buf k ((k * 3) - 7)
  done;
  let contents () =
    if float_data then
      Interp.Mem.float_contents buf
      |> Array.map (fun x -> Int64.to_string (Int64.bits_of_float x))
    else Interp.Mem.int_contents buf |> Array.map string_of_int
  in
  let idx = List.map (fun i -> Interp.Mem.Int i) idx in
  match run (Interp.Mem.Buf buf :: idx) with
  | () -> Ok (String.concat "," (Array.to_list (contents ())))
  | exception Interp.Mem.Runtime_error msg -> Error (mask_bufids msg)

let prop_rank_access =
  let gen =
    QCheck.Gen.(
      oneofl [ 0; 1; 3; 4 ] >>= fun rank ->
      (* the buffer's own rank: usually the op's, sometimes one off *)
      frequency
        [ (6, return rank)
        ; (1, return (rank + 1))
        ; (1, return (max 0 (rank - 1)))
        ]
      >>= fun brank ->
      array_repeat brank (int_range 1 3) >>= fun dims ->
      let index d =
        frequency
          [ (6, int_range 0 (d - 1)); (1, return (-1)); (1, return d) ]
      in
      let idx_for i = index (if i < brank then dims.(i) else 2) in
      flatten_l (List.init rank idx_for) >>= fun a ->
      flatten_l (List.init rank idx_for) >>= fun b ->
      bool >>= fun float_elem ->
      (if float_elem then bool else return false) >>= fun float_data ->
      return (rank, dims, a @ b, float_elem, float_data))
  in
  let print (rank, dims, idx, float_elem, float_data) =
    let ty f = if f then "f64" else "i64" in
    Printf.sprintf "rank=%d dims=[%s] idx=[%s] elem=%s data=%s" rank
      (String.concat ";" (Array.to_list (Array.map string_of_int dims)))
      (String.concat ";" (List.map string_of_int idx))
      (ty float_elem) (ty float_data)
  in
  QCheck.Test.make ~count:500
    ~name:"checked access at ranks 0/1/3/4 = interpreter (exact errors)"
    (QCheck.make ~print gen)
    (fun (rank, dims, idx, float_elem, float_data) ->
      let m =
        mk_rank_module ~rank ~elem:(if float_elem then Types.F64 else Types.I64)
      in
      let interp =
        rank_outcome ~float_data ~dims
          (fun args -> ignore (Interp.Eval.run m "k" args))
          idx
      in
      let engine =
        rank_outcome ~float_data ~dims
          (fun args -> ignore (Runtime.Exec.run_module ~domains:1 m "k" args))
          idx
      in
      if interp = engine then true
      else
        let show = function Ok s -> "ok " ^ s | Error e -> "error " ^ e in
        QCheck.Test.fail_reportf "interp: %s\nengine: %s" (show interp)
          (show engine))

(* --- scalar ops: engine = interpreter, bit for bit --- *)

type sop =
  | Sbin of Op.binop
  | Scmp of Op.cmp_pred
  | Ssel
  | Scast of Types.dtype
  | Smath of Op.math_fn

(* One single-op case: [fl] says whether the value operands are floats;
   each operand is a parameter (a register) or, where [lit] says so, an
   arith.constant (a literal).  A select's first operand is its i1
   condition. *)
type scase =
  { sop : sop
  ; fl : bool
  ; args : Interp.Mem.rv list
  ; lit : bool list
  }

let all_binops =
  Op.[ Add; Sub; Mul; Div; Rem; Min; Max; And; Or; Xor; Shl; Shr ]

let all_preds = Op.[ Eq; Ne; Lt; Le; Gt; Ge ]
let all_dtypes = Types.[ I1; I32; I64; Index; F32; F64 ]

let all_math =
  Op.[ Sqrt; Exp; Log; Log2; Fabs; Floor; Neg; Sin; Cos; Tanh; Erf; Not; Pow ]

let int_edges = [ 0; 1; -1; 7; -7; 62; max_int; min_int ]

let float_edges =
  [ 0.0; -0.0; 1.0; 0.1; Interp.Scalar.f32 0.1; -1.5; -2.5; 1e308
  ; Float.infinity; Float.neg_infinity; Float.nan ]

(* (op, operand floatness, arity) for every op the engine compiles. *)
let all_sops : (sop * bool * int) list =
  List.concat
    [ List.concat_map (fun k -> [ (Sbin k, false, 2); (Sbin k, true, 2) ])
        all_binops
    ; List.concat_map (fun p -> [ (Scmp p, false, 2); (Scmp p, true, 2) ])
        all_preds
    ; [ (Ssel, false, 3); (Ssel, true, 3) ]
    ; List.concat_map (fun d -> [ (Scast d, false, 1); (Scast d, true, 1) ])
        all_dtypes
    ; List.map
        (fun fn ->
          match fn with
          | Op.Not -> (Smath fn, false, 1)
          | Op.Pow -> (Smath fn, true, 2)
          | _ -> (Smath fn, true, 1))
        all_math
    ]

let result_is_float (c : scase) =
  match c.sop with
  | Sbin _ | Ssel | Smath _ -> c.fl
  | Scmp _ -> false
  | Scast d -> Types.is_float_dtype d

let sop_op (sop : sop) (o : Value.t array) : Op.op =
  match sop with
  | Sbin k -> Builder.binop k o.(0) o.(1)
  | Scmp p -> Builder.cmp p o.(0) o.(1)
  | Ssel -> Builder.select o.(0) o.(1) o.(2)
  | Scast d -> Builder.cast d o.(0)
  | Smath fn -> Builder.math fn (Array.to_list o)

(* func @k(out : memref<1xT>, params...) { out[0] <- op(operands) } *)
let mk_scalar_module (c : scase) : Op.op =
  let vty = Types.Scalar (if c.fl then Types.F64 else Types.I64) in
  let opnd_ty i =
    match c.sop with
    | Ssel when i = 0 -> Types.Scalar Types.I1
    | _ -> vty
  in
  let params =
    List.concat
      (List.mapi
         (fun i l -> if l then [] else [ (Printf.sprintf "p%d" i, opnd_ty i) ])
         c.lit)
  in
  let out_elem = if result_is_float c then Types.F64 else Types.I64 in
  Builder.module_
    [ Builder.func "k"
        (("out", Types.memref out_elem [ Some 1 ]) :: params)
        (fun ps ->
          let s = Builder.Seq.create () in
          let next = ref 1 in
          let opnds =
            List.mapi
              (fun i (l, v) ->
                if not l then begin
                  let p = ps.(!next) in
                  incr next;
                  p
                end
                else begin
                  let dtype =
                    match opnd_ty i with
                    | Types.Scalar d -> d
                    | Types.Memref _ -> assert false
                  in
                  Builder.Seq.emitv s
                    (match v with
                     | Interp.Mem.Flt f -> Builder.const_float ~dtype f
                     | Interp.Mem.Int n -> Builder.const_int ~dtype n
                     | Interp.Mem.Buf _ -> assert false)
                end)
              (List.combine c.lit c.args)
          in
          let r = Builder.Seq.emitv s (sop_op c.sop (Array.of_list opnds)) in
          let c0 =
            Builder.Seq.emitv s (Builder.const_int ~dtype:Types.Index 0)
          in
          ignore (Builder.Seq.emit s (Builder.store r ps.(0) [ c0 ]));
          Builder.Seq.to_list s)
    ]

let scalar_outcome (c : scase) (run : Interp.Mem.rv list -> unit) :
    (int64, string) result =
  let isf = result_is_float c in
  let out =
    Interp.Mem.alloc_buffer (if isf then Types.F64 else Types.I64) [| 1 |]
  in
  let params =
    List.filter_map
      (fun (l, v) -> if l then None else Some v)
      (List.combine c.lit c.args)
  in
  match run (Interp.Mem.Buf out :: params) with
  | () ->
    Ok
      (if isf then Int64.bits_of_float (Interp.Mem.float_contents out).(0)
       else Int64.of_int (Interp.Mem.int_contents out).(0))
  | exception Interp.Mem.Runtime_error msg -> Error msg

let show_scase (c : scase) =
  let op =
    match c.sop with
    | Sbin k -> "binop " ^ Op.binop_to_string k
    | Scmp p -> "cmp " ^ Op.cmp_to_string p
    | Ssel -> "select"
    | Scast d -> "cast " ^ Types.dtype_to_string d
    | Smath fn -> "math " ^ Op.math_to_string fn
  in
  let arg l = function
    | Interp.Mem.Int n -> Printf.sprintf "%s%d" (if l then "lit " else "reg ") n
    | Interp.Mem.Flt f -> Printf.sprintf "%s%h" (if l then "lit " else "reg ") f
    | Interp.Mem.Buf _ -> "buf"
  in
  Printf.sprintf "%s (%s) [%s]" op
    (if c.fl then "float" else "int")
    (String.concat ", " (List.map2 arg c.lit c.args))

let show_outcome = function
  | Ok bits -> Printf.sprintf "bits %Lx" bits
  | Error e -> "error " ^ e

let scalar_agrees (c : scase) : (unit, string) result =
  let m = mk_scalar_module c in
  let interp =
    scalar_outcome c (fun args -> ignore (Interp.Eval.run m "k" args))
  in
  let engine =
    scalar_outcome c (fun args ->
        ignore (Runtime.Exec.run_module ~domains:1 m "k" args))
  in
  if interp = engine then Ok ()
  else
    Error
      (Printf.sprintf "%s: interp %s, engine %s" (show_scase c)
         (show_outcome interp) (show_outcome engine))

let gen_scase : scase QCheck.Gen.t =
  QCheck.Gen.(
    oneofl all_sops >>= fun (sop, fl, arity) ->
    let value i =
      match sop with
      | Ssel when i = 0 -> map (fun n -> Interp.Mem.Int n) (oneofl [ 0; 1 ])
      | _ when fl ->
        map
          (fun f -> Interp.Mem.Flt f)
          (frequency [ (1, oneofl float_edges); (1, float) ])
      | _ ->
        map
          (fun n -> Interp.Mem.Int n)
          (frequency
             [ (1, oneofl int_edges); (1, int_range (-70) 70); (1, int) ])
    in
    flatten_l (List.init arity value) >>= fun args ->
    list_repeat arity bool >>= fun lit -> return { sop; fl; args; lit })

let prop_scalar_ops =
  QCheck.Test.make ~count:2000
    ~name:"every scalar op: engine = interpreter (bits or error text)"
    (QCheck.make ~print:show_scase gen_scase)
    (fun c ->
      match scalar_agrees c with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report e)

(* What [Interp.Scalar.eval] says of a case: the result's bits (as
   [scalar_outcome] reads them back) or the error text. *)
let scalar_reference (c : scase) : (int64, string) result =
  let vty = Types.Scalar (if c.fl then Types.F64 else Types.I64) in
  let operand i =
    match c.sop with
    | Ssel when i = 0 -> Value.fresh (Types.Scalar Types.I1)
    | _ -> Value.fresh vty
  in
  let op = sop_op c.sop (Array.init (List.length c.args) operand) in
  match Interp.Scalar.eval op (Array.of_list c.args) with
  | Interp.Mem.Flt f -> Ok (Int64.bits_of_float f)
  | Interp.Mem.Int n -> Ok (Int64.of_int n)
  | Interp.Mem.Buf _ -> Error "buffer result"
  | exception Interp.Mem.Runtime_error e -> Error e

(* The table test pinning the engine's closures, and the interpreter,
   to [Interp.Scalar.eval]: every op, every tuple of edge values, each
   operand in a register and as a literal (so division and remainder by
   a zero register and by a zero literal are both here), the engine at
   every domain count under test — the same bits or the same error
   text. *)
let test_scalar_edges () =
  let failures = ref [] and cases = ref 0 in
  List.iter
    (fun (sop, fl, arity) ->
      let edges i =
        match sop with
        | Ssel when i = 0 -> [ Interp.Mem.Int 0; Interp.Mem.Int 1 ]
        | _ when fl -> List.map (fun f -> Interp.Mem.Flt f) float_edges
        | _ -> List.map (fun n -> Interp.Mem.Int n) int_edges
      in
      let rec tuples i =
        if i = arity then [ [] ]
        else
          List.concat_map
            (fun v -> List.map (fun rest -> v :: rest) (tuples (i + 1)))
            (edges i)
      in
      let rec placements i =
        if i = arity then [ [] ]
        else
          List.concat_map
            (fun l -> List.map (fun rest -> l :: rest) (placements (i + 1)))
            [ false; true ]
      in
      List.iter
        (fun args ->
          List.iter
            (fun lit ->
              incr cases;
              let c = { sop; fl; args; lit } in
              let m = mk_scalar_module c and want = scalar_reference c in
              let interp =
                scalar_outcome c (fun args ->
                    ignore (Interp.Eval.run m "k" args))
              in
              if interp <> want then
                failures :=
                  Printf.sprintf "%s: Scalar.eval %s, interpreter %s"
                    (show_scase c) (show_outcome want) (show_outcome interp)
                  :: !failures;
              List.iter
                (fun domains ->
                  let got =
                    scalar_outcome c (fun args ->
                        ignore (Runtime.Exec.run_module ~domains m "k" args))
                  in
                  if got <> want then
                    failures :=
                      Printf.sprintf
                        "%s at %d domain(s): Scalar.eval %s, engine %s"
                        (show_scase c) domains (show_outcome want)
                        (show_outcome got)
                      :: !failures)
                domains_under_test)
            (placements 0))
        (tuples 0))
    all_sops;
  Alcotest.(check (list string))
    (Printf.sprintf "%d edge cases agree" !cases)
    [] (List.rev !failures)

(* --- the engine allocates nothing per iteration --- *)

(* func @k(a : memref<?x2x2xf64>, s : memref<f64>, n : index) {
   for i in [0, n): a[i][1][0] <- a[i][1][0] * s[] + a[i][1][0] }:
   the iv indexes the outermost dimension, so the rank-3 accesses take
   the checked path, as does the rank-0 read. *)
let mk_alloc_probe_module () : Op.op =
  Builder.module_
    [ Builder.func "k"
        [ ("a", Types.memref Types.F64 [ None; Some 2; Some 2 ])
        ; ("s", Types.memref Types.F64 [])
        ; ("n", Types.Scalar Types.Index)
        ]
        (fun ps ->
          let a = ps.(0) and sc = ps.(1) and n = ps.(2) in
          let s = Builder.Seq.create () in
          let ci k =
            Builder.Seq.emitv s (Builder.const_int ~dtype:Types.Index k)
          in
          let c0 = ci 0 and c1 = ci 1 in
          ignore
            (Builder.Seq.emit s
               (Builder.for_ ~lo:c0 ~hi:n ~step:c1 (fun i ->
                    let b = Builder.Seq.create () in
                    let x =
                      Builder.Seq.emitv b (Builder.load a [ i; c1; c0 ])
                    in
                    let y = Builder.Seq.emitv b (Builder.load sc []) in
                    let xy = Builder.Seq.emitv b (Builder.binop Op.Mul x y) in
                    let z = Builder.Seq.emitv b (Builder.binop Op.Add xy x) in
                    ignore
                      (Builder.Seq.emit b (Builder.store z a [ i; c1; c0 ]));
                    Builder.Seq.to_list b)));
          Builder.Seq.to_list s)
    ]

(* func @k(a : memref<?x?xf64>, b : memref<?xf64>, out : memref<?xf64>,
   r, n : index) { out[0] <- for k in [0, n) iter_args(acc = out[0]):
   acc + a[r][k] * b[(k + r) - r] }: a dot loop whose second index is a
   folded chain.  [mswap]/[aswap] swap the mulf's/addf's operands; [a]
   replaces the first buffer (a dangling value for the unbound case);
   [twin] adds an unused addi to the body, which keeps the loop unfused
   with the same meaning. *)
let mk_dot_module ?(mswap = false) ?(aswap = false) ?a ?(twin = false) () =
  Builder.module_
    [ Builder.func "k"
        [ ("a", Types.memref Types.F64 [ None; None ])
        ; ("b", Types.memref Types.F64 [ None ])
        ; ("out", Types.memref Types.F64 [ None ])
        ; ("r", Types.Scalar Types.Index)
        ; ("n", Types.Scalar Types.Index)
        ]
        (fun p ->
          let a = Option.value a ~default:p.(0) and r = p.(3) in
          let s = Builder.Seq.create () in
          let e op = Builder.Seq.emitv s op in
          let c0 = e (Builder.const_int 0) and c1 = e (Builder.const_int 1) in
          let init = e (Builder.load p.(2) [ c0 ]) in
          let l =
            Builder.Seq.emit s
              (Builder.for_iter ~lo:c0 ~hi:p.(4) ~step:c1 ~inits:[ init ]
                 (fun k acc ->
                   let b = Builder.Seq.create () in
                   let e op = Builder.Seq.emitv b op in
                   let x = e (Builder.load a [ r; k ]) in
                   let kr = e (Builder.binop Op.Add k r) in
                   let y = e (Builder.load p.(1) [ e (Builder.binop Op.Sub kr r) ]) in
                   if twin then ignore (e (Builder.binop Op.Add k k));
                   let xy = e (if mswap then Builder.binop Op.Mul y x else Builder.binop Op.Mul x y) in
                   let sum =
                     e
                       (if aswap then Builder.binop Op.Add xy acc.(0)
                        else Builder.binop Op.Add acc.(0) xy)
                   in
                   Builder.Seq.to_list b @ [ Builder.yield_ [ sum ] ]))
          in
          ignore (Builder.Seq.emit s (Builder.store (Op.result l) p.(2) [ c0 ]));
          Builder.Seq.to_list s)
    ]

(* func @k(out, src : memref<?xf64>, g, n : index) {
   t1 = alloca memref<2 x d>; t2 = alloca memref<d x 2> (of [elem]);
   for i in [0, d) { t1[1][i] <- src[i]; t2[i][1] <- src[d + i] }
   for j in [0, n) { out[0] <- for k in [0, hi) iter_args(acc = out[0]):
   acc + t1[1][k] * t2[k][1] } }: the tile dot loop, its strides 1 and
   2, its loads f64 whatever [elem] is (an int tile converts, as
   [Mem.load] does).  With [guard], each trip is [if (k + j pred g) {
   acc + ... } else { acc }].  [hi = d] reads the tiles over exactly
   [0, d - 1]. *)
let mk_tile_dot_module ?(elem = Types.F64) ?guard ?(mswap = false)
    ?(aswap = false) ~d ~hi () =
  Builder.module_
    [ Builder.func "k"
        [ ("out", Types.memref Types.F64 [ None ])
        ; ("src", Types.memref Types.F64 [ None ])
        ; ("g", Types.Scalar Types.Index)
        ; ("n", Types.Scalar Types.Index)
        ]
        (fun p ->
          let s = Builder.Seq.create () in
          let e op = Builder.Seq.emitv s op in
          let c0 = e (Builder.const_int 0) and c1 = e (Builder.const_int 1) in
          let cd = e (Builder.const_int d) and chi = e (Builder.const_int hi) in
          let t1 = e (Builder.alloca elem [ Some 2; Some d ]) in
          let t2 = e (Builder.alloca elem [ Some d; Some 2 ]) in
          ignore
            (Builder.Seq.emit s
               (Builder.for_ ~lo:c0 ~hi:cd ~step:c1 (fun i ->
                    let b = Builder.Seq.create () in
                    let e op = Builder.Seq.emitv b op in
                    let x = e (Builder.load p.(1) [ i ]) in
                    ignore (Builder.Seq.emit b (Builder.store x t1 [ c1; i ]));
                    let y = e (Builder.load p.(1) [ e (Builder.binop Op.Add cd i) ]) in
                    ignore (Builder.Seq.emit b (Builder.store y t2 [ i; c1 ]));
                    Builder.Seq.to_list b)));
          ignore
            (Builder.Seq.emit s
               (Builder.for_ ~lo:c0 ~hi:p.(3) ~step:c1 (fun j ->
                    let b = Builder.Seq.create () in
                    let e op = Builder.Seq.emitv b op in
                    let init = e (Builder.load p.(0) [ c0 ]) in
                    let l =
                      e
                        (Builder.for_iter ~lo:c0 ~hi:chi ~step:c1 ~inits:[ init ]
                           (fun k acc ->
                             let mac = Builder.Seq.create () in
                             let e op = Builder.Seq.emitv mac op in
                             let fload t ix =
                               Op.mk Op.Load ~operands:(Array.of_list (t :: ix))
                                 ~results:[| Value.fresh ~name:"ld" (Types.Scalar Types.F64) |]
                             in
                             let x = e (fload t1 [ c1; k ]) in
                             let y = e (fload t2 [ k; c1 ]) in
                             let m = e (if mswap then Builder.binop Op.Mul y x else Builder.binop Op.Mul x y) in
                             let a =
                               e
                                 (if aswap then Builder.binop Op.Add m acc.(0)
                                  else Builder.binop Op.Add acc.(0) m)
                             in
                             let mac = Builder.Seq.to_list mac @ [ Builder.yield_ [ a ] ] in
                             match guard with
                             | None -> mac
                             | Some pred ->
                               let kj = Builder.binop Op.Add k j in
                               let c = Builder.cmp pred (Op.result kj) p.(2) in
                               let r =
                                 Builder.if_ ~results:[ Types.Scalar Types.F64 ] (Op.result c) mac
                                   ~else_:[ Builder.yield_ [ acc.(0) ] ]
                               in
                               [ kj; c; r; Builder.yield_ [ Op.result r ] ]))
                    in
                    ignore (Builder.Seq.emit b (Builder.store l p.(0) [ c0 ]));
                    Builder.Seq.to_list b)));
          Builder.Seq.to_list s)
    ]

let test_no_alloc_per_iteration () =
  let big = 4096 in
  let probe =
    let a = Interp.Mem.alloc_buffer Types.F64 [| big; 2; 2 |] in
    let s = Interp.Mem.alloc_buffer Types.F64 [||] in
    Interp.Mem.set_f s 0 0.5;
    (mk_alloc_probe_module (), fun n -> Interp.Mem.[ Buf a; Buf s; Int n ])
  in
  let dot =
    let a = Interp.Mem.alloc_buffer Types.F64 [| 2; big |] in
    let b = Interp.Mem.alloc_buffer Types.F64 [| big |] in
    let out = Interp.Mem.alloc_buffer Types.F64 [| 1 |] in
    (mk_dot_module (), fun n -> Interp.Mem.[ Buf a; Buf b; Buf out; Int 1; Int n ])
  in
  (* n runs of a proven 4-trip dot loop *)
  let tile ?guard () =
    let out = Interp.Mem.alloc_buffer Types.F64 [| 1 |] in
    let src = Interp.Mem.of_float_array (Array.init 8 float_of_int) in
    ( mk_tile_dot_module ?guard ~d:4 ~hi:4 ()
    , fun n -> Interp.Mem.[ Buf out; Buf src; Int 2; Int n ] )
  in
  List.iter
    (fun (what, (m, args)) ->
      let c = Runtime.Exec.compile m "k" in
      let run n =
        let w0 = Gc.minor_words () in
        ignore (Runtime.Exec.run ~domains:1 c (args n));
        Gc.minor_words () -. w0
      in
      (* warm: the entry frame is built by the first run *)
      ignore (run 16);
      ignore (run big);
      let small = run 16 in
      let large = run big in
      Alcotest.(check bool)
        (Printf.sprintf "%s: minor words at n=%d (%.0f) - at n=16 (%.0f) <= 16"
           what big large small)
        true
        (large -. small <= 16.0))
    [ ("rank-3 probe", probe)
    ; ("dot loop", dot)
    ; ("proven dot loop", tile ())
    ; ("guarded dot loop", tile ~guard:Op.Lt ())
    ]

(* --- unbound buffer register: the per-compile sentinel --- *)

let contains_substring ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Malformed IR (a load from an SSA memref value no op ever defines)
   must die with a located "unbound buffer register" error, not a bounds
   failure on a shared zero-length dummy buffer. *)
let test_unbound_buffer_register () =
  let dangling =
    Value.fresh ~name:"phantom" (Types.memref Types.F64 [ Some 4 ])
  in
  let m =
    Builder.module_
      [ Builder.func "k"
          [ ("buf", Types.memref Types.F64 [ Some 4 ]) ]
          (fun _params ->
            let s = Builder.Seq.create () in
            let c0 =
              Builder.Seq.emitv s (Builder.const_int ~dtype:Types.Index 0)
            in
            ignore (Builder.Seq.emit s (Builder.load dangling [ c0 ]));
            Builder.Seq.to_list s)
      ]
  in
  let buf = Interp.Mem.alloc_buffer Types.F64 [| 4 |] in
  match Runtime.Exec.run_module m "k" [ Interp.Mem.Buf buf ] with
  | _ -> Alcotest.fail "expected Runtime_error on the dangling load"
  | exception Interp.Mem.Runtime_error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "error names the unbound register (got: %s)" msg)
      true
      (contains_substring ~sub:"unbound buffer register" msg)

(* --- launch lifecycle: zero-allocation relaunch, --chunk plumbing --- *)

let test_zero_alloc_relaunch () =
  ignore (Runtime.Pool.shutdown_cached ());
  let n = 64 in
  let m = mk_barrier_team_module n in
  let c = Runtime.Exec.compile m "k" in
  let go () =
    let buf = Interp.Mem.alloc_buffer Types.F64 [| n |] in
    let _, st = Runtime.Exec.run ~domains:4 c [ Interp.Mem.Buf buf ] in
    (st, Interp.Mem.float_contents buf)
  in
  let st1, out1 = go () in
  Alcotest.(check bool) "cold run builds entry + team frames (>= 5)" true
    (st1.Runtime.Exec.frames_allocated >= 5);
  Alcotest.(check bool) "cold run grabs chunks" true
    (st1.Runtime.Exec.chunks_grabbed > 0);
  let st2, out2 = go () in
  Alcotest.(check int) "warm relaunch allocates zero frames" 0
    st2.Runtime.Exec.frames_allocated;
  Alcotest.(check int) "warm relaunch spawns zero domains" 0
    st2.Runtime.Exec.domain_spawns;
  Alcotest.(check int) "one team launch per run" 1
    st2.Runtime.Exec.launches;
  Alcotest.(check bool) "the omp.barrier is counted" true
    (st2.Runtime.Exec.barrier_phases >= 1);
  Alcotest.(check bool) "warm result identical" true (out1 = out2);
  ignore (Runtime.Pool.shutdown_cached ())

let test_chunk_flag () =
  let n = 101 in
  let m = mk_wsloop_module n in
  List.iter
    (fun chunk ->
      List.iter
        (fun schedule ->
          List.iter
            (fun domains ->
              let buf = Interp.Mem.alloc_buffer Types.F64 [| n |] in
              let _, st =
                Runtime.Exec.run_module ~domains ~schedule ~chunk m "k"
                  [ Interp.Mem.Buf buf ]
              in
              Alcotest.(check bool)
                (Printf.sprintf "chunk=%d %s @ %d domains: exactly once"
                   chunk
                   (Runtime.Schedule.to_string schedule)
                   domains)
                true
                (Array.for_all
                   (fun x -> x = 1.0)
                   (Interp.Mem.float_contents buf));
              (* with an explicit chunk, dynamic grabs are exactly
                 ceil(n/chunk) batches — the contention knob is real *)
              if schedule = Runtime.Schedule.Dynamic && domains > 1 then
                Alcotest.(check int)
                  (Printf.sprintf "dynamic chunk=%d grab count" chunk)
                  ((n + chunk - 1) / chunk)
                  st.Runtime.Exec.chunks_grabbed)
            [ 1; 2; 4 ])
        [ Runtime.Schedule.Static
        ; Runtime.Schedule.Dynamic
        ; Runtime.Schedule.Guided
        ])
    [ 1; 3; 16; 200 ]

(* --- stats: team reuse visible end-to-end --- *)

let test_exec_team_reuse_stats () =
  ignore (Runtime.Pool.shutdown_cached ());
  let n = 8 in
  let m = mk_barrier_team_module n in
  let c = Runtime.Exec.compile m "k" in
  let run () =
    let buf = Interp.Mem.alloc_buffer Types.F64 [| n |] in
    let _, st = Runtime.Exec.run ~domains:4 c [ Interp.Mem.Buf buf ] in
    st
  in
  let st1 = run () in
  Alcotest.(check int) "first run spawns the team" 3
    st1.Runtime.Exec.domain_spawns;
  let st2 = run () in
  Alcotest.(check int) "second run reuses it" 0 st2.Runtime.Exec.domain_spawns;
  Alcotest.(check int) "one launch each" 1 st2.Runtime.Exec.launches;
  ignore (Runtime.Pool.shutdown_cached ())

(* --- carried values: scf.if results and scf.for iter_args --- *)

let f64 = Types.Scalar Types.F64

(* func @k(out : memref<?xf64>, ints : index...) built by [body]. *)
let carried_module nints body =
  Builder.module_
    [ Builder.func "k"
        (("out", Types.memref Types.F64 [ None ])
         :: List.init nints (fun i -> (Printf.sprintf "x%d" i, Types.Scalar Types.Index)))
        (fun p ->
          let s = Builder.Seq.create () in
          body s p;
          Builder.Seq.to_list s @ [ Builder.return_ [] ])
    ]

(* [out[k] = float v] for each value, in order. *)
let store_all s (out : Value.t) (vs : Value.t list) =
  List.iteri
    (fun k (v : Value.t) ->
      let v =
        if Types.equal v.Value.typ f64 then v
        else Builder.Seq.emitv s (Builder.cast Types.F64 v)
      in
      let i = Builder.Seq.emitv s (Builder.const_int k) in
      ignore (Builder.Seq.emit s (Builder.store v out [ i ])))
    vs

(* [out] after @k on the interpreter and on the engine, or the error
   text; both engines must agree. *)
let carried_run m ~n ints : (float list, string) result =
  let outcome run =
    let out = Interp.Mem.alloc_buffer Types.F64 [| n |] in
    match run (Interp.Mem.Buf out :: List.map (fun i -> Interp.Mem.Int i) ints) with
    | () -> Ok (Array.to_list (Interp.Mem.float_contents out))
    | exception Interp.Mem.Runtime_error e -> Error e
  in
  let interp = outcome (fun args -> ignore (Interp.Eval.run m "k" args)) in
  List.iter
    (fun d ->
      let engine =
        outcome (fun args -> ignore (Runtime.Exec.run_module ~domains:d m "k" args))
      in
      if engine <> interp then
        Alcotest.failf "engine at %d domains differs from the interpreter" d)
    domains_under_test;
  interp

let check_carried what want got =
  Alcotest.(check (result (list (float 0.0)) string)) what want got

(* if results into an f64 and an index register, yielding literals in
   one branch and computed registers in the other *)
let test_if_results () =
  let m =
    carried_module 1 (fun s p ->
        let e op = Builder.Seq.emitv s op in
        let x = p.(1) in
        let c = e (Builder.cmp Op.Lt x (e (Builder.const_int 5))) in
        let lit_f = e (Builder.const_float ~dtype:Types.F64 1.5) in
        let lit_i = e (Builder.const_int 7) in
        let fx = e (Builder.cast Types.F64 x) in
        let r =
          Builder.Seq.emit s
            (Builder.if_ ~results:[ f64; Types.Scalar Types.Index ] c
               [ Builder.yield_ [ lit_f; x ] ]
               ~else_:[ Builder.yield_ [ fx; lit_i ] ])
        in
        store_all s p.(0) (Array.to_list r.Op.results))
  in
  check_carried "then: literal f64, register index" (Ok [ 1.5; 3.0 ])
    (carried_run m ~n:2 [ 3 ]);
  check_carried "else: register f64, literal index" (Ok [ 9.0; 7.0 ])
    (carried_run m ~n:2 [ 9 ])

(* [yield %b, %a] swaps: a parallel copy, in both register files *)
let test_iter_arg_swap () =
  let m =
    carried_module 1 (fun s p ->
        let e op = Builder.Seq.emitv s op in
        let inits =
          [ e (Builder.const_float ~dtype:Types.F64 1.0)
          ; e (Builder.const_float ~dtype:Types.F64 2.0)
          ; e (Builder.const_int 10)
          ; e (Builder.const_int 20)
          ]
        in
        let lo = e (Builder.const_int 0) and one = e (Builder.const_int 1) in
        let l =
          Builder.Seq.emit s
            (Builder.for_iter ~lo ~hi:p.(1) ~step:one ~inits (fun _ a ->
                 [ Builder.yield_ [ a.(1); a.(0); a.(3); a.(2) ] ]))
        in
        store_all s p.(0) (Array.to_list l.Op.results))
  in
  check_carried "3 trips swap" (Ok [ 2.0; 1.0; 20.0; 10.0 ]) (carried_run m ~n:4 [ 3 ]);
  check_carried "4 trips restore" (Ok [ 1.0; 2.0; 10.0; 20.0 ]) (carried_run m ~n:4 [ 4 ]);
  check_carried "zero trips return the inits" (Ok [ 1.0; 2.0; 10.0; 20.0 ])
    (carried_run m ~n:4 [ 0 ])

(* lo > hi: the loop body never runs, the result is the init *)
let test_zero_trip_loop () =
  let m =
    carried_module 0 (fun s p ->
        let e op = Builder.Seq.emitv s op in
        let init = e (Builder.const_float ~dtype:Types.F64 42.0) in
        let lo = e (Builder.const_int 5) and hi = e (Builder.const_int 2) in
        let one = e (Builder.const_int 1) in
        let l =
          Builder.Seq.emit s
            (Builder.for_iter ~lo ~hi ~step:one ~inits:[ init ] (fun _ a ->
                 let inc = Builder.const_float ~dtype:Types.F64 1.0 in
                 let add = Builder.binop Op.Add a.(0) (Op.result inc) in
                 [ inc; add; Builder.yield_ [ Op.result add ] ]))
        in
        store_all s p.(0) [ Op.result l ])
  in
  check_carried "inits" (Ok [ 42.0 ]) (carried_run m ~n:1 [])

(* acc = sum of the even ivs below n: an if carrying a value inside a
   loop carrying it *)
let test_if_in_for () =
  let m =
    carried_module 1 (fun s p ->
        let e op = Builder.Seq.emitv s op in
        let zero = e (Builder.const_float ~dtype:Types.F64 0.0) in
        let lo = e (Builder.const_int 0) and one = e (Builder.const_int 1) in
        let two = e (Builder.const_int 2) in
        let l =
          Builder.Seq.emit s
            (Builder.for_iter ~lo ~hi:p.(1) ~step:one ~inits:[ zero ] (fun i a ->
                 let b = Builder.Seq.create () in
                 let e op = Builder.Seq.emitv b op in
                 let even =
                   e (Builder.cmp Op.Eq (e (Builder.binop Op.Rem i two)) lo)
                 in
                 let fi = Builder.cast Types.F64 i in
                 let add = Builder.binop Op.Add a.(0) (Op.result fi) in
                 let r =
                   e
                     (Builder.if_ ~results:[ f64 ] even
                        [ fi; add; Builder.yield_ [ Op.result add ] ]
                        ~else_:[ Builder.yield_ [ a.(0) ] ])
                 in
                 Builder.Seq.to_list b @ [ Builder.yield_ [ r ] ]))
        in
        store_all s p.(0) [ Op.result l ])
  in
  check_carried "0+2+4" (Ok [ 6.0 ]) (carried_run m ~n:1 [ 6 ]);
  check_carried "no trips" (Ok [ 0.0 ]) (carried_run m ~n:1 [ 0 ])

(* a loop carrying the result of a loop nested in it: n * m *)
let test_nested_for () =
  let m =
    carried_module 2 (fun s p ->
        let e op = Builder.Seq.emitv s op in
        let zero = e (Builder.const_float ~dtype:Types.F64 0.0) in
        let one_f = e (Builder.const_float ~dtype:Types.F64 1.0) in
        let lo = e (Builder.const_int 0) and one = e (Builder.const_int 1) in
        let l =
          Builder.Seq.emit s
            (Builder.for_iter ~lo ~hi:p.(1) ~step:one ~inits:[ zero ] (fun _ a ->
                 let inner =
                   Builder.for_iter ~lo ~hi:p.(2) ~step:one ~inits:[ a.(0) ]
                     (fun _ b ->
                       let add = Builder.binop Op.Add b.(0) one_f in
                       [ add; Builder.yield_ [ Op.result add ] ])
                 in
                 [ inner; Builder.yield_ [ Op.result inner ] ]))
        in
        store_all s p.(0) [ Op.result l ])
  in
  check_carried "3 x 4" (Ok [ 12.0 ]) (carried_run m ~n:1 [ 3; 4 ]);
  check_carried "inner zero trips" (Ok [ 0.0 ]) (carried_run m ~n:1 [ 3; 0 ])

(* r = c ? 10 / d : 0 with the division inside the taken arm only *)
let test_trapping_arm () =
  let m =
    carried_module 2 (fun s p ->
        let e op = Builder.Seq.emitv s op in
        let zero = e (Builder.const_int 0) in
        let c = e (Builder.cmp Op.Ne p.(1) zero) in
        let ten = Builder.const_int 10 in
        let q = Builder.binop Op.Div (Op.result ten) p.(2) in
        let r =
          e
            (Builder.if_ ~results:[ Types.Scalar Types.Index ] c
               [ ten; q; Builder.yield_ [ Op.result q ] ]
               ~else_:[ Builder.yield_ [ zero ] ])
        in
        store_all s p.(0) [ r ])
  in
  check_carried "arm not taken: nothing fails" (Ok [ 0.0 ]) (carried_run m ~n:1 [ 0; 0 ]);
  check_carried "arm taken" (Ok [ 5.0 ]) (carried_run m ~n:1 [ 1; 2 ]);
  check_carried "arm taken, traps on both engines alike"
    (Error "integer division by zero") (carried_run m ~n:1 [ 1; 0 ])

(* --- fusions: the dot loop and folded index chains --- *)

(* out[0]'s bits after @k of [mk_dot_module], or the error text with
   buffer ids masked. *)
let dot_outcome (run : Interp.Mem.rv list -> unit) ~a ~b ~init ~r ~n =
  let out = Interp.Mem.of_float_array [| init |] in
  match run Interp.Mem.[ Buf (a ()); Buf (b ()); Buf out; Int r; Int n ] with
  | () -> Ok (Int64.bits_of_float (Interp.Mem.float_contents out).(0))
  | exception Interp.Mem.Runtime_error e -> Error (mask_bufids e)

let run_interp m args = ignore (Interp.Eval.run m "k" args)
let run_engine m args = ignore (Runtime.Exec.run_module ~domains:1 m "k" args)
let floats ?dims xs () = Interp.Mem.of_float_array ?dims (Array.of_list xs)

(* A 3x[cols] [a], row r = 1 *)
let dot_a ?(cols = 5) () =
  floats ~dims:[| 3; cols |] (List.init (3 * cols) (fun i -> (float_of_int i *. 0.25) +. 0.125)) ()

let dot_b len () = floats (List.init len (fun i -> float_of_int (i + 1) *. 1.5)) ()

(* The fused loop and its unfused twin on the engine both give the
   interpreter's bits or error text; returns that outcome. *)
let check_dot what ?mswap ?aswap ?(init = 0.5) ~a ~b n =
  let fused = mk_dot_module ?mswap ?aswap () in
  let twin = mk_dot_module ?mswap ?aswap ~twin:true () in
  let outcome run = dot_outcome run ~a ~b ~init ~r:1 ~n in
  let want = outcome (run_interp fused) in
  Alcotest.(check (result int64 string))
    (what ^ ": fused = interpreter") want (outcome (run_engine fused));
  Alcotest.(check (result int64 string))
    (what ^ ": unfused = interpreter") want (outcome (run_engine twin));
  want

let oob ix n dim =
  Error (Printf.sprintf "buffer #<id>: index %d out of bounds [0,%d) in dim %d" ix n dim)

(* the loads' checks run each iteration, the first load's before the
   second's, with [Mem.lindex]'s texts *)
let test_dot_bounds () =
  ignore (check_dot "in bounds" ~a:dot_a ~b:(dot_b 5) 5);
  Alcotest.(check (result int64 string)) "b out of bounds at k = 3"
    (oob 3 3 0) (check_dot "b short" ~a:dot_a ~b:(dot_b 3) 5);
  Alcotest.(check (result int64 string)) "a out of bounds at k = 2"
    (oob 2 2 1) (check_dot "a short" ~a:(dot_a ~cols:2) ~b:(dot_b 3) 5);
  Alcotest.(check (result int64 string)) "both at k = 3: the first load's"
    (oob 3 3 1) (check_dot "both short" ~a:(dot_a ~cols:3) ~b:(dot_b 3) 5)

(* an unbound first buffer: the unfused twin's located error at the
   first iteration, and no error when the loop runs zero times *)
let test_dot_unbound_and_zero_trip () =
  let dangling = Value.fresh ~name:"phantom" (Types.memref Types.F64 [ None; None ]) in
  let fused = mk_dot_module ~a:dangling () in
  let twin = mk_dot_module ~a:dangling ~twin:true () in
  let outcome m n = dot_outcome (run_engine m) ~a:dot_a ~b:(dot_b 5) ~init:0.5 ~r:1 ~n in
  let err = outcome fused 2 in
  Alcotest.(check (result int64 string)) "same error as the unfused loop" (outcome twin 2) err;
  Alcotest.(check bool) "names the unbound register" true
    (match err with Error e -> contains_substring ~sub:"unbound buffer register" e | Ok _ -> false);
  let init = Ok (Int64.bits_of_float 0.5) in
  Alcotest.(check (result int64 string)) "zero trips read no buffer" init (outcome fused 0);
  Alcotest.(check (result int64 string)) "zero trips: init"
    init (check_dot "zero trips" ~a:dot_a ~b:(dot_b 5) 0);
  Alcotest.(check (result int64 string)) "lo > hi: init"
    init (check_dot "negative trips" ~a:dot_a ~b:(dot_b 5) (-3))

let test_dot_int_data () =
  ignore
    (check_dot "int data" ~a:dot_a ~b:(fun () -> Interp.Mem.of_int_array [| 3; -1; 4; 1; -5 |]) 5)

(* NaN operands with distinct payloads: the result's payload follows
   the IR's operand order of the mulf and the addf *)
let test_dot_nan_orders () =
  let nan p = Int64.float_of_bits (Int64.logor 0x7ff8000000000000L (Int64.of_int p)) in
  let a () = floats ~dims:[| 2; 1 |] [ nan 1; nan 1 ] () in
  let b () = floats [ nan 2 ] () in
  let outs =
    List.concat_map
      (fun mswap ->
        List.map
          (fun aswap ->
            check_dot
              (Printf.sprintf "mswap=%b aswap=%b" mswap aswap)
              ~mswap ~aswap ~init:(nan 3) ~a ~b 1)
          [ false; true ])
      [ false; true ]
  in
  Alcotest.(check bool) "the orders give three payloads" true
    (List.length (List.sort_uniq compare outs) = 3)

(* func @k(buf : memref<?xf64>, x, y : index) {
   buf[0] <- buf[((x * c1) op c2 + y) - 1] }, op a muli or with [shl] a
   shli: a four-op single-use chain folded into the load's index. *)
let mk_fold_module ~c1 ~c2 ~shl : Op.op =
  Builder.module_
    [ Builder.func "k"
        [ ("buf", Types.memref Types.F64 [ None ])
        ; ("x", Types.Scalar Types.Index)
        ; ("y", Types.Scalar Types.Index)
        ]
        (fun p ->
          let s = Builder.Seq.create () in
          let e op = Builder.Seq.emitv s op in
          let k1 = e (Builder.const_int c1) and k2 = e (Builder.const_int c2) in
          let one = e (Builder.const_int 1) and c0 = e (Builder.const_int 0) in
          let t1 = e (Builder.binop Op.Mul p.(1) k1) in
          let t2 = e (Builder.binop (if shl then Op.Shl else Op.Mul) t1 k2) in
          let t3 = e (Builder.binop Op.Add t2 p.(2)) in
          let t4 = e (Builder.binop Op.Sub t3 one) in
          let v = e (Builder.load p.(0) [ t4 ]) in
          ignore (Builder.Seq.emit s (Builder.store v p.(0) [ c0 ]));
          Builder.Seq.to_list s)
    ]

let test_fold_chains () =
  let outcome m x y run =
    let buf = floats (List.init 8 (fun i -> float_of_int i +. 0.5)) () in
    match run m Interp.Mem.[ Buf buf; Int x; Int y ] with
    | () -> Ok (Int64.bits_of_float (Interp.Mem.float_contents buf).(0))
    | exception Interp.Mem.Runtime_error e -> Error (mask_bufids e)
  in
  List.iter
    (fun (x, y, c1, c2, shl, want) ->
      let m = mk_fold_module ~c1 ~c2 ~shl in
      let what = Printf.sprintf "x=%d y=%d c1=%d c2=%d shl=%b" x y c1 c2 shl in
      let interp = outcome m x y run_interp in
      Alcotest.(check (result int64 string)) (what ^ ": engine = interpreter")
        interp (outcome m x y run_engine);
      Option.iter
        (fun w -> Alcotest.(check (result int64 string)) (what ^ ": expected") w interp)
        want)
    [ (2, 1, 3, 1, false, Some (Ok (Int64.bits_of_float 6.5)))
    ; (5, 1, 3, 1, false, Some (oob 15 8 0))
    ; (7, 2, 0, 5, false, Some (Ok (Int64.bits_of_float 1.5)))
      (* the coefficient of x wraps to 0: 2^61 * 4 = 2^63 *)
    ; (1, 3, 1 lsl 61, 4, false, Some (Ok (Int64.bits_of_float 2.5)))
    ; (1, 3, 1 lsl 61, 2, true, Some (Ok (Int64.bits_of_float 2.5)))
    ; (3, 3, max_int, 3, false, None)
    ; (1, 0, 1, 62, true, Some (oob max_int 8 0))
      (* a shift the form does not take runs as its own closure *)
    ; (1, 0, 1, 63, true, None)
    ]

(* func @k(buf, out : memref<?xf64>, x, n : index) { d = x + 1;
   for i in [0, n) { e = i * 2; w = i + 1; v = buf[d + w];
   if (w < 3) { out[e] <- v } } }: a def outside the loop read by a
   chain inside it, a def in the loop body read inside a nested region,
   and one read both as an index and by a cmp. *)
let test_fold_region_boundary () =
  let m =
    Builder.module_
      [ Builder.func "k"
          [ ("buf", Types.memref Types.F64 [ None ])
          ; ("out", Types.memref Types.F64 [ None ])
          ; ("x", Types.Scalar Types.Index)
          ; ("n", Types.Scalar Types.Index)
          ]
          (fun p ->
            let s = Builder.Seq.create () in
            let e op = Builder.Seq.emitv s op in
            let c0 = e (Builder.const_int 0) and c1 = e (Builder.const_int 1) in
            let c2 = e (Builder.const_int 2) and c3 = e (Builder.const_int 3) in
            let d = e (Builder.binop Op.Add p.(2) c1) in
            ignore
              (Builder.Seq.emit s
                 (Builder.for_ ~lo:c0 ~hi:p.(3) ~step:c1 (fun i ->
                      let b = Builder.Seq.create () in
                      let e op = Builder.Seq.emitv b op in
                      let ei = e (Builder.binop Op.Mul i c2) in
                      let w = e (Builder.binop Op.Add i c1) in
                      let v = e (Builder.load p.(0) [ e (Builder.binop Op.Add d w) ]) in
                      let lt = e (Builder.cmp Op.Lt w c3) in
                      ignore (Builder.Seq.emit b (Builder.if_ lt [ Builder.store v p.(1) [ ei ] ]));
                      Builder.Seq.to_list b)));
            Builder.Seq.to_list s)
      ]
  in
  let contents run =
    let buf = floats (List.init 8 float_of_int) () in
    let out = Interp.Mem.alloc_buffer Types.F64 [| 4 |] in
    run m Interp.Mem.[ Buf buf; Buf out; Int 1; Int 4 ];
    Array.to_list (Interp.Mem.float_contents out)
  in
  Alcotest.(check (list (float 0.0))) "out[2i] = buf[x + 2 + i] for i < 2"
    [ 3.0; 0.0; 4.0; 0.0 ] (contents run_interp);
  Alcotest.(check (list (float 0.0))) "engine = interpreter"
    (contents run_interp) (contents run_engine)

(* --- proven accesses: compile-time facts remove the checks --- *)

(* out[0]'s bits after @k of [m], or the error text with buffer ids
   masked *)
let tile_outcome m run ~src ~g ~n ~init =
  let out = Interp.Mem.of_float_array [| init |] in
  match run m Interp.Mem.[ Buf out; Buf (floats src ()); Int g; Int n ] with
  | () -> Ok (Int64.bits_of_float (Interp.Mem.float_contents out).(0))
  | exception Interp.Mem.Runtime_error e -> Error (mask_bufids e)

let decisions m = Runtime.Exec.decisions (Runtime.Exec.compile m "k")

(* The engine gives the interpreter's bits or error text on [m], which
   compiles to [proven] proven accesses and [dots]/[guarded] fused
   loops; returns that outcome. *)
let check_tile what m ?(src = List.init 8 (fun i -> float_of_int i +. 0.5))
    ?(g = 0) ?(n = 2) ?(init = 0.25) ~proven ~dots ~guarded () =
  let want = tile_outcome m run_interp ~src ~g ~n ~init in
  Alcotest.(check (result int64 string))
    (what ^ ": engine = interpreter") want (tile_outcome m run_engine ~src ~g ~n ~init);
  let d = decisions m in
  Alcotest.(check (list int))
    (what ^ ": proven accesses, plain and guarded dot loops")
    [ proven; dots; guarded ]
    [ d.Runtime.Exec.proven; d.Runtime.Exec.dots; d.Runtime.Exec.guarded_dots ];
  want

(* a read over exactly [0, d - 1] is proven; over [0, d] it stays
   checked and fails at k = d with the interpreter's text, first load
   first *)
let test_proof_tile_edge () =
  ignore
    (check_tile "[0, d-1]" (mk_tile_dot_module ~d:4 ~hi:4 ()) ~proven:4 ~dots:1
       ~guarded:0 ());
  Alcotest.(check (result int64 string)) "[0, d]: t1 out of bounds at k = 4"
    (oob 4 4 1)
    (check_tile "[0, d]" (mk_tile_dot_module ~d:4 ~hi:5 ()) ~proven:2 ~dots:1
       ~guarded:0 ());
  ignore
    (check_tile "int tile" (mk_tile_dot_module ~elem:Types.I64 ~d:4 ~hi:4 ())
       ~src:[ 3.0; -1.0; 4.0; 1.0; -5.0; 9.0; 2.0; -6.0 ]
       ~proven:4 ~dots:1 ~guarded:0 ())

(* guarded dot loops: each predicate true on some trips and false on
   others, a guard false on every trip (the k = d trip, which would fail,
   reads nothing), and false trips that would index out of bounds *)
let test_proof_guarded () =
  let outs =
    List.map
      (fun pred ->
        check_tile
          (Printf.sprintf "pred %s" (Op.cmp_to_string pred))
          (mk_tile_dot_module ~guard:pred ~d:4 ~hi:4 ())
          ~g:3 ~n:3 ~proven:4 ~dots:0 ~guarded:1 ())
      all_preds
  in
  Alcotest.(check int) "six predicates, six sums" 6
    (List.length (List.sort_uniq compare outs));
  Alcotest.(check (result int64 string)) "false on every trip: the init"
    (Ok (Int64.bits_of_float 0.25))
    (check_tile "never" (mk_tile_dot_module ~guard:Op.Lt ~d:4 ~hi:5 ())
       ~g:(-1) ~proven:2 ~dots:0 ~guarded:1 ());
  Alcotest.(check bool) "false trips out of bounds: no error" true
    (Result.is_ok
       (check_tile "false trips past the tile"
          (mk_tile_dot_module ~guard:Op.Lt ~d:4 ~hi:6 ())
          ~g:4 ~n:1 ~proven:2 ~dots:0 ~guarded:1 ()))

(* NaN operands with distinct payloads, proven loops plain and guarded:
   the payload follows the IR's operand order *)
let test_proof_nan_orders () =
  let nan p = Int64.float_of_bits (Int64.logor 0x7ff8000000000000L (Int64.of_int p)) in
  List.iter
    (fun guard ->
      let outs =
        List.concat_map
          (fun mswap ->
            List.map
              (fun aswap ->
                check_tile
                  (Printf.sprintf "guarded=%b mswap=%b aswap=%b" (guard <> None) mswap aswap)
                  (mk_tile_dot_module ?guard ~mswap ~aswap ~d:1 ~hi:1 ())
                  ~src:[ nan 1; nan 2 ] ~init:(nan 3) ~g:1 ~n:1 ~proven:4
                  ~dots:(if guard = None then 1 else 0)
                  ~guarded:(if guard = None then 0 else 1)
                  ())
              [ false; true ])
          [ false; true ]
      in
      Alcotest.(check int) "the orders give three payloads" 3
        (List.length (List.sort_uniq compare outs)))
    [ None; Some Op.Lt ]

(* func @k(out : memref<?xf64>, c : index) { if c { t = alloca
   memref<4xf64>; t[0] <- 1.5 }; out[0] <- t[0] }: the alloc's dims
   fact ends with the if's region, so the read after it stays checked
   and an unbound register keeps its located error. *)
let test_proof_scope () =
  let m =
    carried_module 1 (fun s p ->
        let e op = Builder.Seq.emitv s op in
        let c0 = e (Builder.const_int 0) in
        let t = Builder.alloca Types.F64 [ Some 4 ] in
        let x = Builder.const_float ~dtype:Types.F64 1.5 in
        let st = Builder.store (Op.result x) (Op.result t) [ c0 ] in
        ignore (Builder.Seq.emit s (Builder.if_ p.(1) [ t; x; st ]));
        let v = e (Builder.load (Op.result t) [ c0 ]) in
        ignore (Builder.Seq.emit s (Builder.store v p.(0) [ c0 ])))
  in
  let run c =
    let out = Interp.Mem.alloc_buffer Types.F64 [| 1 |] in
    match run_engine m Interp.Mem.[ Buf out; Int c ] with
    | () -> Ok (Interp.Mem.float_contents out).(0)
    | exception Interp.Mem.Runtime_error e -> Error e
  in
  Alcotest.(check int) "only the store inside the if is proven" 1
    (decisions m).Runtime.Exec.proven;
  Alcotest.(check (result (float 0.0) string)) "the if taken" (Ok 1.5) (run 1);
  Alcotest.(check bool) "the if not taken: the unbound register's text" true
    (match run 0 with
     | Error e -> contains_substring ~sub:"read of unbound buffer register" e
     | Ok _ -> false)

(* func @k(out : memref<?xf64>) { t = alloca memref<2xf64>;
   for i in [lo, max_int) step s: out[0] <- t[i - lo] }: with lo =
   max_int - 1 and s = 2 the increment wraps to min_int, the loop goes on,
   and the read fails at index 2 in both engines; the loop gets no iv
   fact.  With lo = max_int - 2 and s = 1 it ends and is proven. *)
let test_proof_wrapping_loop () =
  let mk ~lo ~step =
    carried_module 0 (fun s p ->
        let e op = Builder.Seq.emitv s op in
        let c0 = e (Builder.const_int 0) in
        let t = e (Builder.alloca Types.F64 [ Some 2 ]) in
        let clo = e (Builder.const_int lo) and chi = e (Builder.const_int max_int) in
        let cs = e (Builder.const_int step) in
        ignore
          (Builder.Seq.emit s
             (Builder.for_ ~lo:clo ~hi:chi ~step:cs (fun i ->
                  let idx = Builder.binop Op.Sub i clo in
                  let v = Builder.load t [ Op.result idx ] in
                  [ idx; v; Builder.store (Op.result v) p.(0) [ c0 ] ]))))
  in
  let outcome m run =
    let out = Interp.Mem.of_float_array [| 0.5 |] in
    match run m Interp.Mem.[ Buf out ] with
    | () -> Ok (Int64.bits_of_float (Interp.Mem.float_contents out).(0))
    | exception Interp.Mem.Runtime_error e -> Error (mask_bufids e)
  in
  List.iter
    (fun (what, m, proven, want) ->
      let interp = outcome m run_interp in
      Alcotest.(check (result int64 string)) (what ^ ": interpreter") want interp;
      Alcotest.(check (result int64 string)) (what ^ ": engine = interpreter")
        interp (outcome m run_engine);
      Alcotest.(check int) (what ^ ": proven") proven (decisions m).Runtime.Exec.proven)
    [ ("wrapping", mk ~lo:(max_int - 1) ~step:2, 0, oob 2 2 0)
    ; ("ending", mk ~lo:(max_int - 2) ~step:1, 1, Ok 0L)
    ]

let () =
  let rodinia =
    List.map
      (fun (b : Rodinia.Bench_def.t) ->
        Alcotest.test_case b.name `Quick (test_rodinia_differential b))
      Rodinia.Registry.all
  in
  Alcotest.run "runtime"
    [ ("rodinia-differential", rodinia)
    ; ( "barrier",
        [ Alcotest.test_case "contention 8x200" `Quick test_barrier_contention
        ; Alcotest.test_case "poison unblocks" `Quick test_barrier_poison
        ] )
    ; ( "pool",
        [ Alcotest.test_case "team reuse" `Quick test_pool_reuse
        ; Alcotest.test_case "exception propagation" `Quick
            test_pool_exception
        ; Alcotest.test_case "failed spawn joins the partial team" `Quick
            test_pool_spawn_failure
        ] )
    ; ( "schedule",
        [ Alcotest.test_case "partition / exactly-once" `Quick
            test_schedule_partition
        ; Alcotest.test_case "static partition balanced + lockstep" `Quick
            test_static_chunk_balanced
        ] )
    ; ( "access-paths",
        [ Alcotest.test_case "strided vs typed accessors" `Quick
            test_strided_expected
        ; Alcotest.test_case "OOB rejected by both engines" `Quick
            test_strided_oob_rejected
        ; QCheck_alcotest.to_alcotest prop_strided_access
        ; QCheck_alcotest.to_alcotest prop_rank_access
        ; Alcotest.test_case "unbound buffer register located error" `Quick
            test_unbound_buffer_register
        ; Alcotest.test_case "compile cost linear in loop-nest depth" `Quick
            test_compile_linear_in_depth
        ] )
    ; ( "scalar-ops",
        [ QCheck_alcotest.to_alcotest prop_scalar_ops
        ; Alcotest.test_case "edge values, registers and literals" `Quick
            test_scalar_edges
        ] )
    ; ( "launch-lifecycle",
        [ Alcotest.test_case "zero-allocation relaunch" `Quick
            test_zero_alloc_relaunch
        ; Alcotest.test_case "chunk flag: exactly-once + grab count" `Quick
            test_chunk_flag
        ; Alcotest.test_case "no allocation per loop iteration" `Quick
            test_no_alloc_per_iteration
        ] )
    ; ( "wsloop",
        [ Alcotest.test_case "exactly-once, all schedules x team sizes"
            `Quick test_wsloop_exactly_once
        ; Alcotest.test_case "dynamic work stealing, skewed load" `Quick
            test_dynamic_skewed_load
        ; Alcotest.test_case "non-positive parallel step, exact error" `Quick
            test_nonpositive_step_message
        ] )
    ; ( "interp-team-plumbing",
        [ Alcotest.test_case "GPU threads are not a team" `Quick
            test_interp_gpu_threads_not_a_team
        ; Alcotest.test_case "wsloop exactly-once, team sizes 1..7" `Quick
            test_interp_wsloop_exactly_once
        ; Alcotest.test_case "engine rejects GPU barriers" `Quick
            test_exec_rejects_gpu_barriers
        ] )
    ; ( "carried-values",
        [ Alcotest.test_case "if results: int/float, literal/register" `Quick
            test_if_results
        ; Alcotest.test_case "iter_arg swap is a parallel copy" `Quick
            test_iter_arg_swap
        ; Alcotest.test_case "zero-trip loop returns its inits" `Quick
            test_zero_trip_loop
        ; Alcotest.test_case "if carrying a value inside a for" `Quick
            test_if_in_for
        ; Alcotest.test_case "for carrying a nested for's result" `Quick
            test_nested_for
        ; Alcotest.test_case "trapping arm: same error or none" `Quick
            test_trapping_arm
        ] )
    ; ( "fusions",
        [ Alcotest.test_case "dot loop: bounds, order and texts" `Quick
            test_dot_bounds
        ; Alcotest.test_case "dot loop: unbound buffer, zero trips" `Quick
            test_dot_unbound_and_zero_trip
        ; Alcotest.test_case "dot loop: int data" `Quick test_dot_int_data
        ; Alcotest.test_case "dot loop: NaN payloads, all operand orders"
            `Quick test_dot_nan_orders
        ; Alcotest.test_case "folded chains: texts, wrapping, shli" `Quick
            test_fold_chains
        ; Alcotest.test_case "folded chains: defs across a region boundary"
            `Quick test_fold_region_boundary
        ] )
    ; ( "proofs",
        [ Alcotest.test_case "tile read over [0, d-1] proven, [0, d] checked"
            `Quick test_proof_tile_edge
        ; Alcotest.test_case "guarded dot loops: predicates, false trips"
            `Quick test_proof_guarded
        ; Alcotest.test_case "NaN payloads, proven plain and guarded" `Quick
            test_proof_nan_orders
        ; Alcotest.test_case "a fact ends with its op list" `Quick
            test_proof_scope
        ; Alcotest.test_case "a wrapping loop gets no iv fact" `Quick
            test_proof_wrapping_loop
        ] )
    ; ( "faults",
        [ Alcotest.test_case "inject through parallel path" `Quick
            test_inject_fault_parallel
        ; Alcotest.test_case "team-reuse stats" `Quick
            test_exec_team_reuse_stats
        ] )
    ; ( "watchdog",
        [ Alcotest.test_case "arm / disarm / fired" `Quick test_watchdog_unit
        ; Alcotest.test_case "infinite while loop cancelled" `Quick
            test_watchdog_cancels_infinite_loop
        ; Alcotest.test_case "hang injection cancelled, team rebuilt" `Quick
            test_watchdog_hang_injection
        ; Alcotest.test_case "no false fire on Rodinia at 60 s" `Quick
            test_watchdog_no_false_fire
        ; Alcotest.test_case "poison wakeup latency at 4 domains" `Quick
            test_poison_wakeup_latency
        ] )
    ]
