(* Figure-regeneration harness: one entry per table/figure of the paper's
   evaluation (Sec. VI).  Functional results come from real execution
   (the interpreter); timing comes from the analytic machine model (see
   DESIGN.md).  The BENCH_3..7 records were measured on a 1-core host;
   perfbench/ (BENCHMARK.json) is the current reference for measured
   speed.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe fig12      -- MCUDA comparison
     dune exec bench/main.exe fig13_ablate
     dune exec bench/main.exe fig13_speedup
     dune exec bench/main.exe fig14_scaling
     dune exec bench/main.exe fig15_resnet
     dune exec bench/main.exe speedup    -- real wall-clock scaling: serial
                                            interp vs the multicore runtime
                                            (writes BENCH_4.json; flags:
                                            --min-serial-ms --reps --domains
                                            --out)
     dune exec bench/main.exe perf-smoke -- tiny CI tripwire (exit 1 on
                                            checksum mismatch, warm frame
                                            allocation, or 4d > 2x 1d)
     dune exec bench/main.exe moccuda    -- kernel-tier forward pass: per-op
                                            and whole-network wall-clock at
                                            1/2/4 domains, cold vs warm
                                            cache, loss bitwise vs the
                                            Tensorlib reference (writes
                                            BENCH_6.json; flags: --reps
                                            --out)
     dune exec bench/main.exe fuzz       -- differential-fuzzer throughput:
                                            cases/min through the full
                                            oracle, divergences found
                                            (flags: --seed --cases)
     dune exec bench/main.exe repair     -- auto-repair search throughput:
                                            racy mutants repaired, candidates
                                            tried per accepted edit, median
                                            search time (flags: --seed --racy)
     dune exec bench/main.exe serve      -- compile-service throughput: jobs/
                                            sec, p50/p99 cold vs cache-warm
                                            latency and Overloaded rejections
                                            under a hot/cold replay with 1%
                                            injected faults (writes
                                            BENCH_5.json; flags: --jobs
                                            --fault-pct --queue-cap --out)
     dune exec bench/main.exe micro      -- bechamel compiler micro-benches *)

let commodity = Runtime.Machine.commodity
let a64fx = Runtime.Machine.a64fx

(* --- pipeline variants --- *)

(* Figure builds run under the fault-tolerant pass manager: a stage that
   dies degrades instead of killing the whole figure run, and every
   recovery is recorded here and summarized at the end ("which
   benchmarks degraded and how far"). *)
let degradations : (string * string) list ref = ref []

let deepest_rung (r : Core.Passmgr.report) : string =
  if r.Core.Passmgr.fell_back then "no-opt-fallback"
  else if
    List.exists
      (fun (d : Core.Passmgr.degradation) ->
        d.Core.Passmgr.recovered_to = Core.Passmgr.No_mincut)
      r.Core.Passmgr.degradations
  then "no-mincut"
  else if r.Core.Passmgr.degradations <> [] then "skip"
  else "full"

let build_polygeist ?(name = "?") ?(cpuify = Core.Cpuify.default_options)
    ?(omp = Core.Omp_lower.default_options) ?(affine = false) (src : string) :
  Ir.Op.op =
  let m = Cudafe.Codegen.compile src in
  if affine then ignore (Core.Affine_opt.run m);
  (match Core.Passmgr.run_pipeline ~options:cpuify m with
   | Ok report ->
     if Core.Passmgr.degraded report then
       degradations :=
         ( name,
           Printf.sprintf "degraded to %s (%d stage failure(s))"
             (deepest_rung report)
             (List.length report.Core.Passmgr.failures) )
         :: !degradations
   | Error (_, f) ->
     failwith
       ("pipeline unrecoverable for " ^ name ^ ": "
        ^ Core.Passmgr.failure_to_string f));
  ignore (Core.Omp_lower.run ~options:omp m);
  Core.Canonicalize.run m;
  m

let print_degradations () =
  match List.rev !degradations with
  | [] -> ()
  | l ->
    Printf.printf
      "\nPass-manager degradations during figure builds (expected: none):\n";
    List.iter (fun (name, what) -> Printf.printf "  %-16s %s\n" name what) l

let build_omp_reference (src : string) : Ir.Op.op =
  let m = Cudafe.Codegen.compile src in
  Core.Canonicalize.run m;
  Core.Cse.run m;
  ignore (Core.Mem2reg.run m);
  Core.Canonicalize.run m;
  (* a conventional compiler: no parallel-region fusion or hoisting *)
  ignore
    (Core.Omp_lower.run
       ~options:
         { Core.Omp_lower.inner = Core.Omp_lower.Inner_parallel
         ; fuse = false
         ; hoist = false
         ; collapse = false
         }
       m);
  Core.Canonicalize.run m;
  m

let seconds ?default_trip (machine : Runtime.Machine.t) ~(threads : int)
    (m : Ir.Op.op) (entry : string) (args : Runtime.Cost.sval list) : float =
  (Runtime.Cost.of_func ?default_trip machine ~threads m entry args)
    .Runtime.Cost.seconds

let geomean = function
  | [] -> nan
  | l ->
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 l
         /. float_of_int (List.length l))

let pr fmt = Printf.printf fmt

let header title =
  pr "\n================================================================\n";
  pr "%s\n" title;
  pr "================================================================\n"

(* --- Fig. 12: matmul vs MCUDA --- *)

let fig12 () =
  header
    "Fig. 12 — matmul: MCUDA vs PolygeistInnerPar vs PolygeistInnerSer\n\
     (simulated runtime on the commodity machine model)";
  let b = Rodinia.Registry.matmul in
  let mcuda = Mcuda.compile b.cuda_src in
  let inner_par =
    build_polygeist ~name:"matmul" ~omp:Core.Omp_lower.inner_par_options
      b.cuda_src
  in
  let inner_ser = build_polygeist ~name:"matmul" b.cuda_src in
  let sizes = [ 128; 256; 512; 1024; 2048 ] in
  let threads = [ 1; 2; 4; 8; 12; 16; 20; 24 ] in
  let time variant n t =
    let args = Rodinia.Bench_def.cost_args b n in
    match variant with
    | `Mcuda ->
      (* MCUDA's unoptimized fission leaves helper-published loop bounds
         the static evaluator cannot see through: supply the actual tile
         trip count *)
      seconds ~default_trip:(n / 8) commodity ~threads:t mcuda b.entry args
    | `Inner_par -> seconds commodity ~threads:t inner_par b.entry args
    | `Inner_ser -> seconds commodity ~threads:t inner_ser b.entry args
  in
  pr "\nLeft: average runtime (s) vs thread count (mean over sizes)\n";
  pr "%8s %12s %12s %12s\n" "threads" "MCUDA" "InnerPar" "InnerSer";
  List.iter
    (fun t ->
      let avg v =
        List.fold_left (fun acc n -> acc +. time v n t) 0.0 sizes
        /. float_of_int (List.length sizes)
      in
      pr "%8d %12.4e %12.4e %12.4e\n" t (avg `Mcuda) (avg `Inner_par)
        (avg `Inner_ser))
    threads;
  pr "\nRight: average runtime (s) vs matrix size (mean over threads)\n";
  pr "%8s %12s %12s %12s\n" "size" "MCUDA" "InnerPar" "InnerSer";
  List.iter
    (fun n ->
      let avg v =
        List.fold_left (fun acc t -> acc +. time v n t) 0.0 threads
        /. float_of_int (List.length threads)
      in
      pr "%8d %12.4e %12.4e %12.4e\n" n (avg `Mcuda) (avg `Inner_par)
        (avg `Inner_ser))
    sizes;
  let over v1 v2 =
    geomean
      (List.concat_map
         (fun n -> List.map (fun t -> time v1 n t /. time v2 n t) threads)
         sizes)
  in
  pr "\nSummary (geomean over the full grid):\n";
  pr "  InnerSer speedup over MCUDA : %.1f%%  (paper: 14.9%%)\n"
    ((over `Mcuda `Inner_ser -. 1.0) *. 100.0);
  pr "  InnerPar vs MCUDA           : %+.1f%%  (paper: within 1.3%%)\n"
    ((over `Mcuda `Inner_par -. 1.0) *. 100.0)

(* --- Fig. 13 (left): ablations --- *)

let fig13_ablate () =
  header
    "Fig. 13 (left) — ablation: speedup of each optimization, 32 threads\n\
     (mincut: min-cut caching; openmpopt: region fusion/hoist/collapse;\n\
     affine: unrolling loops that contain synchronization)";
  let threads = 32 in
  let results = ref [] in
  pr "\n%16s %10s %10s %10s  (barrier benchmarks marked *)\n" "benchmark"
    "mincut" "openmpopt" "affine";
  List.iter
    (fun (b : Rodinia.Bench_def.t) ->
      let args = Rodinia.Bench_def.cost_args b b.paper_size in
      let t build =
        let m = build b.cuda_src in
        seconds commodity ~threads m b.entry args
      in
      let base = t (fun s -> build_polygeist ~name:b.name s) in
      let no_mincut =
        t (fun s ->
            build_polygeist ~name:b.name
              ~cpuify:{ Core.Cpuify.default_options with Core.Cpuify.opt_mincut = false }
              s)
      in
      (* region fusion/hoisting matters most where parallel regions are
         plentiful: measure it on the nested-parallel pipeline, like the
         paper's InnerPar-based ablation *)
      let ompopt_base =
        t (fun s ->
            build_polygeist ~name:b.name
              ~omp:Core.Omp_lower.inner_par_options s)
      in
      let no_ompopt =
        t (fun s ->
            build_polygeist ~name:b.name
              ~omp:
                { Core.Omp_lower.inner_par_options with
                  Core.Omp_lower.fuse = false
                ; hoist = false
                ; collapse = false
                }
              s)
      in
      let with_affine = t (fun s -> build_polygeist ~name:b.name ~affine:true s) in
      let s_mincut = no_mincut /. base in
      let s_ompopt = no_ompopt /. ompopt_base in
      let s_affine = base /. with_affine in
      results := (b, s_mincut, s_ompopt, s_affine) :: !results;
      pr "%15s%s %9.2fx %9.2fx %9.2fx\n" b.name
        (if b.has_barrier then "*" else " ")
        s_mincut s_ompopt s_affine)
    Rodinia.Registry.all;
  let results = List.rev !results in
  let gm f sel = geomean (List.map f (List.filter sel results)) in
  pr "\nGeomeans:\n";
  pr "  mincut (barrier benchmarks) : %+.1f%%  (paper: +4.1%%)\n"
    ((gm (fun (_, s, _, _) -> s) (fun ((b : Rodinia.Bench_def.t), _, _, _) -> b.has_barrier)
      -. 1.0)
     *. 100.0);
  pr "  openmpopt (all)             : %+.1f%%  (paper: +8.9%%)\n"
    ((gm (fun (_, _, s, _) -> s) (fun _ -> true) -. 1.0) *. 100.0);
  pr "  affine (all)                : %+.1f%%  (paper: +4.6%%)\n"
    ((gm (fun (_, _, _, s) -> s) (fun _ -> true) -. 1.0) *. 100.0);
  (match
     List.find_opt
       (fun ((b : Rodinia.Bench_def.t), _, _, _) -> b.name = "backprop")
       results
   with
   | Some (_, _, _, s) ->
     pr "  affine on backprop          : %.2fx  (paper: 2.6x)\n" s
   | None -> ())

(* --- Fig. 13 (right): transpiled CUDA vs native OpenMP --- *)

let fig13_speedup () =
  header
    "Fig. 13 (right) — speedup of transpiled CUDA over native OpenMP\n\
     (32 threads, commodity machine model; >1 means transpiled wins)";
  let threads = 32 in
  let ser = ref [] and par = ref [] in
  pr "\n%16s %12s %12s\n" "benchmark" "InnerSer" "InnerPar";
  List.iter
    (fun (b : Rodinia.Bench_def.t) ->
      match b.omp_src with
      | None -> ()
      | Some omp_src ->
        let args = Rodinia.Bench_def.cost_args b b.paper_size in
        let t_omp =
          seconds commodity ~threads (build_omp_reference omp_src) b.entry args
        in
        let t_ser =
          seconds commodity ~threads
            (build_polygeist ~name:b.name b.cuda_src)
            b.entry args
        in
        let t_par =
          seconds commodity ~threads
            (build_polygeist ~name:b.name
               ~omp:Core.Omp_lower.inner_par_options b.cuda_src)
            b.entry args
        in
        ser := (t_omp /. t_ser) :: !ser;
        par := (t_omp /. t_par) :: !par;
        pr "%16s %11.2fx %11.2fx\n" b.name (t_omp /. t_ser) (t_omp /. t_par))
    Rodinia.Registry.all;
  pr "\nGeomean speedup over native OpenMP:\n";
  pr "  with inner serialization    : %+.1f%%  (paper: +76%%)\n"
    ((geomean !ser -. 1.0) *. 100.0);
  pr "  without inner serialization : %+.1f%%  (paper: +43.7%%)\n"
    ((geomean !par -. 1.0) *. 100.0)

(* --- Fig. 14: scaling --- *)

let fig14_scaling () =
  header
    "Fig. 14 — thread scaling (speedup over 1 thread), commodity model";
  let threads = [ 1; 2; 4; 8; 16; 32 ] in
  pr "\n%16s | %s | %s\n" "benchmark"
    "transpiled CUDA: speedup @ 1 2 4 8 16 32"
    "native OpenMP @ 32";
  let cuda32_all = ref [] in
  let cuda32_with_omp = ref [] in
  let omp32 = ref [] in
  List.iter
    (fun (b : Rodinia.Bench_def.t) ->
      let args = Rodinia.Bench_def.cost_args b b.paper_size in
      let cuda = build_polygeist ~name:b.name b.cuda_src in
      let t1 = seconds commodity ~threads:1 cuda b.entry args in
      let speedups =
        List.map
          (fun t -> t1 /. seconds commodity ~threads:t cuda b.entry args)
          threads
      in
      let s32 = List.nth speedups (List.length speedups - 1) in
      cuda32_all := s32 :: !cuda32_all;
      let omp_part =
        match b.omp_src with
        | None -> "      (no OpenMP version)"
        | Some src ->
          let m = build_omp_reference src in
          let o1 = seconds commodity ~threads:1 m b.entry args in
          let o32 = o1 /. seconds commodity ~threads:32 m b.entry args in
          omp32 := o32 :: !omp32;
          cuda32_with_omp := s32 :: !cuda32_with_omp;
          Printf.sprintf "%.1fx" o32
      in
      pr "%16s | %s | %s\n" b.name
        (String.concat " "
           (List.map (fun s -> Printf.sprintf "%5.1fx" s) speedups))
        omp_part)
    Rodinia.Registry.all;
  pr "\nGeomean speedup at 32 threads:\n";
  pr "  transpiled CUDA, all tests        : %.1fx  (paper: 16.1x w/o inner ser., 14.9x with)\n"
    (geomean !cuda32_all);
  pr "  transpiled CUDA, w/ OpenMP version: %.1fx  (paper: 14.0x / 12.5x)\n"
    (geomean !cuda32_with_omp);
  pr "  native OpenMP                     : %.1fx  (paper: 7.1x)\n"
    (geomean !omp32)

(* --- Fig. 15: ResNet-50 on the A64FX model --- *)

let fig15_resnet () =
  header
    "Fig. 15 — ResNet-50 synthetic training throughput on the A64FX model";
  let batches = [ 1; 2; 3; 4; 6; 8; 10; 12 ] in
  let threads = [ 1; 2; 4; 8; 12; 16; 32; 48 ] in
  pr
    "\nLeft: heatmap of throughput ratio MocCUDA+Polygeist / oneDNN\n\
     (rows: batch size; columns: threads)\n\n";
  pr "%6s" "batch";
  List.iter (fun t -> pr "%7d" t) threads;
  pr "\n";
  let ratios = ref [] in
  List.iter
    (fun batch ->
      pr "%6d" batch;
      List.iter
        (fun t ->
          let moc =
            Moccuda.Resnet.throughput Moccuda.Backends.Moccuda_polygeist a64fx
              ~batch ~threads:t
          in
          let od =
            Moccuda.Resnet.throughput Moccuda.Backends.One_dnn a64fx ~batch
              ~threads:t
          in
          ratios := (moc /. od) :: !ratios;
          pr "%7.2f" (moc /. od))
        threads;
      pr "\n")
    batches;
  pr "\nRatio stats: geomean %.2fx  min %.2fx  max %.2fx  (paper: 2.7x / 1.2x / 4.5x)\n"
    (geomean !ratios)
    (List.fold_left Float.min infinity !ratios)
    (List.fold_left Float.max neg_infinity !ratios);
  pr "\nRight: geomean throughput across batch sizes (12 threads = 1 CMG)\n";
  List.iter
    (fun backend ->
      let g =
        geomean
          (List.map
             (fun batch ->
               Moccuda.Resnet.throughput backend a64fx ~batch ~threads:12)
             batches)
      in
      pr "%20s : %8.2f images/s\n" (Moccuda.Backends.name backend) g)
    Moccuda.Backends.all;
  let moc =
    geomean
      (List.map
         (fun batch ->
           Moccuda.Resnet.throughput Moccuda.Backends.Moccuda_polygeist a64fx
             ~batch ~threads:12)
         batches)
  in
  let native =
    geomean
      (List.map
         (fun batch ->
           Moccuda.Resnet.throughput Moccuda.Backends.Native a64fx ~batch
             ~threads:12)
         batches)
  in
  pr "\nMocCUDA+Polygeist over the native CPU backend: %.1fx  (paper abstract: 2.7x)\n"
    (moc /. native)

(* --- robustness: the degradation ladder over the whole suite --- *)

(* For each Rodinia benchmark and each injected-fault scenario: how far
   down the degradation ladder does the pass manager descend, and does
   the degraded program still compute the same answer as the
   conservative no-opt lowering? *)
let robust () =
  header
    "Robustness — degradation ladder under injected faults\n\
     (cell: deepest rung engaged; ! marks an output mismatch vs no-opt)";
  let scenarios =
    [ ("none", [])
    ; ("cpuify:raise", [ ("cpuify", Core.Fault.Raise) ])
    ; ( "cpuify:raise x2",
        [ ("cpuify", Core.Fault.Raise); ("cpuify", Core.Fault.Raise) ] )
    ; ("cse:corrupt", [ ("cse", Core.Fault.Corrupt) ])
    ; ("mem2reg:exhaust", [ ("mem2reg", Core.Fault.Exhaust) ])
    ; ("seeded(42)", Core.Fault.random_plan ~seed:42 (Core.Cpuify.stage_names ()))
    ]
  in
  let short = function
    | "full" -> "full"
    | "no-mincut" -> "no-mc"
    | "skip" -> "skip"
    | "no-opt-fallback" -> "no-opt"
    | s -> s
  in
  let checksum_of (m : Ir.Op.op) (b : Rodinia.Bench_def.t) : float =
    let w = b.mk_workload b.test_size in
    ignore
      (Interp.Eval.run ~team_size:3 m b.entry
         (Rodinia.Bench_def.args_of_workload w));
    Rodinia.Bench_def.checksum w
  in
  pr "\n%16s" "benchmark";
  List.iter (fun (n, _) -> pr " %15s" n) scenarios;
  pr "\n";
  let mismatches = ref 0 in
  List.iter
    (fun (b : Rodinia.Bench_def.t) ->
      (* conservative baseline: what every degradation must still equal *)
      let baseline =
        let m = Cudafe.Codegen.compile b.cuda_src in
        Core.Cpuify.run ~use_mincut:false m;
        ignore (Core.Omp_lower.run m);
        checksum_of m b
      in
      pr "%16s" b.name;
      List.iter
        (fun (_, faults) ->
          let m = Cudafe.Codegen.compile b.cuda_src in
          let cell =
            match Core.Passmgr.run_pipeline ~faults m with
            | Ok report ->
              ignore (Core.Omp_lower.run m);
              let got = checksum_of m b in
              let close =
                let scale =
                  Float.max 1.0 (Float.max (Float.abs baseline) (Float.abs got))
                in
                Float.abs (baseline -. got) /. scale < 1e-4
              in
              if not close then incr mismatches;
              short (deepest_rung report) ^ if close then "" else "!"
            | Error _ -> "UNRECOVERABLE"
          in
          pr " %15s" cell)
        scenarios;
      pr "\n")
    Rodinia.Registry.all;
  pr "\nOutput mismatches vs the no-opt baseline: %d (expected: 0)\n"
    !mismatches

(* --- speedup: real wall-clock scaling, serial interpreter vs the
   multicore runtime --- *)

(* Unlike the figure benches (analytic machine model), this measures
   actual execution time of the lowered OpenMP module: the tree-walking
   GPU-semantics interpreter as the serial baseline vs the
   compile-to-closures runtime (Runtime.Exec) across domain counts.

   Workloads are sized honestly: each benchmark grows from its
   differential-test size toward the paper size until the serial
   interpreter needs at least [--min-serial-ms] of wall clock, so the
   timed region dominates launch overhead instead of being launch
   overhead.  Every parallel result is digested bit-for-bit against the
   serial interpreter at the same team size, and alongside time the
   harness records the runtime's own counters — in particular
   [frames_allocated] on a warm rep must be 0 (the zero-allocation
   launch contract).  Parallel efficiency is t1 / (d * td), i.e. the
   fraction of perfect scaling retained at d domains.  Results land in
   BENCH_4.json. *)

type domain_run =
  { dr_d : int
  ; dr_t : float (* best-of-reps wall clock, seconds *)
  ; dr_speedup : float (* t_serial / dr_t *)
  ; dr_eff : float (* t_1domain / (d * dr_t) *)
  ; dr_ok : bool (* checksum matches serial interp at team_size = d *)
  ; dr_stats : Runtime.Exec.stats (* counters of the last (warm) rep *)
  }

type bench_row =
  { br_name : string
  ; br_n : int
  ; br_serial : float
  ; br_result : (domain_run list * int * int, string) result
    (* runs, spawns at 4 domains with / without team reuse *)
  }

(* Grow the workload from [test_size] toward [paper_size] until the
   serial interpreter takes at least [min_serial_ms]; benchmarks whose
   sizes are both odd (stencils wanting a center point) grow as
   (n-1)*2+1 to stay odd.  A size the interpreter rejects backs off to
   the last size that ran. *)
let pick_size (b : Rodinia.Bench_def.t) (m : Ir.Op.op) ~min_serial_ms :
  int * float =
  let odd k = k land 1 = 1 in
  let grow n =
    if odd b.test_size && odd b.paper_size then ((n - 1) * 2) + 1 else n * 2
  in
  let serial_once n =
    let w = b.mk_workload n in
    let t0 = Unix.gettimeofday () in
    ignore (Interp.Eval.run m b.entry (Rodinia.Bench_def.args_of_workload w));
    Unix.gettimeofday () -. t0
  in
  let rec go n t =
    if t *. 1000.0 >= min_serial_ms || n >= b.paper_size then (n, t)
    else
      let n' = min (grow n) b.paper_size in
      if n' <= n then (n, t)
      else
        match serial_once n' with
        | t' -> go n' t'
        | exception _ -> (n, t)
  in
  match serial_once b.test_size with
  | t -> go b.test_size t
  | exception _ -> (b.test_size, 0.0)

let speedup ?(min_serial_ms = 80.0) ?(reps = 3)
    ?(domain_counts = [ 1; 2; 4; 8 ]) ?(out = Some "BENCH_4.json") () :
  bench_row list =
  header
    (Printf.sprintf
       "Scaling — serial interpreter vs multicore runtime (real wall-clock)\n\
        (workloads sized for >= %.0f ms serial; checksums verified\n\
        bit-for-bit against the serial interpreter at each team size)"
       min_serial_ms);
  let reps = max 2 reps (* the last rep must be warm for the stats proof *) in
  let time_best f =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      f ();
      let t1 = Unix.gettimeofday () in
      if t1 -. t0 < !best then best := t1 -. t0
    done;
    !best
  in
  pr "\n%16s %9s %10s" "benchmark" "n" "serial";
  List.iter (fun d -> pr "   %dd: x (eff)  " d) domain_counts;
  pr "spawns(reuse/fresh)\n";
  let rows = ref [] in
  List.iter
    (fun (b : Rodinia.Bench_def.t) ->
      let m = build_polygeist ~name:b.name b.cuda_src in
      let n, _ = pick_size b m ~min_serial_ms in
      let serial_checksum = ref nan in
      let t_serial =
        time_best (fun () ->
            let w = b.mk_workload n in
            ignore
              (Interp.Eval.run m b.entry
                 (Rodinia.Bench_def.args_of_workload w));
            serial_checksum := Interp.Mem.checksum w.Rodinia.Bench_def.buffers)
      in
      match Runtime.Exec.compile m b.entry with
      | exception Runtime.Exec.Unsupported why ->
        pr "%16s %9d %10.2e   (unsupported: %s)\n" b.name n t_serial why;
        rows :=
          { br_name = b.name; br_n = n; br_serial = t_serial
          ; br_result = Error why }
          :: !rows
      | compiled ->
        let t1 = ref nan in
        let runs =
          List.map
            (fun d ->
              (* ground truth at this team size: the serial interpreter
                 with team_size = d (the static partition depends on the
                 team size, so compare like with like) *)
              let wref = b.mk_workload n in
              ignore
                (Interp.Eval.run ~team_size:d m b.entry
                   (Rodinia.Bench_def.args_of_workload wref));
              let ref_ck =
                Interp.Mem.checksum wref.Rodinia.Bench_def.buffers
              in
              let ck = ref nan in
              let last_stats = ref None in
              let t_par =
                time_best (fun () ->
                    let w = b.mk_workload n in
                    let _, st =
                      Runtime.Exec.run ~domains:d compiled
                        (Rodinia.Bench_def.args_of_workload w)
                    in
                    last_stats := Some st;
                    ck := Interp.Mem.checksum w.Rodinia.Bench_def.buffers)
              in
              if d = 1 then t1 := t_par;
              { dr_d = d
              ; dr_t = t_par
              ; dr_speedup = t_serial /. t_par
              ; dr_eff = !t1 /. (float_of_int d *. t_par)
              ; dr_ok = !ck = ref_ck
              ; dr_stats = Option.get !last_stats
              })
            domain_counts
        in
        (* team-reuse ablation at 4 domains: fresh pool per launch *)
        let spawns_of ~team_reuse =
          let w = b.mk_workload n in
          let s0 = Runtime.Pool.total_spawns () in
          ignore
            (Runtime.Exec.run ~domains:4 ~team_reuse compiled
               (Rodinia.Bench_def.args_of_workload w));
          Runtime.Pool.total_spawns () - s0
        in
        let reuse_spawns = spawns_of ~team_reuse:true in
        let fresh_spawns = spawns_of ~team_reuse:false in
        pr "%16s %9d %10.2e" b.name n t_serial;
        List.iter
          (fun r ->
            pr " %6.1fx (%3.0f%%)%s" r.dr_speedup (100.0 *. r.dr_eff)
              (if r.dr_ok then " " else "!"))
          runs;
        pr "  %d/%d\n" reuse_spawns fresh_spawns;
        rows :=
          { br_name = b.name; br_n = n; br_serial = t_serial
          ; br_result = Ok (runs, reuse_spawns, fresh_spawns) }
          :: !rows)
    Rodinia.Registry.all;
  let rows = List.rev !rows in
  let supported =
    List.filter_map
      (fun r -> match r.br_result with Ok v -> Some v | Error _ -> None)
      rows
  in
  let at d =
    List.filter_map
      (fun (runs, _, _) -> List.find_opt (fun r -> r.dr_d = d) runs)
      supported
  in
  let mismatches =
    List.concat_map
      (fun r ->
        match r.br_result with
        | Ok (runs, _, _) ->
          List.filter_map
            (fun dr -> if dr.dr_ok then None else Some (r.br_name, dr.dr_d))
            runs
        | Error _ -> [])
      rows
  in
  let warm_frames =
    List.fold_left
      (fun acc (runs, _, _) ->
        List.fold_left
          (fun acc r -> acc + r.dr_stats.Runtime.Exec.frames_allocated)
          acc runs)
      0 supported
  in
  pr "\nChecksum mismatches vs the serial interpreter: %d (expected: 0)\n"
    (List.length mismatches);
  pr "Frames allocated on warm (best-timed) reps: %d (expected: 0)\n"
    warm_frames;
  pr "\n%28s" "geomean over benchmarks:";
  List.iter
    (fun d ->
      let rs = at d in
      pr "  %dd %.2fx (eff %2.0f%%)" d
        (geomean (List.map (fun r -> r.dr_speedup) rs))
        (100.0 *. geomean (List.map (fun r -> r.dr_eff) rs)))
    domain_counts;
  pr "\n";
  (match out with
   | None -> ()
   | Some path ->
     (* hand-rolled JSON: no JSON library in the container *)
     let buf = Buffer.create 4096 in
     let bpr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
     bpr "{\n  \"bench\": \"scaling\",\n  \"min_serial_ms\": %.1f,\n"
       min_serial_ms;
     bpr "  \"domain_counts\": [%s],\n"
       (String.concat ", " (List.map string_of_int domain_counts));
     bpr "  \"results\": [\n";
     List.iteri
       (fun i r ->
         bpr "    {\"name\": \"%s\", \"n\": %d, \"serial_s\": %.6e" r.br_name
           r.br_n r.br_serial;
         (match r.br_result with
          | Error why -> bpr ", \"supported\": false, \"why\": \"%s\"" why
          | Ok (runs, reuse_spawns, fresh_spawns) ->
            bpr ", \"supported\": true, \"runs\": [";
            List.iteri
              (fun j dr ->
                bpr
                  "%s{\"domains\": %d, \"parallel_s\": %.6e, \"speedup\": \
                   %.3f, \"efficiency\": %.3f, \"checksum_match\": %b, \
                   \"launches\": %d, \"barrier_phases\": %d, \
                   \"chunks_grabbed\": %d, \"frames_allocated_warm\": %d}"
                  (if j > 0 then ", " else "")
                  dr.dr_d dr.dr_t dr.dr_speedup dr.dr_eff dr.dr_ok
                  dr.dr_stats.Runtime.Exec.launches
                  dr.dr_stats.Runtime.Exec.barrier_phases
                  dr.dr_stats.Runtime.Exec.chunks_grabbed
                  dr.dr_stats.Runtime.Exec.frames_allocated)
              runs;
            bpr "], \"spawns_at_4_reuse\": %d, \"spawns_at_4_fresh\": %d"
              reuse_spawns fresh_spawns);
         bpr "}%s\n" (if i < List.length rows - 1 then "," else ""))
       rows;
     bpr "  ],\n";
     bpr "  \"summary\": {\"checksum_mismatches\": %d, \
          \"frames_allocated_warm\": %d,\n"
       (List.length mismatches) warm_frames;
     bpr "    \"geomean_speedup\": {%s},\n"
       (String.concat ", "
          (List.map
             (fun d ->
               Printf.sprintf "\"%d\": %.3f" d
                 (geomean (List.map (fun r -> r.dr_speedup) (at d))))
             domain_counts));
     bpr "    \"geomean_efficiency\": {%s},\n"
       (String.concat ", "
          (List.map
             (fun d ->
               Printf.sprintf "\"%d\": %.3f" d
                 (geomean (List.map (fun r -> r.dr_eff) (at d))))
             domain_counts));
     bpr "    \"positive_scaling_at_4\": %b}\n"
       (match (at 4, at 1) with
        | (_ :: _ as r4), (_ :: _ as r1) ->
          geomean (List.map (fun r -> r.dr_speedup) r4)
          > geomean (List.map (fun r -> r.dr_speedup) r1)
        | _ -> false);
     bpr "}\n";
     Out_channel.with_open_text path (fun oc ->
         Out_channel.output_string oc (Buffer.contents buf));
     pr "Wrote %s\n" path);
  rows

(* CI tripwire: tiny workloads, 1 vs 4 domains, no file written.  Fails
   (exit 1) on any checksum mismatch, on a nonzero warm frame
   allocation, or if 4 domains is more than 2x slower than 1 domain in
   the geomean — the launch-overhead regression it exists to prevent.
   The bound is loose so it holds on a 1-core host too; on real
   multicore hardware the speedup harness is the interesting number. *)
let perf_smoke () =
  let rows =
    speedup ~min_serial_ms:3.0 ~reps:2 ~domain_counts:[ 1; 4 ] ~out:None ()
  in
  let supported =
    List.filter_map
      (fun r -> match r.br_result with Ok v -> Some v | Error _ -> None)
      rows
  in
  let bad_ck =
    List.exists
      (fun (runs, _, _) -> List.exists (fun r -> not r.dr_ok) runs)
      supported
  in
  let warm_frames =
    List.fold_left
      (fun acc (runs, _, _) ->
        List.fold_left
          (fun acc r -> acc + r.dr_stats.Runtime.Exec.frames_allocated)
          acc runs)
      0 supported
  in
  let ratio41 =
    geomean
      (List.filter_map
         (fun (runs, _, _) ->
           match
             ( List.find_opt (fun r -> r.dr_d = 4) runs,
               List.find_opt (fun r -> r.dr_d = 1) runs )
           with
           | Some r4, Some r1 -> Some (r4.dr_t /. r1.dr_t)
           | _ -> None)
         supported)
  in
  pr "\nperf-smoke: geomean t(4 domains) / t(1 domain) = %.2f (limit 2.00)\n"
    ratio41;
  let fail = ref false in
  if bad_ck then begin
    pr "perf-smoke FAIL: checksum mismatch vs the serial interpreter\n";
    fail := true
  end;
  if warm_frames > 0 then begin
    pr "perf-smoke FAIL: %d frames allocated on warm launches (want 0)\n"
      warm_frames;
    fail := true
  end;
  if not (ratio41 <= 2.0) then begin
    pr "perf-smoke FAIL: 4 domains more than 2x slower than 1 domain\n";
    fail := true
  end;
  if !fail then exit 1;
  pr "perf-smoke OK\n"

(* --- fuzz: differential-fuzzer throughput --- *)

(* How fast the differential oracle chews through generated kernels:
   every case runs the full rung ladder (each pipeline stage verified
   and interpreted, plus both executors), so cases/min is an honest
   compiler+interpreter+runtime throughput number.  On a healthy build
   the divergence count is 0. *)
let fuzz_bench ~seed ~cases () =
  header
    (Printf.sprintf
       "Fuzz — differential oracle throughput (%d cases from seed %d)" cases
       seed);
  let r = Fuzz.Fuzzer.run_campaign ~seed ~cases () in
  pr "\n%s" (Fuzz.Fuzzer.report_to_string r);
  if r.Fuzz.Fuzzer.findings <> [] then exit 1

(* Flags after "fuzz": --seed N (default 1), --cases N (default 200) *)
let fuzz_with_flags () =
  let seed = ref 1 in
  let cases = ref 200 in
  let i = ref 2 in
  let next name =
    incr i;
    if !i >= Array.length Sys.argv then begin
      prerr_endline ("missing value for " ^ name);
      exit 1
    end;
    Sys.argv.(!i)
  in
  while !i < Array.length Sys.argv do
    (match Sys.argv.(!i) with
     | "--seed" -> seed := int_of_string (next "--seed")
     | "--cases" -> cases := int_of_string (next "--cases")
     | other ->
       prerr_endline ("unknown fuzz flag: " ^ other);
       exit 1);
    incr i
  done;
  fuzz_bench ~seed:!seed ~cases:!cases ()

(* --- repair: auto-repair search throughput --- *)

(* The analysis-guided repair loop end to end: scan fixed seeds for
   sanitizer-dirty racy mutants, run the candidate search on each, and
   validate every accepted patch on the differential oracle.  The
   interesting numbers are search economy (candidates speculatively
   applied per accepted edit — 1.0 means the ranking put the right
   point first every time) and the median wall-clock of one search
   including oracle validation.  On a healthy build every mutant is
   repaired. *)
let repair_bench ~seed ~racy () =
  header
    (Printf.sprintf
       "Repair — analysis-guided barrier repair (%d racy mutants from seed \
        %d)"
       racy seed);
  let r = Fuzz.Fuzzer.run_repair_campaign ~seed ~racy () in
  pr "\n%s" (Fuzz.Fuzzer.repair_report_to_string r);
  let ok =
    List.filter
      (fun (f : Fuzz.Fuzzer.repair_finding) -> Result.is_ok f.presult)
      r.Fuzz.Fuzzer.rfindings
  in
  let tried =
    List.fold_left (fun a (f : Fuzz.Fuzzer.repair_finding) -> a + f.ptried) 0 ok
  in
  let edits =
    List.fold_left (fun a (f : Fuzz.Fuzzer.repair_finding) -> a + f.pedits) 0 ok
  in
  pr "\ncandidates tried: %d for %d accepted edit(s) (%.2f per edit)\n" tried
    edits
    (if edits = 0 then 0.0 else float_of_int tried /. float_of_int edits);
  if List.length ok < List.length r.Fuzz.Fuzzer.rfindings then exit 1

(* Flags after "repair": --seed N (default 1), --racy N (default 20) *)
let repair_with_flags () =
  let seed = ref 1 in
  let racy = ref 20 in
  let i = ref 2 in
  let next name =
    incr i;
    if !i >= Array.length Sys.argv then begin
      prerr_endline ("missing value for " ^ name);
      exit 1
    end;
    Sys.argv.(!i)
  in
  while !i < Array.length Sys.argv do
    (match Sys.argv.(!i) with
     | "--seed" -> seed := int_of_string (next "--seed")
     | "--racy" -> racy := int_of_string (next "--racy")
     | other ->
       prerr_endline ("unknown repair flag: " ^ other);
       exit 1);
    incr i
  done;
  repair_bench ~seed:!seed ~racy:!racy ()

(* --- bechamel micro-benchmarks of the compiler itself --- *)

let micro () =
  header "Compiler micro-benchmarks (real measured time, bechamel)";
  let open Bechamel in
  let backprop_src = Rodinia.Backprop.bench.Rodinia.Bench_def.cuda_src in
  let matmul_src = Rodinia.Registry.matmul.Rodinia.Bench_def.cuda_src in
  let tests =
    [ Test.make ~name:"frontend: parse+codegen backprop"
        (Staged.stage (fun () -> ignore (Cudafe.Codegen.compile backprop_src)))
    ; Test.make ~name:"pipeline: cpuify+omp backprop"
        (Staged.stage (fun () -> ignore (build_polygeist ~name:"backprop" backprop_src)))
    ; Test.make ~name:"pipeline: cpuify+omp matmul"
        (Staged.stage (fun () -> ignore (build_polygeist ~name:"matmul" matmul_src)))
    ; Test.make ~name:"mcuda: fission matmul"
        (Staged.stage (fun () -> ignore (Mcuda.compile matmul_src)))
    ; Test.make ~name:"interp: reduction 2x64 (GPU semantics)"
        (let m = Cudafe.Codegen.compile matmul_src in
         let w = Rodinia.Registry.matmul.Rodinia.Bench_def.mk_workload 16 in
         Staged.stage (fun () ->
             let w' =
               { w with
                 Rodinia.Bench_def.buffers =
                   Array.map
                     (fun b ->
                       Interp.Mem.of_float_array (Interp.Mem.float_contents b))
                     w.Rodinia.Bench_def.buffers
               }
             in
             ignore
               (Interp.Eval.run m "run"
                  (Rodinia.Bench_def.args_of_workload w'))))
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 100) ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false
          ~predictors:[| Measure.run |]
      in
      let estimates = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ t ] -> pr "%-45s %12.1f ns/run\n" name t
          | _ -> pr "%-45s (no estimate)\n" name)
        estimates)
    tests

(* Flags of the scaling harness (everything after "speedup"):
   --min-serial-ms F   workload sizing target (default 80)
   --reps N            timing repetitions, best-of (default 3)
   --domains 1,2,4,8   comma-separated domain counts
   --out FILE          JSON output path (default BENCH_4.json) *)
let speedup_with_flags () =
  let min_serial_ms = ref 80.0 in
  let reps = ref 3 in
  let domain_counts = ref [ 1; 2; 4; 8 ] in
  let out = ref (Some "BENCH_4.json") in
  let i = ref 2 in
  let next name =
    incr i;
    if !i >= Array.length Sys.argv then begin
      prerr_endline ("missing value for " ^ name);
      exit 1
    end;
    Sys.argv.(!i)
  in
  while !i < Array.length Sys.argv do
    (match Sys.argv.(!i) with
     | "--min-serial-ms" -> min_serial_ms := float_of_string (next "--min-serial-ms")
     | "--reps" -> reps := int_of_string (next "--reps")
     | "--domains" ->
       domain_counts :=
         List.map int_of_string (String.split_on_char ',' (next "--domains"))
     | "--out" -> out := Some (next "--out")
     | other ->
       prerr_endline ("unknown speedup flag: " ^ other);
       exit 1);
    incr i
  done;
  if not (List.mem 1 !domain_counts) then begin
    prerr_endline "--domains must include 1 (the efficiency baseline)";
    exit 1
  end;
  ignore
    (speedup ~min_serial_ms:!min_serial_ms ~reps:!reps
       ~domain_counts:!domain_counts ~out:!out ())

(* --- compile-service throughput (BENCH_5.json) --- *)

(* Sustained jobs/sec, p50/p99 latency and cache hit rate of the
   in-process daemon core under a hot/cold job replay with a
   configurable percentage of injected serve:raise faults, plus an
   admission-control burst that must produce explicit Overloaded
   rejections (never unbounded queueing).  Cold = first submission of
   a cache key; warm = every later one (served from the
   content-addressed cache).  The headline check mirrors the service's
   reason to exist: warm latency must be at least 10x below cold. *)

let serve_sources =
  (* distinct scale constants = distinct sources = distinct cache keys *)
  List.init 6 (fun i ->
      Printf.sprintf
        {|__global__ void saxpy(float* x, float* y, int n) {
  int i = blockIdx.x * 64 + threadIdx.x;
  if (i < n) y[i] = %d.0f * x[i] + y[i];
}
void run(float* x, float* y, int n) {
  saxpy<<<(n + 63) / 64, 64>>>(x, y, n);
}
|}
        (i + 2))

let percentile (xs : float array) (p : float) : float =
  if Array.length xs = 0 then 0.0
  else begin
    let xs = Array.copy xs in
    Array.sort compare xs;
    let idx =
      int_of_float (p /. 100.0 *. float_of_int (Array.length xs - 1))
    in
    xs.(min (Array.length xs - 1) idx)
  end

let serve_bench ?(jobs = 300) ?(fault_pct = 1) ?(queue_cap = 16)
    ?(out = Some "BENCH_5.json") () =
  header
    (Printf.sprintf
       "Compile service — sustained hot/cold replay, %d jobs, %d%% injected \
        serve:raise faults"
       jobs fault_pct);
  let crash_dir = Filename.temp_file "bench_serve" ".crash" in
  Sys.remove crash_dir;
  let t =
    Serve.Server.create
      { Serve.Server.queue_cap
      ; cache_dir = None
      ; executors = 1
      ; executor_deadline_ms = 0
      ; sup =
          { Serve.Supervisor.default_config with
            deadline_ms = 5000
          ; crash_dir = Some crash_dir
          ; backoff = { Serve.Backoff.default with base_ms = 1; cap_ms = 5 }
          }
      }
  in
  let nsrc = List.length serve_sources in
  let sources = Array.of_list serve_sources in
  let mk_job ?(faults = "") i =
    { Serve.Proto.source = sources.(i mod nsrc)
    ; entry = Some "run"
    ; sizes = [ 256 ]
    ; mode = "inner-serial"
    ; exec = "interp"
    ; domains = 2
    ; schedule = "static"
    ; faults
    }
  in
  let cold = ref [] and warm = ref [] and faulted = ref [] in
  let fault_every = if fault_pct <= 0 then max_int else 100 / fault_pct in
  let t0 = Unix.gettimeofday () in
  for i = 0 to jobs - 1 do
    let faults = if i > 0 && i mod fault_every = 0 then "serve:raise" else "" in
    let j0 = Unix.gettimeofday () in
    (match Serve.Server.run t (mk_job ~faults i) with
     | Serve.Proto.Done o ->
       let dt = Unix.gettimeofday () -. j0 in
       if o.Serve.Proto.exit_code <> 0 then
         Printf.printf "  WARNING: job %d exited %d\n" i
           o.Serve.Proto.exit_code;
       if faults <> "" then faulted := dt :: !faulted
       else if o.Serve.Proto.cached then warm := dt :: !warm
       else cold := dt :: !cold
     | Serve.Proto.Overloaded _ | Serve.Proto.Rejected _ ->
       Printf.printf "  WARNING: synchronous job %d rejected\n" i)
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  (* admission-control burst: async submissions beyond the queue bound
     must be rejected explicitly, not queued into latency collapse *)
  let burst = (queue_cap * 3) + 4 in
  let tickets = ref [] in
  let rejected = ref 0 in
  for i = 0 to burst - 1 do
    match Serve.Server.submit t (mk_job i) with
    | `Ticket tk -> tickets := tk :: !tickets
    | `Overloaded _ -> incr rejected
    | `Draining -> ()
  done;
  List.iter (fun tk -> ignore (Serve.Server.await tk)) !tickets;
  let s = Serve.Server.agg_stats t in
  let cs = Serve.Cache.stats (Serve.Server.cache t) in
  Serve.Server.drain t;
  let cold_a = Array.of_list !cold and warm_a = Array.of_list !warm in
  let faulted_a = Array.of_list !faulted in
  let ms x = x *. 1000.0 in
  let cold_p50 = percentile cold_a 50.0 and cold_p99 = percentile cold_a 99.0 in
  let warm_p50 = percentile warm_a 50.0 and warm_p99 = percentile warm_a 99.0 in
  let hit_rate =
    float_of_int cs.Serve.Cache.hits
    /. float_of_int (max 1 (cs.Serve.Cache.hits + cs.Serve.Cache.misses))
  in
  let warm_speedup = cold_p50 /. Float.max warm_p50 1e-9 in
  Printf.printf
    "  %d jobs in %.2f s (%.1f jobs/sec sustained)\n\
    \  cold (%d):    p50 %8.3f ms   p99 %8.3f ms\n\
    \  warm (%d):    p50 %8.3f ms   p99 %8.3f ms   (%.0fx below cold p50)\n\
    \  faulted (%d): p50 %8.3f ms (one-shot fault, retry, recover)\n\
    \  cache: %d hits / %d misses (%.1f%% hit rate)\n\
    \  admission burst: %d submissions, %d explicit Overloaded rejections\n\
    \  fault wall: %d retries, %d crash bundles, 0 daemon deaths\n"
    jobs elapsed
    (float_of_int jobs /. elapsed)
    (Array.length cold_a) (ms cold_p50) (ms cold_p99) (Array.length warm_a)
    (ms warm_p50) (ms warm_p99) warm_speedup (Array.length faulted_a)
    (ms (percentile faulted_a 50.0))
    cs.Serve.Cache.hits cs.Serve.Cache.misses (100.0 *. hit_rate) burst
    !rejected s.Serve.Supervisor.retries s.Serve.Supervisor.bundles;
  if warm_speedup < 10.0 then
    Printf.printf
      "  WARNING: warm latency is only %.1fx below cold (want >= 10x)\n"
      warm_speedup;
  if !rejected = 0 then
    Printf.printf
      "  WARNING: the burst produced no Overloaded rejections (queue cap \
       %d, burst %d)\n"
      queue_cap burst;
  (match out with
   | None -> ()
   | Some path ->
     let buf = Buffer.create 2048 in
     let bpr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
     bpr "{\n";
     bpr "  \"bench\": \"serve\",\n";
     bpr "  \"jobs\": %d,\n" jobs;
     bpr "  \"fault_pct\": %d,\n" fault_pct;
     bpr "  \"queue_cap\": %d,\n" queue_cap;
     bpr "  \"elapsed_s\": %.6e,\n" elapsed;
     bpr "  \"jobs_per_sec\": %.3f,\n" (float_of_int jobs /. elapsed);
     bpr
       "  \"cold\": {\"count\": %d, \"p50_ms\": %.4f, \"p99_ms\": %.4f},\n"
       (Array.length cold_a) (ms cold_p50) (ms cold_p99);
     bpr
       "  \"warm\": {\"count\": %d, \"p50_ms\": %.4f, \"p99_ms\": %.4f},\n"
       (Array.length warm_a) (ms warm_p50) (ms warm_p99);
     bpr
       "  \"faulted\": {\"count\": %d, \"p50_ms\": %.4f},\n"
       (Array.length faulted_a)
       (ms (percentile faulted_a 50.0));
     bpr "  \"warm_speedup_vs_cold_p50\": %.2f,\n" warm_speedup;
     bpr "  \"warm_at_least_10x\": %b,\n" (warm_speedup >= 10.0);
     bpr "  \"cache\": {\"hits\": %d, \"misses\": %d, \"hit_rate\": %.4f},\n"
       cs.Serve.Cache.hits cs.Serve.Cache.misses hit_rate;
     bpr
       "  \"admission\": {\"burst\": %d, \"overloaded_rejections\": %d},\n"
       burst !rejected;
     bpr
       "  \"fault_wall\": {\"retries\": %d, \"bundles\": %d, \
        \"pool_rebuilds\": %d, \"daemon_deaths\": 0}\n"
       s.Serve.Supervisor.retries s.Serve.Supervisor.bundles
       s.Serve.Supervisor.pool_rebuilds;
     bpr "}\n";
     Out_channel.with_open_text path (fun oc ->
         Out_channel.output_string oc (Buffer.contents buf));
     Printf.printf "  wrote %s\n" path)

(* --- compile-service executor-fleet sweep (BENCH_7.json) --- *)

(* Throughput of the daemon core at 1/2/4 executor lanes under a burst
   that mixes warm cache hits with serve:hang STRAGGLERS.  A straggler
   burns a full watchdog deadline before it fails; with one executor
   those deadline burns serialize, with a fleet they overlap across
   lanes — so the sweep measures the one thing the fleet exists for:
   a slow job must not stall the lane-parallel service of fast ones.
   The headline check: 4 executors must clear the burst with at least
   2x the throughput of 1 executor.

   The job set uses enough distinct sources that source-hash affinity
   spreads the stragglers across lanes (same sources at every executor
   count, so the comparison is apples to apples). *)

let fleet_sources =
  List.init 8 (fun i ->
      Printf.sprintf
        {|__global__ void axpb(float* x, float* y, int n) {
  int i = blockIdx.x * 64 + threadIdx.x;
  if (i < n) y[i] = %d.0f * x[i] + %d.0f;
}
void run(float* x, float* y, int n) {
  axpb<<<(n + 63) / 64, 64>>>(x, y, n);
}
|}
        (i + 2) (i + 1))

let serve_fleet_bench ?(burst = 40) ?(hang_every = 5)
    ?(out = Some "BENCH_7.json") () =
  header
    (Printf.sprintf
       "Compile service — executor-fleet sweep, burst of %d jobs (1 in %d a \
        serve:hang straggler) at 1/2/4 executors"
       burst hang_every);
  let deadline_ms = 300 in
  let sources = Array.of_list fleet_sources in
  let nsrc = Array.length sources in
  let mk_job ?(faults = "") i =
    { Serve.Proto.source = sources.(i mod nsrc)
    ; entry = Some "run"
    ; sizes = [ 256 ]
    ; mode = "inner-serial"
    ; exec = "interp"
    ; domains = 2
    ; schedule = "static"
    ; faults
    }
  in
  let run_sweep executors =
    let t =
      Serve.Server.create
        { Serve.Server.queue_cap = burst + 8
        ; cache_dir = None
        ; executors
        ; executor_deadline_ms = 0 (* derived; far above one deadline burn *)
        ; sup =
            { Serve.Supervisor.default_config with
              deadline_ms
            ; crash_dir = None
            ; backoff =
                { Serve.Backoff.base_ms = 1
                ; cap_ms = 2
                ; max_retries = 0 (* a straggler burns exactly one deadline *)
                }
            }
        }
    in
    (* warm the cache so the burst's clean jobs are hits *)
    Array.iteri
      (fun i _ ->
        match Serve.Server.run t (mk_job i) with
        | Serve.Proto.Done o when o.Serve.Proto.exit_code = 0 -> ()
        | _ -> Printf.printf "  WARNING: warmup job %d failed\n" i)
      sources;
    let t0 = Unix.gettimeofday () in
    let tickets = ref [] and lost = ref 0 and hangs = ref 0 in
    for i = 0 to burst - 1 do
      let faults =
        if i mod hang_every = 0 then begin
          incr hangs;
          "serve:hang"
        end
        else ""
      in
      match Serve.Server.submit t (mk_job ~faults i) with
      | `Ticket tk -> tickets := (i, faults = "", Unix.gettimeofday (), tk) :: !tickets
      | `Overloaded _ | `Draining ->
        Printf.printf "  WARNING: burst job %d rejected (cap %d)\n" i
          (burst + 8)
    done;
    let warm_lat = ref [] in
    List.iter
      (fun (_i, clean, ts, tk) ->
        let o = Serve.Server.await tk in
        let dt = Unix.gettimeofday () -. ts in
        if clean then begin
          warm_lat := dt :: !warm_lat;
          if o.Serve.Proto.exit_code <> 0 then incr lost
        end)
      (List.rev !tickets);
    let elapsed = Unix.gettimeofday () -. t0 in
    let unanswered =
      List.length
        (List.filter
           (fun (_, _, _, tk) -> Serve.Server.peek tk = None)
           !tickets)
    in
    Serve.Server.drain t;
    let warm = Array.of_list !warm_lat in
    let jps = float_of_int burst /. elapsed in
    Printf.printf
      "  %d executor(s): %d jobs (%d stragglers) in %6.2f s = %6.1f jobs/s; \
       warm p50 %7.2f ms p99 %7.2f ms; %d clean failures, %d unanswered\n"
      executors burst !hangs elapsed jps
      (1000.0 *. percentile warm 50.0)
      (1000.0 *. percentile warm 99.0)
      !lost unanswered;
    (executors, elapsed, jps, percentile warm 50.0, percentile warm 99.0,
     !hangs, !lost, unanswered)
  in
  let sweep = List.map run_sweep [ 1; 2; 4 ] in
  let jps_of n =
    match List.find_opt (fun (e, _, _, _, _, _, _, _) -> e = n) sweep with
    | Some (_, _, jps, _, _, _, _, _) -> jps
    | None -> 0.0
  in
  let ratio = jps_of 4 /. Float.max (jps_of 1) 1e-9 in
  Printf.printf "  throughput 4 executors / 1 executor: %.2fx %s\n" ratio
    (if ratio >= 2.0 then "(>= 2x: the fleet pays for itself)"
     else "(WARNING: below the 2x bar)");
  (match out with
   | None -> ()
   | Some path ->
     let buf = Buffer.create 1024 in
     let bpr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
     bpr "{\n";
     bpr "  \"bench\": \"serve-fleet\",\n";
     bpr "  \"burst\": %d,\n" burst;
     bpr "  \"hang_every\": %d,\n" hang_every;
     bpr "  \"deadline_ms\": %d,\n" deadline_ms;
     bpr "  \"sweep\": [\n";
     List.iteri
       (fun i (e, elapsed, jps, p50, p99, hangs, lost, unanswered) ->
         bpr
           "    {\"executors\": %d, \"elapsed_s\": %.6e, \"jobs_per_sec\": \
            %.3f, \"warm_p50_ms\": %.4f, \"warm_p99_ms\": %.4f, \
            \"stragglers\": %d, \"clean_failures\": %d, \"unanswered\": %d}%s\n"
           e elapsed jps (1000.0 *. p50) (1000.0 *. p99) hangs lost unanswered
           (if i = List.length sweep - 1 then "" else ","))
       sweep;
     bpr "  ],\n";
     bpr "  \"throughput_ratio_4x_vs_1x\": %.3f,\n" ratio;
     bpr "  \"fleet_at_least_2x\": %b\n" (ratio >= 2.0);
     bpr "}\n";
     Out_channel.with_open_text path (fun oc ->
         Out_channel.output_string oc (Buffer.contents buf));
     Printf.printf "  wrote %s\n" path)

(* --- moccuda: the kernel tier end to end (BENCH_6.json) --- *)

(* Real wall-clock of the compiled-kernel network: the miniature ResNet
   forward pass where every tensor op is a transpiled mini-CUDA kernel
   (frontend -> barrier lowering -> OpenMP -> the multicore engine),
   at 1/2/4 domains, cold (first pass compiles every kernel) vs warm
   (every launch a cache hit).  Functional ground truth is the
   Tensorlib reference forward pass: the loss must match BIT FOR BIT
   at every domain count.  A capped slice of the real ResNet-50 layer
   table then runs through the same tier with per-layer checksum
   parity.  The analytic Opcost prediction (A64FX model) is printed
   next to each measured time — the cost model and the measurement
   come from the same graph. *)
let moccuda_bench ?(reps = 3) ?(out = Some "BENCH_6.json") () =
  let open Tensorlib in
  header
    "MocCUDA kernel tier — compiled forward pass, real wall-clock\n\
     (every op a transpiled kernel; loss checked bitwise against the\n\
     Tensorlib reference at each domain count)";
  let batch = 2 and hw = 8 and channels = 8 in
  let m = Moccuda.Resnet.mini_model ~channels in
  let images = Tensor.rand 42 [| batch; 3; hw; hw |] in
  let targets = [| 3; 7 |] in
  let reference =
    Moccuda.Resnet.mini_forward Moccuda.Backends.Moccuda_expert m ~images
      ~targets
  in
  let images_b = Moccuda.Graph.buffer_of_tensor images in
  let targets_b = Moccuda.Graph.buffer_of_ints targets in
  let cm = Moccuda.Resnet.mini_compiled m ~batch ~hw in
  let bits = Int64.bits_of_float in
  pr "\nforward pass: batch %d, %dx%d images, %d channels\n" batch hw hw
    channels;
  pr "%8s %12s %12s %14s %10s %6s\n" "domains" "cold (s)" "warm (s)"
    "a64fx pred (s)" "recompile" "loss=";
  let rows =
    List.map
      (fun domains ->
        let km = Moccuda.Kmgr.create ~domains () in
        let ar = Moccuda.Arena.create () in
        let run () =
          Moccuda.Resnet.run_mini_compiled cm km ar ~images:images_b
            ~targets:targets_b
        in
        let t0 = Unix.gettimeofday () in
        let cold_loss = run () in
        let cold_s = Unix.gettimeofday () -. t0 in
        let compiles_after_cold = (Moccuda.Kmgr.stats km).Moccuda.Kmgr.compiles in
        let warm_s = ref infinity in
        let warm_loss = ref cold_loss in
        for _ = 1 to reps do
          let t0 = Unix.gettimeofday () in
          warm_loss := run ();
          let t = Unix.gettimeofday () -. t0 in
          if t < !warm_s then warm_s := t
        done;
        let s = Moccuda.Kmgr.stats km in
        let recompiles = s.Moccuda.Kmgr.compiles - compiles_after_cold in
        let loss_ok =
          Int64.equal (bits cold_loss) (bits reference)
          && Int64.equal (bits !warm_loss) (bits reference)
        in
        let predicted =
          Opcost.seconds a64fx ~threads:domains
            (Moccuda.Resnet.mini_cost cm)
        in
        pr "%8d %12.4f %12.4f %14.2e %10d %6s\n" domains cold_s !warm_s
          predicted recompiles
          (if loss_ok then "bit" else "DIFF");
        (domains, cold_s, !warm_s, predicted, recompiles, loss_ok,
         Moccuda.Kmgr.kernels km, s))
      [ 1; 2; 4 ]
  in
  let _, _, _, _, _, _, kernels4, _ = List.nth rows (List.length rows - 1) in
  pr "\nper-kernel totals at 4 domains (rung, launches, time):\n";
  List.iter
    (fun (k : Moccuda.Kmgr.kernel_info) ->
      pr "  %-10s %-14s %-8s %4d launches %9.4f s\n" k.Moccuda.Kmgr.kname
        (String.concat "x" (List.map string_of_int k.Moccuda.Kmgr.kshape))
        k.Moccuda.Kmgr.krung k.Moccuda.Kmgr.klaunches k.Moccuda.Kmgr.ksecs)
    kernels4;
  (* the real ResNet-50 table, capped so the engine finishes in bench
     time: geometry (kernel size, stride, channel ratios) is the
     layer's own *)
  let sweep_km = Moccuda.Kmgr.create ~domains:4 () in
  let sweep_ar = Moccuda.Arena.create () in
  let sweep_layers = List.filteri (fun i _ -> i < 6) Moccuda.Resnet.conv_layers in
  pr "\nResNet-50 layer sweep (first %d layers, hw<=8, channels<=16, 4 domains):\n"
    (List.length sweep_layers);
  let sweep =
    List.mapi
      (fun i l ->
        let r =
          Moccuda.Resnet.run_conv_layer ~hw_cap:8 ~channel_cap:16 sweep_km
            sweep_ar ~batch:1 l
        in
        let ok =
          Int64.equal
            (bits r.Moccuda.Resnet.lr_checksum)
            (bits r.Moccuda.Resnet.lr_ref_checksum)
        in
        let sh = r.Moccuda.Resnet.lr_shape in
        pr "  layer %2d: %3dc -> %3dk  %dx%d s%d  %8.4f s  checksum %s\n" i
          sh.Conv.c sh.Conv.k sh.Conv.r sh.Conv.s sh.Conv.p.Conv.stride
          r.Moccuda.Resnet.lr_secs
          (if ok then "bit-identical" else "MISMATCH");
        (i, r, ok))
      sweep_layers
  in
  let all_loss_ok = List.for_all (fun (_, _, _, _, _, ok, _, _) -> ok) rows in
  let no_recompiles =
    List.for_all (fun (_, _, _, _, rc, _, _, _) -> rc = 0) rows
  in
  let sweep_ok = List.for_all (fun (_, _, ok) -> ok) sweep in
  pr "\nloss bitwise at every domain count: %b\n" all_loss_ok;
  pr "warm recompiles: %s\n" (if no_recompiles then "0" else "NONZERO");
  pr "layer-sweep checksum parity: %b\n" sweep_ok;
  (match out with
   | None -> ()
   | Some path ->
     let buf = Buffer.create 4096 in
     let bpr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
     bpr "{\n  \"bench\": \"moccuda\",\n";
     bpr "  \"batch\": %d, \"hw\": %d, \"channels\": %d,\n" batch hw channels;
     bpr "  \"reference_loss\": %.17g,\n" reference;
     bpr "  \"forward\": [\n";
     List.iteri
       (fun i (d, cold_s, warm_s, predicted, rc, ok, kernels, stats) ->
         bpr
           "    {\"domains\": %d, \"cold_s\": %.6e, \"warm_s\": %.6e, \
            \"predicted_a64fx_s\": %.6e, \"warm_recompiles\": %d, \
            \"loss_bitwise\": %b,\n"
           d cold_s warm_s predicted rc ok;
         bpr
           "     \"cache\": {\"compiles\": %d, \"hits\": %d, \"misses\": \
            %d, \"degraded\": %d, \"interp_fallbacks\": %d, \"launches\": \
            %d},\n"
           stats.Moccuda.Kmgr.compiles stats.Moccuda.Kmgr.hits
           stats.Moccuda.Kmgr.misses stats.Moccuda.Kmgr.degraded
           stats.Moccuda.Kmgr.interp_fallbacks stats.Moccuda.Kmgr.launches;
         bpr "     \"ops\": [";
         List.iteri
           (fun j (k : Moccuda.Kmgr.kernel_info) ->
             bpr "%s{\"name\": \"%s\", \"shape\": \"%s\", \"rung\": \
                  \"%s\", \"launches\": %d, \"secs\": %.6e}"
               (if j > 0 then ", " else "")
               k.Moccuda.Kmgr.kname
               (String.concat "x"
                  (List.map string_of_int k.Moccuda.Kmgr.kshape))
               k.Moccuda.Kmgr.krung k.Moccuda.Kmgr.klaunches
               k.Moccuda.Kmgr.ksecs)
           kernels;
         bpr "]}%s\n" (if i < List.length rows - 1 then "," else ""))
       rows;
     bpr "  ],\n  \"layer_sweep\": [\n";
     List.iteri
       (fun i (idx, (r : Moccuda.Resnet.layer_run), ok) ->
         let sh = r.Moccuda.Resnet.lr_shape in
         bpr
           "    {\"layer\": %d, \"c\": %d, \"k\": %d, \"ksize\": %d, \
            \"stride\": %d, \"secs\": %.6e, \"checksum_match\": %b}%s\n"
           idx sh.Conv.c sh.Conv.k sh.Conv.r sh.Conv.p.Conv.stride
           r.Moccuda.Resnet.lr_secs ok
           (if i < List.length sweep - 1 then "," else ""))
       sweep;
     bpr "  ],\n";
     bpr
       "  \"summary\": {\"loss_bitwise_all_domains\": %b, \
        \"warm_recompiles_zero\": %b, \"layer_sweep_parity\": %b}\n"
       all_loss_ok no_recompiles sweep_ok;
     bpr "}\n";
     Out_channel.with_open_text path (fun oc ->
         Out_channel.output_string oc (Buffer.contents buf));
     pr "Wrote %s\n" path);
  if not (all_loss_ok && no_recompiles && sweep_ok) then exit 1

(* Flags after "moccuda": --reps N (default 3), --out FILE *)
let moccuda_with_flags () =
  let reps = ref 3 in
  let out = ref (Some "BENCH_6.json") in
  let i = ref 2 in
  let next name =
    incr i;
    if !i >= Array.length Sys.argv then begin
      prerr_endline ("missing value for " ^ name);
      exit 1
    end;
    Sys.argv.(!i)
  in
  while !i < Array.length Sys.argv do
    (match Sys.argv.(!i) with
     | "--reps" -> reps := int_of_string (next "--reps")
     | "--out" -> out := Some (next "--out")
     | other ->
       prerr_endline ("unknown moccuda flag: " ^ other);
       exit 1);
    incr i
  done;
  moccuda_bench ~reps:!reps ~out:!out ()

(* Flags of the serve bench (everything after "serve"):
   --jobs N        replayed job count (default 300)
   --fault-pct N   percentage of jobs with an injected serve:raise
   --queue-cap N   admission bound for the Overloaded burst
   --burst N       fleet-sweep burst size (default 40)
   --no-fleet      skip the 1/2/4-executor sweep (BENCH_7.json)
   --out FILE      JSON output path of the replay (default BENCH_5.json) *)
let serve_with_flags () =
  let jobs = ref 300 in
  let fault_pct = ref 1 in
  let queue_cap = ref 16 in
  let burst = ref 40 in
  let fleet = ref true in
  let out = ref (Some "BENCH_5.json") in
  let i = ref 2 in
  let next name =
    incr i;
    if !i >= Array.length Sys.argv then begin
      prerr_endline ("missing value for " ^ name);
      exit 1
    end;
    Sys.argv.(!i)
  in
  while !i < Array.length Sys.argv do
    (match Sys.argv.(!i) with
     | "--jobs" -> jobs := int_of_string (next "--jobs")
     | "--fault-pct" -> fault_pct := int_of_string (next "--fault-pct")
     | "--queue-cap" -> queue_cap := int_of_string (next "--queue-cap")
     | "--burst" -> burst := int_of_string (next "--burst")
     | "--no-fleet" -> fleet := false
     | "--out" -> out := Some (next "--out")
     | other ->
       prerr_endline ("unknown serve flag: " ^ other);
       exit 1);
    incr i
  done;
  serve_bench ~jobs:!jobs ~fault_pct:!fault_pct ~queue_cap:!queue_cap
    ~out:!out ();
  if !fleet then serve_fleet_bench ~burst:!burst ()

let () =
  let which = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  (match which with
   | "fig12" -> fig12 ()
   | "fig13_ablate" -> fig13_ablate ()
   | "fig13_speedup" -> fig13_speedup ()
   | "fig14_scaling" -> fig14_scaling ()
   | "fig15_resnet" -> fig15_resnet ()
   | "robust" -> robust ()
   | "speedup" -> speedup_with_flags ()
   | "serve" -> serve_with_flags ()
   | "perf-smoke" -> perf_smoke ()
   | "moccuda" -> moccuda_with_flags ()
   | "fuzz" -> fuzz_with_flags ()
   | "repair" -> repair_with_flags ()
   | "micro" -> micro ()
   | "all" ->
     fig12 ();
     fig13_ablate ();
     fig13_speedup ();
     fig14_scaling ();
     fig15_resnet ();
     robust ();
     ignore (speedup ());
     micro ()
   | other ->
     prerr_endline ("unknown figure: " ^ other);
     exit 1);
  print_degradations ()
