(* One workload of the benchmark per process:

     main.exe --workload NAME --seed N --seconds S --work-dir DIR
              [--trace-file FILE]

   Without --trace-file it prints the end-to-end values; with it, the
   per-layer values, and it writes the spans to FILE.  The last line of
   stdout is one JSON object: correct, attempted, failed, values.  The
   line before it stamps the host.  run.py turns the values into the
   metrics BENCHMARK.json declares. *)

let workloads =
  [ ("rodinia-compile", Wl_compile.run)
  ; ("rodinia-run", Wl_run.run)
  ; ("moccuda-forward", Wl_moccuda.run)
  ; ("serve-mixed", Wl_serve.run)
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --work-dir DIR \
     [--trace-file FILE]";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let work_dir = ref "" and trace_file = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--work-dir" :: v :: rest -> work_dir := v; go rest
    | "--trace-file" :: v :: rest -> trace_file := Some v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match List.assoc_opt !workload workloads, !seed, !seconds with
  | Some run, Some seed, Some seconds when seconds > 0.0 && !work_dir <> "" ->
    (!workload, run, seed, seconds, !work_dir, !trace_file)
  | _ -> usage ()

let json_value (v : float) : string =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith (Printf.sprintf "non-finite metric value %f" v)

let end_to_end (r : Report.t) : (string * float) list =
  let summarize f a = Stats.summarize (Array.map f a) in
  let scaled (x : Report.time) = x.Report.scaled and raw (x : Report.time) = x.Report.raw in
  let lat = summarize scaled r.Report.latencies_ms in
  let wall = summarize raw r.Report.latencies_ms in
  let tail = function Some v -> Printf.sprintf "%.4f ms" v | None -> "omitted" in
  let throughput f =
    1000.0 *. float_of_int lat.Stats.n
    /. Array.fold_left (fun a x -> a +. f x) 0.0 r.Report.latencies_ms
  in
  Printf.printf "latency: n=%d p50=%.4f ms p90=%s p99=%s\n" lat.Stats.n lat.Stats.p50
    (tail lat.Stats.p90) (tail lat.Stats.p99);
  Printf.printf
    "wall clock, unscaled: setup %.4f s, latency p50=%.4f ms p90=%s, %.4f ops/s\n"
    (summarize raw r.Report.setup_s).Stats.p50 wall.Stats.p50 (tail wall.Stats.p90)
    (throughput raw);
  [ ("setup_s", (summarize scaled r.Report.setup_s).Stats.p50)
  ; ("throughput_ops_s", throughput scaled)
  ; ("latency_ms_p50", lat.Stats.p50)
  ; ( "latency_ms_p90",
      match lat.Stats.p90 with
      | Some v -> v
      | None -> failwith (Printf.sprintf "%d ops are too few for a p90" lat.Stats.n) )
  ; ("peak_rss_mb", r.Report.peak_rss_mb)
  ]

let () =
  let name, run, seed, seconds, work_dir, trace_file = parse_args () in
  Filename.set_temp_dir_name work_dir;
  let canary_before = Speed.canary_ms ~reps:Host.canary_reps () in
  let traced = trace_file <> None in
  let r =
    Trace.span ~op:(if traced then Trace.no_op else Trace.untraced) name (fun () ->
        run ~seed ~seconds ~traced)
  in
  let canary_after = Speed.canary_ms ~reps:Host.canary_reps () in
  let values =
    match trace_file with
    | None -> end_to_end r
    | Some path ->
      Trace.write path;
      r.Report.layers
  in
  print_endline (Host.stamp_json ~canary_before ~canary_after);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"values\": {%s}}\n"
    (r.Report.checks_ok && r.Report.failed = 0)
    r.Report.attempted r.Report.failed
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k (json_value v)) values))
