(* The differential oracle: runs one mini-CUDA program through every
   rung of the lowering pipeline and both executors, comparing each rung
   against the GPU-semantics interpreter on the pristine module.

   Rungs, in order:
   - every stage of [Cpuify.pipeline_stages] individually (verify the
     IR, then interpret and compare checksums after each — so a
     divergence is pinned to the first stage that introduced it),
   - OpenMP lowering and the final canonicalization, interpreted at
     team sizes 1 and 4,
   - the compiled multicore engine ([Runtime.Exec]) at 1 and 4 domains,
     watchdog-armed so a miscompiled loop times out instead of hanging
     the fuzzer,
   - the module after the last GPU stage lowered again with the
     inner-parallel recipe ([Omp_lower.inner_par_options], nested teams)
     and canonicalized, on the engine at 4 domains.

   A rung fails on verifier rejection, checksum divergence, runtime
   error text that differs from the reference's (located-error
   mismatch), a pass crash, or failure to lower.  The failure carries
   the stage name and a coarse class; the reducer preserves both while
   shrinking, so a reduced case still witnesses the same bug. *)

type failure =
  { f_stage : string (* pipeline stage (or "frontend" / "exec-dN") *)
  ; f_class : string
    (* "verifier" | "checksum" | "error-mismatch" | "crash" | "stuck"
       | "timeout" | "exec-unsupported" | "frontend" *)
  ; f_detail : string
  }

type outcome =
  | Passed
  | Failed of failure

let failure_to_string f =
  Printf.sprintf "[%s] %s: %s" f.f_stage f.f_class f.f_detail

let same_failure a b = a.f_stage = b.f_stage && a.f_class = b.f_class

(* The execution contract shared with {!Gen}: the host entry is
   [void launch(float* out, float* in)].  The buffers are sized for any
   generated grid (and any reduction of one), with the driver's
   deterministic input pattern. *)
let entry = "launch"
let buf_elems = 64

(* Generated kernels run well under 100k interpreter ops; anything that
   needs more (a reduction candidate whose loop no longer terminates) is
   cut off cheaply rather than spinning the reference for seconds. *)
let fuel = 300_000

let make_args () =
  let inp =
    Interp.Mem.of_float_array
      (Array.init buf_elems (fun i -> float_of_int ((i * 7 mod 11) + 1) /. 3.0))
  in
  let out = Interp.Mem.of_float_array (Array.make buf_elems 0.0) in
  (out, [ Interp.Mem.Buf out; Interp.Mem.Buf inp ])

(* Every rung computes the same double-precision operation sequence and
   the outputs are compared element by element, so they must be
   bit-identical. *)
let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let arrays_identical a b =
  Array.length a = Array.length b && Array.for_all2 same_bits a b

(* A rung's result: the output array, or the runtime error text. *)
type rv = (float array, string) result

let interp_run ?team_size m : rv =
  let out, args = make_args () in
  match Interp.Eval.run ?team_size ~fuel m entry args with
  | _ -> Ok (Interp.Mem.float_contents out)
  | exception Interp.Mem.Runtime_error msg -> Error msg

let compare_rv ~(stage : string) (reference : rv) (got : rv) : failure option =
  match (reference, got) with
  | Ok a, Ok b ->
    if arrays_identical a b then None
    else
      Some
        { f_stage = stage
        ; f_class = "checksum"
        ; f_detail =
            Printf.sprintf "output diverges from reference (%d elements)"
              (Array.length a)
        }
  | Error a, Error b ->
    if String.equal a b then None
    else
      Some
        { f_stage = stage
        ; f_class = "error-mismatch"
        ; f_detail = Printf.sprintf "reference error %S, got %S" a b
        }
  | Ok _, Error b ->
    Some
      { f_stage = stage
      ; f_class = "error-mismatch"
      ; f_detail = Printf.sprintf "reference succeeded, rung failed: %s" b
      }
  | Error a, Ok _ ->
    Some
      { f_stage = stage
      ; f_class = "error-mismatch"
      ; f_detail = Printf.sprintf "reference failed (%s), rung succeeded" a
      }

(* OpenMP lowering with [omp] and the final cleanup, after which team
   size is meaningful to the interpreter. *)
let lowered_stages omp =
  [ ("omp-lower", fun m -> ignore (Core.Omp_lower.run ~options:omp m))
  ; ("post-canonicalize", Core.Canonicalize.run)
  ]

(* The stage sequence after the frontend: cpuify's own stages, then the
   default OpenMP lowering.  [`Lowered] marks the lowered stages. *)
let stage_list options =
  List.map
    (fun (name, pass) -> (name, pass, `Gpu))
    (Core.Cpuify.pipeline_stages ~options ())
  @ List.map
      (fun (name, pass) -> (name, pass, `Lowered))
      (lowered_stages Core.Omp_lower.default_options)

(* The last rung: the inner-parallel recipe, whose nested teams only it
   runs on the engine. *)
let inner_par_stage = "exec-inner-par-d4"

let lower_inner_par m =
  List.iter
    (fun (_, pass) -> pass m)
    (lowered_stages Core.Omp_lower.inner_par_options)

let classify_pass_exn exn =
  match exn with
  | Core.Cpuify.Stuck msg -> ("stuck", msg)
  | exn -> ("crash", Printexc.to_string exn)

(* [run] on a frontend-level module instead of source: the reference is
   a pristine snapshot interpreted under GPU semantics, the working
   copy another snapshot the rungs mutate — the input module is left
   untouched.  This is the validation entry the repair search uses on
   its edited (no longer source-backed) kernels. *)
let run_module ?(options = Core.Cpuify.default_options) ?(timeout_ms = 5000)
    (m0 : Ir.Op.op) : outcome =
  let reference = Ir.Clone.snapshot m0 in
  let ref_rv = interp_run reference in
  match ref_rv with
  | Error msg
    when String.length msg >= 24
         && String.equal (String.sub msg 0 24) "interpreter fuel exhaust" ->
    (* a nonterminating reference is not a valid differential subject
       (this only arises for reduction candidates); bail before the
       stage walk re-burns the fuel once per rung *)
    Failed
      { f_stage = "reference"; f_class = "nonterminating"; f_detail = msg }
  | _ ->
    let m = Ir.Clone.snapshot m0 in
    (* the module after the last GPU stage, for the inner-parallel rung *)
    let after_gpu = ref None in
    let check_stage (name, pass, kind) : failure option =
      if kind = `Lowered && Option.is_none !after_gpu then
        after_gpu := Some (Ir.Clone.snapshot m);
      match pass m with
      | exception exn ->
        let cls, detail = classify_pass_exn exn in
        Some { f_stage = name; f_class = cls; f_detail = detail }
      | () -> (
        match Ir.Verifier.verify_result m with
        | Error e ->
          Some { f_stage = name; f_class = "verifier"; f_detail = e }
        | Ok () ->
          let teams = match kind with `Gpu -> [ 4 ] | `Lowered -> [ 1; 4 ] in
          List.find_map
            (fun ts -> compare_rv ~stage:name ref_rv (interp_run ~team_size:ts m))
            teams)
    in
    let exec_stage ~stage m domains : failure option =
      match
        let out, args = make_args () in
        let _ = Runtime.Exec.run_module ~domains ~timeout_ms m entry args in
        Ok (Interp.Mem.float_contents out)
      with
      | got -> compare_rv ~stage ref_rv got
      | exception Interp.Mem.Runtime_error msg ->
        compare_rv ~stage ref_rv (Error msg)
      | exception Runtime.Exec.Unsupported msg ->
        Some { f_stage = stage; f_class = "exec-unsupported"; f_detail = msg }
      | exception Runtime.Exec.Timeout ms ->
        Some
          { f_stage = stage
          ; f_class = "timeout"
          ; f_detail =
              Printf.sprintf "parallel execution exceeded %d ms (watchdog)" ms
          }
    in
    let inner_par () =
      match !after_gpu with
      | None -> None
      | Some m -> (
        match lower_inner_par m with
        | exception exn ->
          let cls, detail = classify_pass_exn exn in
          Some { f_stage = inner_par_stage; f_class = cls; f_detail = detail }
        | () -> exec_stage ~stage:inner_par_stage m 4)
    in
    let rungs =
      List.map (fun st () -> check_stage st) (stage_list options)
      @ List.map
          (fun d () -> exec_stage ~stage:(Printf.sprintf "exec-d%d" d) m d)
          [ 1; 4 ]
      @ [ inner_par ]
    in
    (match List.find_map (fun rung -> rung ()) rungs with
     | Some f -> Failed f
     | None -> Passed)

let run ?options ?timeout_ms src : outcome =
  match Cudafe.Codegen.compile src with
  | exception Cudafe.Parser.Error e ->
    Failed { f_stage = "frontend"; f_class = "frontend"; f_detail = e }
  | exception Cudafe.Codegen.Error e ->
    Failed { f_stage = "frontend"; f_class = "frontend"; f_detail = e }
  | m0 -> run_module ?options ?timeout_ms m0

let ir_before ?(options = Core.Cpuify.default_options) src stage : string =
  match Cudafe.Codegen.compile src with
  | exception _ -> ""
  | m ->
    let rec walk = function
      | [] -> Ir.Printer.op_to_string m (* exec-dN / unknown: final IR *)
      | (name, _, _) :: _ when String.equal name stage ->
        Ir.Printer.op_to_string m
      | (_, _, `Lowered) :: _ when String.equal stage inner_par_stage ->
        (try lower_inner_par m with _ -> ());
        Ir.Printer.op_to_string m
      | (_, pass, _) :: rest -> (
        match pass m with
        | () -> walk rest
        | exception _ -> Ir.Printer.op_to_string m)
    in
    if String.equal stage "frontend" then Ir.Printer.op_to_string m
    else walk (stage_list options)
