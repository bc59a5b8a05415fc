(* Crash bundles: self-contained failure reports the pass manager drops
   into --crash-dir whenever a stage dies.

   A bundle is a single text file holding everything needed to reproduce
   the failure offline: the failing stage (and which rung of the
   degradation ladder was being attempted), the exception and backtrace,
   the pipeline options and the complete fault plan, a CLI repro line
   (for humans: replay reads the recorded fields, never this line),
   the original source, and a dump of the IR as it stood when the stage
   started.  `polygeist-cpu --replay <bundle>` parses one back,
   recompiles the embedded source and re-runs the pipeline under the
   same options and fault plan — the whole pipeline is deterministic, so
   the recorded failure recurs (or the bundle is stale and the replay
   says so). *)

(* Runtime-side configuration, so runtime and fuzz-oracle failures
   replay under the exact execution setup that produced them: what was
   run (entry, sizes, recipe) and how (engine, team, schedule).  Plain
   strings/ints: Core must not depend on Runtime. *)
type runtime_cfg =
  { rexec : string (* "interp" | "parallel" *)
  ; rdomains : int
  ; rschedule : string (* "static" | "dynamic" | "guided" *)
  ; rchunk : int option
  ; rseed : int option (* fuzz generator seed, when applicable *)
  ; rtimeout_ms : int option
  ; rentry : string option (* the function that was run *)
  ; rsizes : int list (* its integer arguments (--size) *)
  ; rrecipe : string (* the --cpuify recipe the module was lowered with *)
  }

(* Serving-side job context, so a bundle from the compile daemon shows
   how the job was doing when it died: how long the failing attempt
   ran, how many retries the supervisor had already burned, and how
   deep the admission queue was.  Plain ints: Core must not depend on
   Serve. *)
type serve_cfg =
  { sduration_ms : int (* wall-clock of the failing attempt *)
  ; sretries : int (* retries already performed when it failed *)
  ; squeue_depth : int (* admission-queue depth at failure *)
  }

type t =
  { stage : string
  ; stage_index : int (* occurrence index within pipeline_stages *)
  ; rung : string (* ladder rung being attempted when it failed *)
  ; exn_text : string
  ; backtrace : string
  ; repro : string (* CLI line that led here *)
  ; options : Cpuify.options
  ; faults : Fault.plan
  ; runtime : runtime_cfg option (* None for pure pass failures *)
  ; serve : serve_cfg option (* None for one-shot failures *)
  ; source : string (* original CUDA translation unit *)
  ; ir_before : string (* pre-stage IR dump *)
  }

let magic = "polygeist-cpu crash bundle v5"
let source_marker = "=== source ==="
let ir_marker = "=== pre-stage ir ==="

let options_to_string (o : Cpuify.options) : string =
  Printf.sprintf "mincut=%b,budget=%d" o.Cpuify.opt_mincut o.Cpuify.opt_budget

(* The "k=v,k=v,..." lines (options, runtime, serve): fold each field
   into [init] with [set]; the first malformed field is the error. *)
let parse_fields (s : string) (init : 'a)
    (set : 'a -> string -> string -> ('a, string) result) : ('a, string) result
    =
  List.fold_left
    (fun acc kv ->
      Result.bind acc (fun r ->
          match String.index_opt kv '=' with
          | None -> Error (Printf.sprintf "bad field %S" kv)
          | Some i ->
            set r (String.sub kv 0 i)
              (String.sub kv (i + 1) (String.length kv - i - 1))))
    (Ok init) (String.split_on_char ',' s)

let int_field (k : string) (v : string) : (int, string) result =
  match int_of_string_opt v with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "bad integer %S for %s" v k)

let opt_int_field (k : string) (v : string) : (int option, string) result =
  if v = "-" then Ok None else Result.map Option.some (int_field k v)

let unknown_field (k : string) = Error (Printf.sprintf "unknown field %S" k)

let options_of_string (s : string) : (Cpuify.options, string) result =
  parse_fields s Cpuify.default_options (fun o k v ->
      let bool set =
        match bool_of_string_opt v with
        | Some b -> Ok (set b)
        | None -> Error (Printf.sprintf "bad boolean %S for %s" v k)
      in
      match k with
      | "mincut" -> bool (fun b -> { o with Cpuify.opt_mincut = b })
      | "budget" ->
        Result.map (fun n -> { o with Cpuify.opt_budget = n }) (int_field k v)
      | _ -> unknown_field k)

let opt_int_to_string = function None -> "-" | Some n -> string_of_int n

(* Sizes are ';'-separated: ',' already separates the fields. *)
let runtime_to_string (r : runtime_cfg) : string =
  Printf.sprintf
    "exec=%s,domains=%d,schedule=%s,chunk=%s,seed=%s,timeout-ms=%s,entry=%s,\
     sizes=%s,recipe=%s"
    r.rexec r.rdomains r.rschedule
    (opt_int_to_string r.rchunk)
    (opt_int_to_string r.rseed)
    (opt_int_to_string r.rtimeout_ms)
    (Option.value r.rentry ~default:"-")
    (String.concat ";" (List.map string_of_int r.rsizes))
    r.rrecipe

let runtime_of_string (s : string) : (runtime_cfg, string) result =
  let init =
    { rexec = "interp"
    ; rdomains = 1
    ; rschedule = "static"
    ; rchunk = None
    ; rseed = None
    ; rtimeout_ms = None
    ; rentry = None
    ; rsizes = []
    ; rrecipe = "inner-serial"
    }
  in
  parse_fields s init (fun r k v ->
      let opt set = Result.map set (opt_int_field k v) in
      match k with
      | "exec" -> Ok { r with rexec = v }
      | "schedule" -> Ok { r with rschedule = v }
      | "domains" ->
        Result.map (fun n -> { r with rdomains = n }) (int_field k v)
      | "chunk" -> opt (fun o -> { r with rchunk = o })
      | "seed" -> opt (fun o -> { r with rseed = o })
      | "timeout-ms" -> opt (fun o -> { r with rtimeout_ms = o })
      | "entry" -> Ok { r with rentry = (if v = "-" then None else Some v) }
      | "sizes" ->
        let ns = if v = "" then [] else String.split_on_char ';' v in
        let ns = List.map int_of_string_opt ns in
        if List.mem None ns then Error (Printf.sprintf "bad sizes %S" v)
        else Ok { r with rsizes = List.filter_map Fun.id ns }
      | "recipe" -> Ok { r with rrecipe = v }
      | _ -> unknown_field k)

let serve_to_string (s : serve_cfg) : string =
  Printf.sprintf "duration-ms=%d,retries=%d,queue-depth=%d" s.sduration_ms
    s.sretries s.squeue_depth

let serve_of_string (str : string) : (serve_cfg, string) result =
  parse_fields str { sduration_ms = 0; sretries = 0; squeue_depth = 0 }
    (fun s k v ->
      let int set = Result.map set (int_field k v) in
      match k with
      | "duration-ms" -> int (fun n -> { s with sduration_ms = n })
      | "retries" -> int (fun n -> { s with sretries = n })
      | "queue-depth" -> int (fun n -> { s with squeue_depth = n })
      | _ -> unknown_field k)

let to_string (b : t) : string =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "%s" magic;
  line "stage: %s" b.stage;
  line "stage-index: %d" b.stage_index;
  line "rung: %s" b.rung;
  line "exception: %s" (String.map (fun c -> if c = '\n' then ' ' else c) b.exn_text);
  line "repro: %s" b.repro;
  line "options: %s" (options_to_string b.options);
  line "faults: %s" (Fault.plan_to_string b.faults);
  (match b.runtime with
   | Some r -> line "runtime: %s" (runtime_to_string r)
   | None -> ());
  (match b.serve with
   | Some s -> line "serve: %s" (serve_to_string s)
   | None -> ());
  line "backtrace:";
  String.split_on_char '\n' b.backtrace
  |> List.iter (fun l -> if String.trim l <> "" then line "| %s" l);
  line "%s" source_marker;
  Buffer.add_string buf b.source;
  if b.source = "" || b.source.[String.length b.source - 1] <> '\n' then
    Buffer.add_char buf '\n';
  line "%s" ir_marker;
  Buffer.add_string buf b.ir_before;
  Buffer.contents buf

let of_string (s : string) : (t, string) result =
  let lines = String.split_on_char '\n' s in
  match lines with
  | m :: rest when m = magic -> begin
    let stage = ref "" in
    let stage_index = ref 0 in
    let rung = ref "" in
    let exn_text = ref "" in
    let repro = ref "" in
    let options = ref Cpuify.default_options in
    let faults = ref [] in
    let runtime = ref None in
    let serve = ref None in
    let backtrace = Buffer.create 256 in
    let source = Buffer.create 1024 in
    let ir = Buffer.create 1024 in
    let err = ref None in
    let fail fmt = Printf.ksprintf (fun e -> err := Some e) fmt in
    let section = ref `Header in
    List.iter
      (fun l ->
        if l = source_marker then section := `Source
        else if l = ir_marker then section := `Ir
        else begin
          match !section with
          | `Source ->
            Buffer.add_string source l;
            Buffer.add_char source '\n'
          | `Ir ->
            Buffer.add_string ir l;
            Buffer.add_char ir '\n'
          | `Header ->
            let strip prefix =
              if String.length l >= String.length prefix
                 && String.sub l 0 (String.length prefix) = prefix
              then
                Some
                  (String.sub l (String.length prefix)
                     (String.length l - String.length prefix))
              else None
            in
            (match strip "stage: " with
             | Some v -> stage := v
             | None ->
             match strip "stage-index: " with
             | Some v ->
               stage_index := Option.value ~default:0 (int_of_string_opt v)
             | None ->
             match strip "rung: " with
             | Some v -> rung := v
             | None ->
             match strip "exception: " with
             | Some v -> exn_text := v
             | None ->
             match strip "repro: " with
             | Some v -> repro := v
             | None ->
             match strip "options: " with
             | Some v -> begin
               match options_of_string v with
               | Ok o -> options := o
               | Error e -> fail "bad options line: %s" e
             end
             | None ->
             match strip "faults: " with
             | Some v -> begin
               match Fault.plan_of_string v with
               | Ok p -> faults := p
               | Error e -> fail "bad faults line: %s" e
             end
             | None ->
             match strip "runtime: " with
             | Some v -> begin
               match runtime_of_string v with
               | Ok r -> runtime := Some r
               | Error e -> fail "bad runtime line: %s" e
             end
             | None ->
             match strip "serve: " with
             | Some v -> begin
               match serve_of_string v with
               | Ok s -> serve := Some s
               | Error e -> fail "bad serve line: %s" e
             end
             | None ->
             match strip "| " with
             | Some v ->
               Buffer.add_string backtrace v;
               Buffer.add_char backtrace '\n'
             | None -> ())
        end)
      rest;
    match !err with
    | Some e -> Error e
    | None ->
      if !stage = "" then Error "bundle has no stage line"
      else
        Ok
          { stage = !stage
          ; stage_index = !stage_index
          ; rung = !rung
          ; exn_text = !exn_text
          ; backtrace = Buffer.contents backtrace
          ; repro = !repro
          ; options = !options
          ; faults = !faults
          ; runtime = !runtime
          ; serve = !serve
          ; source = Buffer.contents source
          ; ir_before =
              (* drop the final '\n' the line-splitting round trip adds *)
              (let s = Buffer.contents ir in
               if s <> "" && s.[String.length s - 1] = '\n' then
                 String.sub s 0 (String.length s - 1)
               else s)
          }
  end
  | _ -> Error "not a polygeist-cpu crash bundle (bad magic line)"

let rec mkdir_p (dir : string) : unit =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

(* Sanitize the stage name for use in a filename. *)
let slug (s : string) : string =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
      | _ -> '_')
    s

(* Concurrent executor domains write bundles into the same directory;
   picking the next free sequence number and creating the file must be
   one atomic step per process or two lanes can claim the same name. *)
let write_mutex = Mutex.create ()

let write ~(dir : string) (b : t) : (string, string) result =
  try
    Mutex.lock write_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock write_mutex)
      (fun () ->
        mkdir_p dir;
        let rec pick n =
          let path =
            Filename.concat dir
              (Printf.sprintf "crash-%03d-%s.bundle" n (slug b.stage))
          in
          if Sys.file_exists path then pick (n + 1) else path
        in
        let path = pick 0 in
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc (to_string b));
        Ok path)
  with Sys_error e -> Error (Printf.sprintf "cannot write crash bundle: %s" e)

let read (path : string) : (t, string) result =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> of_string s
  | exception Sys_error e -> Error (Printf.sprintf "cannot read bundle: %s" e)
