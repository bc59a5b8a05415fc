(* Crash bundles: self-contained failure reports that the pass manager,
   the driver's runtime fallback, the compile daemon and the fuzzer drop
   into --crash-dir.  A flat header of `key: value` lines (escaped, so
   any text round-trips) names the kind of replay and what it reads; the
   backtrace, source and pre-stage IR follow in raw sections for humans.
   Everything a replay re-runs is deterministic, so the recorded failure
   recurs, or the bundle is stale and the replay says so. *)

type run =
  { entry : string option; sizes : int list; mode : string; exec : string
  ; domains : int; schedule : string; timeout_ms : int }

type kind =
  | Pipeline
  | Runtime of { run : run; chunk : int option }
  | Serve of { run : run; duration_ms : int; retries : int; queue_depth : int }
  | Fuzz of { seed : int; timeout_ms : int }

type t =
  { kind : kind; stage : string; stage_index : int; rung : string
  ; exn_text : string; backtrace : string; repro : string; mincut : bool
  ; faults : Fault.plan; source : string; ir_before : string }

let magic = "polygeist-cpu crash bundle v6"
let backtrace_marker = "backtrace:"
let source_marker = "=== source ==="
let ir_marker = "=== pre-stage ir ==="

(* --- writing --- *)

let opt_int = function None -> "-" | Some n -> string_of_int n
let ints l = String.concat "," (List.map string_of_int l)

let run_fields (r : run) =
  [ ("entry", Option.value r.entry ~default:"-"); ("sizes", ints r.sizes)
  ; ("mode", r.mode); ("exec", r.exec); ("domains", string_of_int r.domains)
  ; ("schedule", r.schedule); ("timeout-ms", string_of_int r.timeout_ms) ]

let header (b : t) : (string * string) list =
  let i = string_of_int in
  let kind, fields =
    match b.kind with
    | Pipeline -> ("pipeline", [])
    | Runtime { run; chunk } ->
      ("runtime", run_fields run @ [ ("chunk", opt_int chunk) ])
    | Serve s ->
      ( "serve"
      , run_fields s.run
        @ [ ("duration-ms", i s.duration_ms); ("retries", i s.retries)
          ; ("queue-depth", i s.queue_depth) ] )
    | Fuzz f -> ("fuzz", [ ("seed", i f.seed); ("timeout-ms", i f.timeout_ms) ])
  in
  [ ("kind", kind); ("stage", b.stage); ("stage-index", i b.stage_index)
  ; ("rung", b.rung); ("exception", b.exn_text); ("repro", b.repro)
  ; ("mincut", string_of_bool b.mincut)
  ; ("faults", Fault.plan_to_string b.faults) ]
  @ fields

let to_string (b : t) : string =
  let buf = Buffer.create 4096 in
  let line s = Buffer.add_string buf s; Buffer.add_char buf '\n' in
  line magic;
  List.iter (fun (k, v) -> line (k ^ ": " ^ String.escaped v)) (header b);
  line backtrace_marker;
  String.split_on_char '\n' b.backtrace
  |> List.iter (fun l -> if String.trim l <> "" then line ("| " ^ l));
  line source_marker;
  Buffer.add_string buf b.source;
  if b.source = "" || b.source.[String.length b.source - 1] <> '\n' then
    Buffer.add_char buf '\n';
  line ir_marker;
  Buffer.add_string buf b.ir_before;
  Buffer.contents buf

(* --- reading --- *)

let ( let* ) = Result.bind

(* The lines before [marker], and those after it. *)
let rec upto marker acc = function
  | [] -> Error (Printf.sprintf "bundle has no %S line" marker)
  | l :: rest when l = marker -> Ok (List.rev acc, rest)
  | l :: rest -> upto marker (l :: acc) rest

(* The header as a key table; every lookup below removes its key, so
   whatever is left at the end is unknown. *)
let table (lines : string list) : ((string, string) Hashtbl.t, string) result =
  let tbl = Hashtbl.create 32 in
  let add l =
    match String.index_opt l ':' with
    | Some i when i + 1 < String.length l && l.[i + 1] = ' ' ->
      let k = String.sub l 0 i in
      let v = String.sub l (i + 2) (String.length l - i - 2) in
      if Hashtbl.mem tbl k then Error (Printf.sprintf "duplicate key %S" k)
      else begin
        match Scanf.unescaped v with
        | v -> Ok (Hashtbl.replace tbl k v)
        | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
          Error (Printf.sprintf "key %S: malformed escapes" k)
      end
    | _ -> Error (Printf.sprintf "bad header line %S" l)
  in
  List.fold_left (fun acc l -> Result.bind acc (fun () -> add l)) (Ok ()) lines
  |> Result.map (fun () -> tbl)

let take tbl k =
  match Hashtbl.find_opt tbl k with
  | Some v -> Hashtbl.remove tbl k; Ok v
  | None -> Error (Printf.sprintf "missing key %S" k)

let parsed what conv tbl k =
  let* v = take tbl k in
  Option.to_result (conv v)
    ~none:(Printf.sprintf "key %S: malformed %s %S" k what v)

let int = parsed "integer" int_of_string_opt

let opt_int_of = function
  | "-" -> Some None
  | v -> Option.map Option.some (int_of_string_opt v)

let ints_of v =
  if v = "" then Some []
  else
    let ns = List.map int_of_string_opt (String.split_on_char ',' v) in
    if List.mem None ns then None else Some (List.filter_map Fun.id ns)

let run_of tbl : (run, string) result =
  let* entry = take tbl "entry" in
  let* sizes = parsed "integer list" ints_of tbl "sizes" in
  let* mode = take tbl "mode" in
  let* exec = take tbl "exec" in
  let* domains = int tbl "domains" in
  let* schedule = take tbl "schedule" in
  let* timeout_ms = int tbl "timeout-ms" in
  let entry = if entry = "-" then None else Some entry in
  Ok { entry; sizes; mode; exec; domains; schedule; timeout_ms }

let kind_of tbl : (kind, string) result =
  match take tbl "kind" with
  | Error _ as e -> e
  | Ok "pipeline" -> Ok Pipeline
  | Ok "runtime" ->
    let* run = run_of tbl in
    let* chunk = parsed "integer" opt_int_of tbl "chunk" in
    if run.entry = None then
      Error "key \"entry\": a runtime bundle records the function it ran"
    else Ok (Runtime { run; chunk })
  | Ok "serve" ->
    let* run = run_of tbl in
    let* duration_ms = int tbl "duration-ms" in
    let* retries = int tbl "retries" in
    let* queue_depth = int tbl "queue-depth" in
    Ok (Serve { run; duration_ms; retries; queue_depth })
  | Ok "fuzz" ->
    let* seed = int tbl "seed" in
    let* timeout_ms = int tbl "timeout-ms" in
    Ok (Fuzz { seed; timeout_ms })
  | Ok k -> Error (Printf.sprintf "key \"kind\": unknown kind %S" k)

let of_string (s : string) : (t, string) result =
  match String.split_on_char '\n' s with
  | m :: rest when m = magic ->
    let* head, rest = upto backtrace_marker [] rest in
    let* trace, rest = upto source_marker [] rest in
    let* source, ir = upto ir_marker [] rest in
    let* tbl = table head in
    let* kind = kind_of tbl in
    let* stage = take tbl "stage" in
    let* stage_index = int tbl "stage-index" in
    let* rung = take tbl "rung" in
    let* exn_text = take tbl "exception" in
    let* repro = take tbl "repro" in
    let* mincut = parsed "boolean" bool_of_string_opt tbl "mincut" in
    let* faults = take tbl "faults" in
    let* faults =
      Result.map_error (Printf.sprintf "key \"faults\": %s")
        (Fault.plan_of_string faults)
    in
    let* () =
      match List.sort compare (Hashtbl.fold (fun k _ l -> k :: l) tbl []) with
      | [] -> Ok ()
      | k :: _ -> Error (Printf.sprintf "unknown key %S" k)
    in
    let traced = String.starts_with ~prefix:"| " in
    let* () =
      match List.find_opt (fun l -> not (traced l)) trace with
      | Some l -> Error (Printf.sprintf "bad backtrace line %S" l)
      | None -> Ok ()
    in
    let cat f l = String.concat "" (List.map (fun l -> f l ^ "\n") l) in
    let backtrace = cat (fun l -> String.sub l 2 (String.length l - 2)) trace in
    let source = cat Fun.id source in
    Ok { kind; stage; stage_index; rung; exn_text; backtrace; repro; mincut
       ; faults; source; ir_before = String.concat "\n" ir }
  | m :: _ when String.starts_with ~prefix:"polygeist-cpu crash bundle " m ->
    Error (Printf.sprintf "unsupported crash bundle format %S (this build \
                           reads v6)" m)
  | _ -> Error "not a polygeist-cpu crash bundle (bad magic line)"

let rec mkdir_p (dir : string) : unit =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

(* Sanitize the stage name for use in a filename. *)
let slug (s : string) : string =
  String.map
    (function ('a'..'z' | 'A'..'Z' | '0'..'9' | '-' | '_') as c -> c | _ -> '_')
    s

(* The next sequence number to try.  Creating the file with [Open_excl]
   claims its name atomically across domains and processes, so a name
   already taken only moves the counter on; n writes into one directory
   cost O(n) probes, and a fresh process starts at crash-000. *)
let next = Atomic.make 0

let write ~(dir : string) (b : t) : (string, string) result =
  let rec claim () =
    let path =
      Filename.concat dir
        (Printf.sprintf "crash-%03d-%s.bundle" (Atomic.fetch_and_add next 1)
           (slug b.stage))
    in
    let flags = [ Open_wronly; Open_creat; Open_excl; Open_text ] in
    match Out_channel.open_gen flags 0o644 path with
    | oc -> (path, oc)
    | exception Sys_error _ when Sys.file_exists path -> claim ()
  in
  try
    mkdir_p dir;
    let path, oc = claim () in
    Fun.protect
      ~finally:(fun () -> Out_channel.close oc)
      (fun () -> Out_channel.output_string oc (to_string b));
    Ok path
  with Sys_error e -> Error (Printf.sprintf "cannot write crash bundle: %s" e)

let read (path : string) : (t, string) result =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> of_string s
  | exception Sys_error e -> Error (Printf.sprintf "cannot read bundle: %s" e)
