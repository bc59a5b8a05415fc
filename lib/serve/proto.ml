(* Wire format of the compile service.

   One message per frame; a frame is an ASCII decimal byte count, a
   newline, and exactly that many payload bytes.  The payload is a line
   oriented key=value record where every value is OCaml-escaped
   ([String.escaped]), so sources and logs with newlines survive the
   round trip.  The format is deliberately dumb: it is diffable in a
   crash report, trivially versioned (the first line names the message
   kind), and every parser failure is a structured [Error] — a malformed
   frame must never take the daemon down.

   Every frame is wire version 2: it carries a per-request [id] that
   the daemon echoes in every response.  With a fleet of executors,
   completions arrive out of submission order, and the id is what lets
   the responder (and any future pipelined client) match a response to
   its request instead of relying on FIFO completion.  Frames with any
   other version line are rejected.

   The same [outcome] serialization doubles as the cache's artifact
   payload: the content-addressed store hashes exactly these bytes
   (the request-scoped id deliberately lives in the response envelope,
   NOT in the outcome), so "cache hit is bit-identical to the cold
   result" is checkable by digest. *)

(* A compile(/run) job, mirroring the one-shot CLI surface. *)
type job =
  { source : string (* CUDA translation unit *)
  ; entry : string option (* -run entry point; None = compile only *)
  ; sizes : int list (* --size arguments *)
  ; mode : string (* a Passmgr.recipes name *)
  ; exec : string (* an [engines] name *)
  ; domains : int
  ; schedule : string (* a Schedule.policies name *)
  ; faults : string (* Fault.plan syntax; "" = none *)
  }

let default_job =
  { source = ""
  ; entry = None
  ; sizes = []
  ; mode = "inner-serial"
  ; exec = "parallel"
  ; domains = 4
  ; schedule = "static"
  ; faults = ""
  }

(* What a [job]'s settings mean: the values the fault wall runs with.
   [decode] is the one place a job's strings are read. *)
type spec =
  { recipe : Core.Passmgr.recipe
  ; engine : [ `Interp | `Parallel ]
  ; team : int (* [domains], range-checked *)
  ; policy : Runtime.Schedule.policy
  ; plan : Core.Fault.plan
  }

(* The [exec] / [--exec] names. *)
let engines = [ ("interp", `Interp); ("parallel", `Parallel) ]

(* OCaml 5.1 fails [Domain.spawn] process-wide once 128 domains are
   live.  A team of at most 64 leaves the other half of that budget to
   the daemon's executor lanes, monitor and responder; a team past it
   could only ever fail to launch. *)
let max_domains = 64

let check_domains (n : int) : (int, string) result =
  if n >= 1 && n <= max_domains then Ok n
  else Error (Printf.sprintf "domains %d outside [1, %d]" n max_domains)

let decode (j : job) : (spec, string) result =
  let named what names v =
    match List.assoc_opt v names with
    | Some x -> Ok x
    | None ->
      Error
        (Printf.sprintf "unknown %s %S (expected %s)" what v
           (String.concat "|" (List.map fst names)))
  in
  let ( let* ) = Result.bind in
  let* recipe = named "mode" Core.Passmgr.recipes j.mode in
  let* engine = named "exec" engines j.exec in
  let* policy = named "schedule" Runtime.Schedule.policies j.schedule in
  let* team = check_domains j.domains in
  let* plan = Core.Fault.plan_of_string j.faults in
  Ok { recipe; engine; team; policy; plan }

(* The part of [job] that, together with the source, determines the
   result — the cache key material. *)
let job_flags (j : job) : string =
  Printf.sprintf "entry=%s;sizes=%s;mode=%s;exec=%s;domains=%d;schedule=%s;faults=%s"
    (match j.entry with None -> "-" | Some e -> e)
    (String.concat "," (List.map string_of_int j.sizes))
    j.mode j.exec j.domains j.schedule j.faults

type request =
  | Submit of job
  | Shutdown (* graceful drain: finish queued jobs, flush the cache, exit *)

type outcome =
  { exit_code : int (* the one-shot CLI's exit code for this job *)
  ; checksum : string (* "%.9g" output checksum, or "-" when nothing ran *)
  ; cached : bool (* served from the artifact cache *)
  ; retries : int (* retries the fault wall performed *)
  ; breaker : bool (* served via a tripped circuit breaker (conservative) *)
  ; log : string (* the job's human-readable output *)
  }

type response =
  | Done of outcome
  | Overloaded of
      { depth : int (* admission-queue depth at rejection *)
      ; cap : int
      }
  | Rejected of string (* malformed request, or the daemon is draining *)

(* --- key=value record (de)serialization --- *)

let kv (b : Buffer.t) (k : string) (v : string) : unit =
  Buffer.add_string b k;
  Buffer.add_char b '=';
  Buffer.add_string b (String.escaped v);
  Buffer.add_char b '\n'

let fields_of_string (s : string) : (string * string) list =
  String.split_on_char '\n' s
  |> List.filter_map (fun line ->
      if line = "" then None
      else
        match String.index_opt line '=' with
        | None -> None
        | Some i ->
          let k = String.sub line 0 i in
          let v = String.sub line (i + 1) (String.length line - i - 1) in
          let v = try Scanf.unescaped v with Scanf.Scan_failure _ | Failure _ -> v in
          Some (k, v))

let field fields k = List.assoc_opt k fields
let field_int fields k ~default =
  match field fields k with
  | Some v -> Option.value ~default (int_of_string_opt v)
  | None -> default

(* --- job --- *)

let job_to_string (j : job) : string =
  let b = Buffer.create 256 in
  kv b "entry" (match j.entry with None -> "-" | Some e -> e);
  kv b "sizes" (String.concat "," (List.map string_of_int j.sizes));
  kv b "mode" j.mode;
  kv b "exec" j.exec;
  kv b "domains" (string_of_int j.domains);
  kv b "schedule" j.schedule;
  kv b "faults" j.faults;
  kv b "source" j.source;
  Buffer.contents b

(* An absent field takes [default_job]'s value; a present one must
   decode. *)
let job_of_fields (fields : (string * string) list) : (job, string) result =
  let ( let* ) = Result.bind in
  let int k v =
    match int_of_string_opt v with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "invalid job: %s %S is not an integer" k v)
  in
  let str k default = Option.value ~default (field fields k) in
  let* source =
    Option.to_result ~none:"job has no source field" (field fields "source")
  in
  let* sizes =
    match field fields "sizes" with
    | None | Some "" -> Ok []
    | Some s ->
      List.fold_right
        (fun v acc ->
          let* l = acc in
          let* n = int "sizes" v in
          Ok (n :: l))
        (String.split_on_char ',' s) (Ok [])
  in
  let* domains =
    match field fields "domains" with
    | None -> Ok default_job.domains
    | Some v -> int "domains" v
  in
  let job =
    { source
    ; entry =
        (match field fields "entry" with
         | None | Some "-" | Some "" -> None
         | Some e -> Some e)
    ; sizes
    ; mode = str "mode" default_job.mode
    ; exec = str "exec" default_job.exec
    ; domains
    ; schedule = str "schedule" default_job.schedule
    ; faults = str "faults" ""
    }
  in
  match decode job with
  | Ok _ -> Ok job
  | Error e -> Error ("invalid job: " ^ e)

(* --- request --- *)

(* The id is an envelope field: it rides next to the job/outcome fields
   in the kv record but belongs to the request/response pair, not to
   the cached computation. *)

let request_to_string ?(id = 0) (r : request) : string =
  match r with
  | Shutdown -> Printf.sprintf "polygeist-serve/2 shutdown\nid=%d\n" id
  | Submit j ->
    Printf.sprintf "polygeist-serve/2 submit\nid=%d\n%s" id (job_to_string j)

(* A frame's head line, and the id and fields of its body. *)
let envelope (what : string) (s : string) :
  (string * int * (string * string) list, string) result =
  match String.index_opt s '\n' with
  | None -> Error ("empty " ^ what)
  | Some i ->
    let body = String.sub s (i + 1) (String.length s - i - 1) in
    let fields = fields_of_string body in
    Ok (String.sub s 0 i, field_int fields "id" ~default:0, fields)

(* Returns the request together with its id. *)
let request_of_string (s : string) : (int * request, string) result =
  Result.bind (envelope "request" s) (fun (head, id, fields) ->
      match head with
      | "polygeist-serve/2 shutdown" -> Ok (id, Shutdown)
      | "polygeist-serve/2 submit" ->
        Result.map (fun j -> (id, Submit j)) (job_of_fields fields)
      | _ -> Error (Printf.sprintf "unknown request kind %S" head))

(* --- outcome (also the cache artifact payload) --- *)

let outcome_to_string (o : outcome) : string =
  let b = Buffer.create 256 in
  kv b "exit" (string_of_int o.exit_code);
  kv b "checksum" o.checksum;
  kv b "cached" (string_of_bool o.cached);
  kv b "retries" (string_of_int o.retries);
  kv b "breaker" (string_of_bool o.breaker);
  kv b "log" o.log;
  Buffer.contents b

let outcome_of_fields (fields : (string * string) list) :
  (outcome, string) result =
  match field fields "exit" with
  | None -> Error "outcome has no exit field"
  | Some _ ->
    Ok
      { exit_code = field_int fields "exit" ~default:2
      ; checksum = Option.value ~default:"-" (field fields "checksum")
      ; cached = field fields "cached" = Some "true"
      ; retries = field_int fields "retries" ~default:0
      ; breaker = field fields "breaker" = Some "true"
      ; log = Option.value ~default:"" (field fields "log")
      }

let outcome_of_string (s : string) : (outcome, string) result =
  outcome_of_fields (fields_of_string s)

(* --- response --- *)

(* [id] echoes the request's id so an interleaving responder (or a
   pipelined client) can pair responses with requests. *)
let response_to_string ?(id = 0) (r : response) : string =
  match r with
  | Done o ->
    Printf.sprintf "polygeist-serve/2 done\nid=%d\n%s" id (outcome_to_string o)
  | Overloaded { depth; cap } ->
    Printf.sprintf "polygeist-serve/2 overloaded\nid=%d\ndepth=%d\ncap=%d\n" id
      depth cap
  | Rejected why ->
    let b = Buffer.create 64 in
    Buffer.add_string b (Printf.sprintf "polygeist-serve/2 rejected\nid=%d\n" id);
    kv b "why" why;
    Buffer.contents b

(* Returns the echoed id and the response. *)
let response_of_string (s : string) : (int * response, string) result =
  Result.bind (envelope "response" s) (fun (head, id, fields) ->
      match head with
      | "polygeist-serve/2 done" ->
        Result.map (fun o -> (id, Done o)) (outcome_of_fields fields)
      | "polygeist-serve/2 overloaded" ->
        Ok
          ( id
          , Overloaded
              { depth = field_int fields "depth" ~default:0
              ; cap = field_int fields "cap" ~default:0
              } )
      | "polygeist-serve/2 rejected" ->
        Ok (id, Rejected (Option.value ~default:"" (field fields "why")))
      | _ -> Error (Printf.sprintf "unknown response kind %S" head))

(* --- framing over a file descriptor --- *)

(* Upper bound on a frame: a malicious or corrupt length header must
   not make the daemon allocate unboundedly. *)
let max_frame = 16 * 1024 * 1024

exception Closed

let write_all (fd : Unix.file_descr) (s : string) : unit =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    let w = Unix.write_substring fd s !off (n - !off) in
    if w = 0 then raise Closed;
    off := !off + w
  done

let read_exact (fd : Unix.file_descr) (n : int) : string =
  let buf = Bytes.create n in
  let off = ref 0 in
  while !off < n do
    let r = Unix.read fd buf !off (n - !off) in
    if r = 0 then raise Closed;
    off := !off + r
  done;
  Bytes.to_string buf

let send (fd : Unix.file_descr) (payload : string) : unit =
  write_all fd (Printf.sprintf "%d\n%s" (String.length payload) payload)

let recv (fd : Unix.file_descr) : (string, string) result =
  (* read the length header byte by byte (it is < 10 bytes; saving
     syscalls here does not matter next to a compile job) *)
  let header = Buffer.create 12 in
  let rec header_loop () =
    let c = read_exact fd 1 in
    if c = "\n" then Buffer.contents header
    else begin
      if Buffer.length header > 10 then failwith "oversized frame header";
      Buffer.add_string header c;
      header_loop ()
    end
  in
  match header_loop () with
  | exception Closed -> Error "connection closed"
  | exception Failure e -> Error e
  | h -> begin
    match int_of_string_opt h with
    | None -> Error (Printf.sprintf "bad frame header %S" h)
    | Some n when n < 0 || n > max_frame ->
      Error (Printf.sprintf "frame length %d out of bounds" n)
    | Some n -> begin
      match read_exact fd n with
      | s -> Ok s
      | exception Closed -> Error "connection closed mid-frame"
    end
  end
