(* In-flight job journal: the daemon's flight recorder.

   Every accepted job writes an S (start) record at admission and an E
   (end) record when its terminal reply is handed to the responder,
   each fsynced before the daemon proceeds.  After a hard crash
   (SIGKILL — no drain, no compaction), [recover] reads the previous
   journal and reports exactly which tickets were in flight: the S
   records with no matching E.  Restart can then say "jobs 17 and 42
   were accepted but never answered" instead of silently forgetting
   them — the accepted-implies-reported half of the serving tier's
   delivery guarantee, extended across process death.

   The journal is a {!Wal} log, like the cache journal: every record
   is sealed, so a torn tail or bit flip is skipped (and counted),
   never misread.  [open_] truncates, so recovery must be read before
   the new journal is opened. *)

let file (dir : string) : string = Filename.concat dir "inflight.v1"
let magic = "polygeist-serve inflight journal v1"

type t = Wal.t

type recovery =
  { lost : (int * string) list (* ticket id, job digest: S without E *)
  ; completed : int (* S records with a matching E *)
  ; skipped : int (* records dropped by the seal check *)
  }

(* Record bodies: "S <id> <digest>" / "E <id> <status>". *)
let parse (body : string) : [ `S of int * string | `E of int * string ] option
  =
  match String.split_on_char ' ' body with
  | [ tag; id; v ] -> begin
    match (tag, int_of_string_opt id) with
    | "S", Some id -> Some (`S (id, v))
    | "E", Some id -> Some (`E (id, v))
    | _ -> None
  end
  | _ -> None

(* Read the journal a previous process left behind.  Call BEFORE
   [open_]: opening truncates. *)
let recover ~(dir : string) : recovery =
  match Wal.read (file dir) parse with
  | Some (m, records, skipped) when m = magic ->
    let started : (int, string) Hashtbl.t = Hashtbl.create 64 in
    let ended : (int, unit) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (function
        | `S (id, d) -> Hashtbl.replace started id d
        | `E (id, _) -> Hashtbl.replace ended id ())
      records;
    let lost =
      Hashtbl.fold
        (fun id d acc -> if Hashtbl.mem ended id then acc else (id, d) :: acc)
        started []
      |> List.sort compare
    in
    { lost; completed = Hashtbl.length ended; skipped }
  | _ -> { lost = []; completed = 0; skipped = 0 }

let open_ ~(dir : string) : (t, string) result =
  try
    Core.Crashbundle.mkdir_p dir;
    Ok (Wal.open_ ~truncate:true ~header:magic (file dir))
  with
  | Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "cannot open inflight journal: %s" (Unix.error_message e))
  | Sys_error e -> Error (Printf.sprintf "cannot open inflight journal: %s" e)

(* Admission: ticket [id] for the job with cache digest [digest] is now
   the daemon's responsibility. *)
let start (t : t) ~(id : int) ~(digest : string) : unit =
  Wal.append t (Printf.sprintf "S %d %s" id digest)

(* Terminal reply handed off; [status] is a short word like "done",
   "failed", "overloaded", "wedged". *)
let finish (t : t) ~(id : int) ~(status : string) : unit =
  Wal.append t (Printf.sprintf "E %d %s" id status)

let close : t -> unit = Wal.close
