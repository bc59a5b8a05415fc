(* Content-addressed artifact cache for the compile service.

   One table maps a job key — the digest of source + flags — to the
   artifact payload together with the MD5 digest of the payload's own
   bytes (its content address).  A lookup re-hashes the payload and
   compares it to that digest, so a corrupted artifact (bit rot, or the
   serve:corrupt fault injected by tests) can never be served: the
   entry is quarantined, the corruption is counted, and the job
   re-executes as a cache miss.  This is the property the fault matrix
   leans on — one poisoned job must not corrupt what other jobs read.

   Durability is a write-ahead journal (cache-journal.v2, a {!Wal} log):
   every [store] with a directory attached appends one sealed record
   and fsyncs before returning, so a SIGKILL at any point loses at most
   the record being written — replay after a hard crash recovers every
   completed store.  Replay is truncation tolerant (a torn final record
   is skipped and counted, earlier records still load), idempotent
   (duplicate appends collapse via replace), and generation aware: a
   clean shutdown compacts the journal by writing a gen+1 snapshot to a
   temp file and renaming it into place, and the loader finishes an
   interrupted compaction (temp newer than main) or discards a stale
   temp (temp older).  A directory with no journal starts a fresh
   generation-0 journal.

   Corrupt artifacts are not silently dropped: when a directory is
   attached, the bad bytes are persisted under quarantine/<digest> so
   the evidence survives for debugging, and the quarantined count is
   reported in stats. *)

type stats =
  { entries : int
  ; hits : int
  ; misses : int
  ; corrupt_dropped : int (* artifacts that failed their digest check *)
  ; quarantined : int (* corrupt artifacts whose bytes were persisted *)
  ; journal_skipped : int (* journal records dropped at replay *)
  }

type t =
  { tbl : (string, string * string) Hashtbl.t
    (* job key -> (payload digest, payload) *)
  ; mutable hits : int
  ; mutable misses : int
  ; mutable corrupt_dropped : int
  ; mutable quarantined : int
  ; mutable journal_skipped : int
  ; mutable wal : Wal.t option (* open journal, append mode *)
  ; mutable dir : string option (* attached persistence directory *)
  ; mutable gen : int (* journal generation (bumped by compaction) *)
  ; m : Mutex.t (* the daemon reads from several domains *)
  }

let create () : t =
  { tbl = Hashtbl.create 64
  ; hits = 0
  ; misses = 0
  ; corrupt_dropped = 0
  ; quarantined = 0
  ; journal_skipped = 0
  ; wal = None
  ; dir = None
  ; gen = 0
  ; m = Mutex.create ()
  }

(* The job key: source and flags hashed together.  Two jobs with the
   same key are the same computation, so they may share an artifact. *)
let key ~(source : string) ~(flags : string) : string =
  Wal.digest (Printf.sprintf "%d:%s|%s" (String.length source) source flags)

let locked (t : t) (f : unit -> 'a) : 'a =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* --- on-disk layout --- *)

let journal_file (dir : string) : string =
  Filename.concat dir "cache-journal.v2"

let journal_tmp (dir : string) : string = journal_file dir ^ ".tmp"
let journal_magic = "polygeist-serve cache journal v2"
let quarantine_dir (dir : string) : string = Filename.concat dir "quarantine"

(* A journal record body: "A <key> <digest> <escaped-payload>".  Key and
   digest are hex (no spaces); the escaped payload may contain spaces,
   so the parser takes the first three fields and joins the rest back
   together. *)
let record_body (k : string) (d : string) (payload : string) : string =
  Printf.sprintf "A %s %s %s" k d (String.escaped payload)

let parse_record (body : string) : (string * string * string) option =
  match String.split_on_char ' ' body with
  | "A" :: k :: d :: rest -> begin
    match Scanf.unescaped (String.concat " " rest) with
    | exception (Scanf.Scan_failure _ | Failure _) -> None
    | payload -> if Wal.digest payload = d then Some (k, d, payload) else None
  end
  | _ -> None

let header (gen : int) : string = Printf.sprintf "%s gen=%d" journal_magic gen

let parse_header (line : string) : int option =
  let prefix = journal_magic ^ " gen=" in
  let plen = String.length prefix in
  if String.length line > plen && String.sub line 0 plen = prefix then
    int_of_string_opt (String.sub line plen (String.length line - plen))
  else None

(* Generation of an on-disk journal, or None if absent/headerless. *)
let journal_gen (path : string) : int option =
  match In_channel.with_open_bin path In_channel.input_line with
  | exception Sys_error _ -> None
  | None -> None
  | Some first -> parse_header first

(* --- quarantine --- *)

(* Persist a corrupt artifact's bytes so the evidence outlives the
   drop.  Returns true when the bytes reached disk. *)
let quarantine (t : t) (d : string) (payload : string) : bool =
  match t.dir with
  | None -> false
  | Some dir -> begin
    try
      let qdir = quarantine_dir dir in
      Core.Crashbundle.mkdir_p qdir;
      Out_channel.with_open_bin (Filename.concat qdir d) (fun oc ->
          Out_channel.output_string oc payload);
      true
    with Sys_error _ -> false
  end

(* Caller holds the lock.  Drop [k] as corrupt, quarantining its
   payload. *)
let drop_corrupt (t : t) (k : string) (d : string) (payload : string) : unit =
  Hashtbl.remove t.tbl k;
  if quarantine t d payload then t.quarantined <- t.quarantined + 1;
  t.corrupt_dropped <- t.corrupt_dropped + 1;
  t.misses <- t.misses + 1

(* --- lookups and stores --- *)

let find (t : t) (k : string) : string option =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl k with
      | None ->
        t.misses <- t.misses + 1;
        None
      | Some (d, payload) when Wal.digest payload = d ->
        t.hits <- t.hits + 1;
        Some payload
      | Some (d, payload) ->
        (* content no longer matches its address: never serve it *)
        drop_corrupt t k d payload;
        None)

(* The journal append is durable before the caller's reply goes out; a
   failed append degrades to an in-memory entry (see {!Wal.append}). *)
let store (t : t) (k : string) (payload : string) : unit =
  locked t (fun () ->
      let d = Wal.digest payload in
      Hashtbl.replace t.tbl k (d, payload);
      Option.iter (fun w -> Wal.append w (record_body k d payload)) t.wal)

(* Bit rot, simulated: the payload with its first byte flipped (the
   serve:corrupt fault and the [corrupt] hook). *)
let rot (payload : string) : string =
  String.mapi
    (fun i c -> if i = 0 then Char.chr (Char.code c lxor 0x40) else c)
    payload

(* Test hook for the serve:corrupt fault matrix: rot the artifact a key
   points at, in place, WITHOUT updating its address.  Returns false
   when the key has no artifact. *)
let corrupt (t : t) (k : string) : bool =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl k with
      | None | Some (_, "") -> false
      | Some (d, payload) ->
        Hashtbl.replace t.tbl k (d, rot payload);
        true)

(* Re-verify every artifact against its address; corrupt ones are
   dropped (and quarantined).  Returns how many were dropped.  The
   chaos harness runs this after a journal replay to assert the
   recovered cache is internally consistent. *)
let verify_all (t : t) : int =
  locked t (fun () ->
      let bad =
        Hashtbl.fold
          (fun k (d, p) acc ->
            if Wal.digest p = d then acc else (k, d, p) :: acc)
          t.tbl []
      in
      List.iter
        (fun (k, d, p) ->
          drop_corrupt t k d p;
          (* verify_all is not a lookup; undo the miss accounting *)
          t.misses <- t.misses - 1)
        bad;
      List.length bad)

let stats (t : t) : stats =
  locked t (fun () ->
      { entries = Hashtbl.length t.tbl
      ; hits = t.hits
      ; misses = t.misses
      ; corrupt_dropped = t.corrupt_dropped
      ; quarantined = t.quarantined
      ; journal_skipped = t.journal_skipped
      })

(* --- journal replay / compaction --- *)

(* Replay a journal file into the table.  Returns (gen, loaded,
   skipped); a missing or headerless file is (None, 0, 0).  Bad records
   — torn tail after a crash, bit flips, duplicate keys resolved by
   replace — never abort the replay. *)
let replay_file (t : t) (path : string) : int option * int * int =
  match Wal.read path parse_record with
  | None -> (None, 0, 0)
  | Some (first, records, skipped) -> begin
    match parse_header first with
    | None -> (None, 0, 0)
    | Some gen ->
      locked t (fun () ->
          List.iter (fun (k, d, p) -> Hashtbl.replace t.tbl k (d, p)) records);
      (Some gen, List.length records, skipped)
  end

(* Open (creating if needed) the journal for appending and remember the
   attachment, so subsequent [store]s are durable. *)
let open_wal (t : t) ~(dir : string) ~(gen : int) : unit =
  Option.iter Wal.close t.wal;
  t.dir <- Some dir;
  t.gen <- gen;
  let path = journal_file dir in
  t.wal <-
    (match Wal.open_ ~truncate:false ~header:(header gen) path with
     | w -> Some w
     | exception (Unix.Unix_error _ | Sys_error _) -> None)

(* Load persisted state from [dir] and attach the journal for appends:
   finish an interrupted compaction if the temp journal's generation is
   newer than the main one's, then replay the journal (none yet: start
   a fresh generation-0 one).  Returns the number of entries loaded. *)
let load (t : t) ~(dir : string) : int =
  Core.Crashbundle.mkdir_p dir;
  let main = journal_file dir and tmp = journal_tmp dir in
  (match (journal_gen tmp, journal_gen main) with
   | Some tg, Some mg when tg > mg ->
     (* crash between compaction write and rename: the temp snapshot is
        complete (it was fsynced before the rename was attempted) *)
     (try Sys.rename tmp main with Sys_error _ -> ())
   | Some _, None -> ( try Sys.rename tmp main with Sys_error _ -> ())
   | Some _, Some _ -> ( try Sys.remove tmp with Sys_error _ -> ())
   | None, _ -> if Sys.file_exists tmp then ( try Sys.remove tmp with Sys_error _ -> ()));
  let gen, loaded, skipped = replay_file t main in
  locked t (fun () -> t.journal_skipped <- t.journal_skipped + skipped);
  open_wal t ~dir ~gen:(Option.value gen ~default:0);
  loaded

(* Compact the journal: write a gen+1 snapshot of the live entries to a
   temp file, fsync it, and rename it over the main journal.  A crash
   at any point leaves either the old journal (temp discarded at next
   load) or the new one (rename finished, possibly by the next load).
   Called on clean shutdown; also the [flush] entry point.  Returns the
   journal path. *)
let flush (t : t) ~(dir : string) : (string, string) result =
  try
    Core.Crashbundle.mkdir_p dir;
    let tmp = journal_tmp dir in
    let next_gen = (if t.dir = Some dir then t.gen else 0) + 1 in
    let b = Buffer.create 4096 in
    Buffer.add_string b (header next_gen ^ "\n");
    locked t (fun () ->
        Hashtbl.iter
          (fun k (d, payload) ->
            Buffer.add_string b (Wal.seal (record_body k d payload)))
          t.tbl);
    let fd = Unix.openfile tmp [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Proto.write_all fd (Buffer.contents b);
        Unix.fsync fd);
    Sys.rename tmp (journal_file dir);
    (* appends after a compaction must land in the new journal *)
    open_wal t ~dir ~gen:next_gen;
    Ok (journal_file dir)
  with
  | Sys_error e -> Error (Printf.sprintf "cannot compact cache journal: %s" e)
  | Unix.Unix_error (e, _, _) ->
    Error
      (Printf.sprintf "cannot compact cache journal: %s" (Unix.error_message e))

let close (t : t) : unit =
  Option.iter Wal.close t.wal;
  t.wal <- None
