(* The durable line log behind both of the daemon's journals: the
   artifact cache's write-ahead journal (cache-journal.v2) and the
   in-flight job journal (inflight.v1).

   A log is a header line followed by one record per line.  Every
   record is sealed: its body, a space, and the hex digest of the body,
   so a torn tail after a crash or a flipped bit fails its seal at
   replay and is skipped (and counted), never misread.  Every append is
   fsynced before it returns, so an appended record survives a
   SIGKILL.  What a header or a record body means is the caller's
   business. *)

let digest (s : string) : string = Digest.to_hex (Digest.string s)

let seal (body : string) : string = Printf.sprintf "%s %s\n" body (digest body)

(* The body of a sealed line, or [None] when the seal does not verify.
   The digest is hex, so the last space ends the body. *)
let unseal (line : string) : string option =
  match String.rindex_opt line ' ' with
  | None -> None
  | Some i ->
    let body = String.sub line 0 i in
    if digest body = String.sub line (i + 1) (String.length line - i - 1) then
      Some body
    else None

type t =
  { fd : Unix.file_descr
  ; m : Mutex.t (* appends race across domains *)
  }

(* Open the log at [path] for appending.  A missing file — or any file,
   with [truncate] — starts over with [header] as its first line,
   fsynced.  Raises [Unix.Unix_error] when the file cannot be opened. *)
let open_ ~(truncate : bool) ~(header : string) (path : string) : t =
  let fresh = truncate || not (Sys.file_exists path) in
  let mode = if truncate then Unix.O_TRUNC else Unix.O_APPEND in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; mode ] 0o644 in
  if fresh then begin
    Proto.write_all fd (header ^ "\n");
    Unix.fsync fd
  end;
  { fd; m = Mutex.create () }

(* Append one sealed record and fsync before returning.  A failed write
   (disk full, descriptor gone) loses the record, never the caller's
   operation. *)
let append (t : t) (body : string) : unit =
  Mutex.lock t.m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.m)
    (fun () ->
      try
        Proto.write_all t.fd (seal body);
        Unix.fsync t.fd
      with Unix.Unix_error _ | Sys_error _ -> ())

let close (t : t) : unit = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* Read the log at [path]: [None] when it cannot be read, else its
   header line, the records whose seal verifies and that [parse]
   accepts (in file order), and how many non-empty lines were dropped. *)
let read (path : string) (parse : string -> 'a option) :
  (string * 'a list * int) option =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
    let header, lines =
      match String.split_on_char '\n' text with
      | header :: lines -> (header, lines)
      | [] -> ("", [])
    in
    let records, skipped =
      List.fold_left
        (fun (records, skipped) line ->
          if line = "" then (records, skipped)
          else
            match Option.bind (unseal line) parse with
            | Some r -> (r :: records, skipped)
            | None -> (records, skipped + 1))
        ([], 0) lines
    in
    Some (header, List.rev records, skipped)
