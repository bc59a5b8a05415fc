(* Unit and property tests for the compile service's pure pieces:
   the retry/backoff policy (QCheck properties over policies and
   seeds), the wire protocol round trip, the content-addressed cache's
   never-serve-corruption guarantee, the circuit breaker's trip /
   half-open state machine, and the supervisor's fault wall driven
   in-process (no socket). *)

let reduce_src =
  {|__global__ void reduce(float* in, float* out, int n) {
  __shared__ float buf[64];
  int t = threadIdx.x;
  int i = blockIdx.x * 64 + t;
  if (i < n) buf[t] = in[i];
  else buf[t] = 0.0f;
  __syncthreads();
  for (int s = 32; s > 0; s = s / 2) {
    if (t < s) buf[t] = buf[t] + buf[t + s];
    __syncthreads();
  }
  if (t == 0) out[blockIdx.x] = buf[0];
}
void run(float* in, float* out, int n) {
  reduce<<<(n + 63) / 64, 64>>>(in, out, n);
}
|}

(* --- backoff: QCheck properties --- *)

let policy_gen =
  QCheck.Gen.(
    let* base_ms = int_range 0 200 in
    let* extra = int_range 0 2000 in
    let* max_retries = int_range 0 5 in
    return { Serve.Backoff.base_ms; cap_ms = base_ms + extra; max_retries })

let policy_arb =
  QCheck.make policy_gen ~print:(fun (p : Serve.Backoff.policy) ->
      Printf.sprintf "{base=%d; cap=%d; retries=%d}" p.base_ms p.cap_ms
        p.max_retries)

let seed_attempt_prev =
  QCheck.(
    triple (int_bound 1_000_000) (int_range 1 10) (int_bound 5000))

let test_delay_in_bounds =
  QCheck.Test.make ~name:"backoff: delay always within [base, cap]" ~count:500
    (QCheck.pair policy_arb seed_attempt_prev)
    (fun (p, (seed, attempt, prev_ms)) ->
      let d = Serve.Backoff.delay_ms p ~seed ~attempt ~prev_ms in
      d >= p.Serve.Backoff.base_ms && d <= p.Serve.Backoff.cap_ms)

let test_delay_deterministic =
  QCheck.Test.make ~name:"backoff: same inputs, same delay" ~count:500
    (QCheck.pair policy_arb seed_attempt_prev)
    (fun (p, (seed, attempt, prev_ms)) ->
      Serve.Backoff.delay_ms p ~seed ~attempt ~prev_ms
      = Serve.Backoff.delay_ms p ~seed ~attempt ~prev_ms)

(* A run of consecutive delays stays capped even when the previous
   delay feeds back in — the decorrelated-jitter recurrence must not
   escape the window. *)
let test_delay_sequence_capped =
  QCheck.Test.make ~name:"backoff: delay sequence respects the cap" ~count:200
    (QCheck.pair policy_arb (QCheck.int_bound 1_000_000))
    (fun (p, seed) ->
      let prev = ref p.Serve.Backoff.base_ms in
      let ok = ref true in
      for attempt = 1 to 8 do
        let d = Serve.Backoff.delay_ms p ~seed ~attempt ~prev_ms:!prev in
        if d < p.Serve.Backoff.base_ms || d > p.Serve.Backoff.cap_ms then
          ok := false;
        prev := d
      done;
      !ok)

let test_deterministic_never_retried =
  QCheck.Test.make ~name:"backoff: deterministic failures never retried"
    ~count:200
    (QCheck.pair policy_arb (QCheck.int_range 1 10))
    (fun (p, attempt) ->
      not (Serve.Backoff.retryable p Serve.Backoff.Deterministic ~attempt))

let test_transient_bounded =
  QCheck.Test.make ~name:"backoff: transient retries stop at max_retries"
    ~count:200
    (QCheck.pair policy_arb (QCheck.int_range 1 10))
    (fun (p, attempt) ->
      Serve.Backoff.retryable p Serve.Backoff.Transient ~attempt
      = (attempt <= p.Serve.Backoff.max_retries))

(* --- protocol round trips --- *)

let test_proto_roundtrip () =
  let job =
    { Serve.Proto.source = "line one\nline \"two\"\n\ttab"
    ; entry = Some "run"
    ; sizes = [ 128; 7 ]
    ; mode = "inner-parallel"
    ; exec = "parallel"
    ; domains = 3
    ; schedule = "dynamic"
    ; faults = "serve:raise,cpuify:corrupt"
    }
  in
  (match Serve.Proto.request_of_string
           (Serve.Proto.request_to_string ~id:7 (Serve.Proto.Submit job))
   with
   | Ok (7, Serve.Proto.Submit j) ->
     Alcotest.(check bool) "job round-trips" true (j = job)
   | _ -> Alcotest.fail "submit did not round-trip (with its id)");
  (match Serve.Proto.request_of_string
           (Serve.Proto.request_to_string Serve.Proto.Shutdown)
   with
   | Ok (0, Serve.Proto.Shutdown) -> ()
   | _ -> Alcotest.fail "shutdown did not round-trip");
  let outcome =
    { Serve.Proto.exit_code = 1
    ; checksum = "4.28806987e+14"
    ; cached = true
    ; retries = 2
    ; breaker = false
    ; log = "several\nlines\n"
    }
  in
  List.iter
    (fun resp ->
      match
        Serve.Proto.response_of_string
          (Serve.Proto.response_to_string ~id:9 resp)
      with
      | Ok (id, r) ->
        Alcotest.(check int) "response echoes the id" 9 id;
        Alcotest.(check bool) "response round-trips" true (r = resp)
      | Error e -> Alcotest.fail ("response parse failed: " ^ e))
    [ Serve.Proto.Done outcome
    ; Serve.Proto.Overloaded { depth = 32; cap = 32 }
    ; Serve.Proto.Rejected "draining"
    ];
  (match Serve.Proto.request_of_string "polygeist-serve/9 nonsense\n" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unknown request kind must be rejected")

(* Version-1 frames (no id line) never left this repo: every v1 head,
   request or response, is refused with a typed [Error], never an
   exception. *)
let test_proto_v1_rejected () =
  let job =
    { Serve.Proto.source = "__global__ void k() {}\n"
    ; entry = None
    ; sizes = []
    ; mode = "inner-serial"
    ; exec = "interp"
    ; domains = 2
    ; schedule = "static"
    ; faults = ""
    }
  in
  let o =
    { Serve.Proto.exit_code = 0
    ; checksum = "1.5"
    ; cached = false
    ; retries = 0
    ; breaker = false
    ; log = "ok\n"
    }
  in
  let rejected what parse frame =
    match parse frame with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "v1 %s frame was accepted" what
    | exception e ->
      Alcotest.failf "v1 %s frame raised %s" what (Printexc.to_string e)
  in
  rejected "submit" Serve.Proto.request_of_string
    ("polygeist-serve/1 submit\n" ^ Serve.Proto.job_to_string job);
  rejected "shutdown" Serve.Proto.request_of_string
    "polygeist-serve/1 shutdown\n";
  rejected "done" Serve.Proto.response_of_string
    ("polygeist-serve/1 done\n" ^ Serve.Proto.outcome_to_string o);
  rejected "overloaded" Serve.Proto.response_of_string
    "polygeist-serve/1 overloaded\ndepth=1\ncap=1\n";
  rejected "rejected" Serve.Proto.response_of_string
    "polygeist-serve/1 rejected\nwhy=draining\n";
  (* the id lives in the response envelope, NOT the cached artifact *)
  Alcotest.(check bool) "outcome payload has no id field" true
    (not
       (String.split_on_char '\n' (Serve.Proto.outcome_to_string o)
        |> List.exists (fun l ->
            String.length l >= 3 && String.sub l 0 3 = "id=")))

(* A submit frame whose integers do not parse, or whose names the job
   decode does not know, is a typed [Error], never a silent default;
   absent fields still take [default_job]'s values. *)
let test_proto_malformed_job () =
  let frame fields =
    "polygeist-serve/2 submit\nid=1\n"
    ^ String.concat "" (List.map (fun (k, v) -> k ^ "=" ^ v ^ "\n") fields)
    ^ "source=k\n"
  in
  List.iter
    (fun field ->
      match Serve.Proto.request_of_string (frame [ field ]) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "frame with %s=%s accepted" (fst field) (snd field)
      | exception e ->
        Alcotest.failf "frame with %s=%s raised %s" (fst field) (snd field)
          (Printexc.to_string e))
    [ ("sizes", "12,x,3")
    ; ("domains", "abc")
    ; ("domains", "0")
    ; ("domains", "300")
    ; ("mode", "inner-paralel")
    ; ("exec", "interpp")
    ; ("schedule", "dynamc")
    ; ("faults", "serve:raze")
    ];
  match Serve.Proto.request_of_string (frame []) with
  | Ok (1, Serve.Proto.Submit j) ->
    Alcotest.(check bool) "absent fields take the defaults" true
      (j = { Serve.Proto.default_job with source = "k" })
  | _ -> Alcotest.fail "a frame with only a source was refused"

(* --- cache: content addressing and corruption eviction --- *)

let test_cache_corruption () =
  let c = Serve.Cache.create () in
  let k = Serve.Cache.key ~source:"src" ~flags:"flags" in
  Alcotest.(check (option string)) "empty cache misses" None (Serve.Cache.find c k);
  Serve.Cache.store c k "payload-bytes";
  Alcotest.(check (option string)) "stored artifact found"
    (Some "payload-bytes") (Serve.Cache.find c k);
  Alcotest.(check bool) "corrupt hook flips the artifact" true
    (Serve.Cache.corrupt c k);
  Alcotest.(check (option string)) "corrupt artifact is NEVER served" None
    (Serve.Cache.find c k);
  let s = Serve.Cache.stats c in
  Alcotest.(check int) "corruption counted" 1 s.Serve.Cache.corrupt_dropped;
  Alcotest.(check int) "entry dropped" 0 s.Serve.Cache.entries;
  (* distinct flags must give distinct keys *)
  Alcotest.(check bool) "flags are part of the key" true
    (Serve.Cache.key ~source:"s" ~flags:"a"
     <> Serve.Cache.key ~source:"s" ~flags:"b")

let fresh_tmp_dir () =
  let dir = Filename.temp_file "serve" ".cache" in
  Sys.remove dir;
  dir

(* The write-ahead property: a store is on disk the moment [store]
   returns — no flush, no clean shutdown.  Closing the cache without
   compacting stands in for SIGKILL. *)
let test_cache_wal_durability () =
  let dir = fresh_tmp_dir () in
  let c = Serve.Cache.create () in
  Alcotest.(check int) "fresh dir loads empty" 0 (Serve.Cache.load c ~dir);
  Serve.Cache.store c "k1" "payload one";
  Serve.Cache.store c "k2" "payload\ntwo with spaces";
  Serve.Cache.close c (* no flush: the journal alone must carry both *);
  let c2 = Serve.Cache.create () in
  Alcotest.(check int) "journal replay recovers unflushed stores" 2
    (Serve.Cache.load c2 ~dir);
  Alcotest.(check (option string)) "replayed payload verifies"
    (Some "payload\ntwo with spaces")
    (Serve.Cache.find c2 "k2");
  Serve.Cache.close c2;
  (* compaction on clean shutdown: flush rewrites, nothing is lost *)
  let c3 = Serve.Cache.create () in
  ignore (Serve.Cache.load c3 ~dir);
  (match Serve.Cache.flush c3 ~dir with
   | Ok _ -> ()
   | Error e -> Alcotest.fail ("compaction failed: " ^ e));
  Serve.Cache.close c3;
  let c4 = Serve.Cache.create () in
  Alcotest.(check int) "compacted journal still holds both" 2
    (Serve.Cache.load c4 ~dir);
  Serve.Cache.close c4

(* A SIGKILL mid-append leaves a torn final record: replay must keep
   every complete record, skip (and count) the torn one. *)
let test_cache_journal_truncation () =
  let dir = fresh_tmp_dir () in
  let c = Serve.Cache.create () in
  ignore (Serve.Cache.load c ~dir);
  Serve.Cache.store c "k1" "first payload";
  Serve.Cache.store c "k2" "second payload";
  Serve.Cache.close c;
  let path = Filename.concat dir "cache-journal.v2" in
  let text = In_channel.with_open_bin path In_channel.input_all in
  (* chop the file mid-way through the last record *)
  let cut = String.length text - 7 in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub text 0 cut));
  let c2 = Serve.Cache.create () in
  Alcotest.(check int) "complete records survive the torn tail" 1
    (Serve.Cache.load c2 ~dir);
  let s = Serve.Cache.stats c2 in
  Alcotest.(check bool) "torn record counted as skipped" true
    (s.Serve.Cache.journal_skipped >= 1);
  Serve.Cache.close c2;
  (* a bit flip inside a record (not just truncation) is also dropped *)
  let dir2 = fresh_tmp_dir () in
  let c3 = Serve.Cache.create () in
  ignore (Serve.Cache.load c3 ~dir:dir2);
  Serve.Cache.store c3 "ka" "aaaa";
  Serve.Cache.store c3 "kb" "bbbb";
  Serve.Cache.close c3;
  let path2 = Filename.concat dir2 "cache-journal.v2" in
  let text2 = In_channel.with_open_bin path2 In_channel.input_all in
  let b = Bytes.of_string text2 in
  (* flip a byte in the middle of the first record's payload *)
  let pos = String.index text2 '\n' + 40 in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x01));
  Out_channel.with_open_bin path2 (fun oc ->
      Out_channel.output_string oc (Bytes.to_string b));
  let c4 = Serve.Cache.create () in
  Alcotest.(check int) "bit-flipped record dropped, sibling loads" 1
    (Serve.Cache.load c4 ~dir:dir2);
  Alcotest.(check int) "replayed cache passes verify_all" 0
    (Serve.Cache.verify_all c4);
  Serve.Cache.close c4

(* Replay is idempotent: re-storing a key appends again, and duplicate
   records collapse to the last write at replay. *)
let test_cache_journal_duplicates () =
  let dir = fresh_tmp_dir () in
  let c = Serve.Cache.create () in
  ignore (Serve.Cache.load c ~dir);
  Serve.Cache.store c "k" "version one";
  Serve.Cache.store c "k" "version two";
  Serve.Cache.store c "k" "version two" (* identical duplicate append *);
  Serve.Cache.close c;
  let c2 = Serve.Cache.create () in
  ignore (Serve.Cache.load c2 ~dir);
  let s = Serve.Cache.stats c2 in
  Alcotest.(check int) "duplicate appends collapse to one entry" 1
    s.Serve.Cache.entries;
  Alcotest.(check (option string)) "last write wins" (Some "version two")
    (Serve.Cache.find c2 "k");
  Serve.Cache.close c2

(* Generation handling around compaction crashes: a temp journal NEWER
   than the main one is a finished-but-unrenamed compaction and must be
   promoted; a temp at or below the main generation is stale debris and
   must be discarded. *)
let test_cache_journal_generations () =
  let dir = fresh_tmp_dir () in
  let c = Serve.Cache.create () in
  ignore (Serve.Cache.load c ~dir);
  Serve.Cache.store c "old" "old payload";
  (match Serve.Cache.flush c ~dir with
   | Ok _ -> () (* journal is now gen 1 *)
   | Error e -> Alcotest.fail ("flush failed: " ^ e));
  Serve.Cache.close c;
  let main = Filename.concat dir "cache-journal.v2" in
  let tmp = main ^ ".tmp" in
  (* stale temp (gen 0 < main's gen): must be removed, main replayed *)
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_string oc
        "polygeist-serve cache journal v2 gen=0\ngarbage\n");
  let c2 = Serve.Cache.create () in
  Alcotest.(check int) "stale temp ignored, main journal replayed" 1
    (Serve.Cache.load c2 ~dir);
  Alcotest.(check bool) "stale temp deleted" false (Sys.file_exists tmp);
  Serve.Cache.close c2;
  (* newer temp (interrupted compaction): build a genuine gen-9 snapshot
     in a scratch cache, park it as the temp, and expect promotion *)
  let scratch_dir = fresh_tmp_dir () in
  let sc = Serve.Cache.create () in
  ignore (Serve.Cache.load sc ~dir:scratch_dir);
  Serve.Cache.store sc "new" "new payload";
  Serve.Cache.close sc;
  let scratch = Filename.concat scratch_dir "cache-journal.v2" in
  let text = In_channel.with_open_bin scratch In_channel.input_all in
  let bumped =
    "polygeist-serve cache journal v2 gen=9\n"
    ^ String.concat "\n"
        (List.tl (String.split_on_char '\n' text))
  in
  Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc bumped);
  let c3 = Serve.Cache.create () in
  Alcotest.(check int) "interrupted compaction promoted" 1
    (Serve.Cache.load c3 ~dir);
  Alcotest.(check (option string)) "promoted snapshot's entry served"
    (Some "new payload")
    (Serve.Cache.find c3 "new");
  Alcotest.(check (option string)) "pre-compaction entry superseded" None
    (Serve.Cache.find c3 "old");
  Serve.Cache.close c3

(* The flush-on-shutdown cache-index.v1 format never left this repo: a
   directory holding only one loads nothing and starts a fresh journal,
   and a store made after that load survives a reload. *)
let test_cache_v1_index_ignored () =
  let dir = fresh_tmp_dir () in
  Sys.mkdir dir 0o755;
  let payload = "legacy payload\nwith a second line" in
  let d = Digest.to_hex (Digest.string payload) in
  Out_channel.with_open_text (Filename.concat dir "cache-index.v1") (fun oc ->
      Out_channel.output_string oc
        (Printf.sprintf "polygeist-serve cache index v1\n%s %s %s\n" "oldkey" d
           (String.escaped payload)));
  let c = Serve.Cache.create () in
  Alcotest.(check int) "v1 index loads nothing" 0 (Serve.Cache.load c ~dir);
  Alcotest.(check (option string)) "v1 entry not served" None
    (Serve.Cache.find c "oldkey");
  Serve.Cache.store c "newkey" "journaled";
  Serve.Cache.close c;
  let c2 = Serve.Cache.create () in
  Alcotest.(check int) "the later store reloads" 1 (Serve.Cache.load c2 ~dir);
  Alcotest.(check (option string)) "the later store is served"
    (Some "journaled") (Serve.Cache.find c2 "newkey");
  Serve.Cache.close c2

(* Corrupt artifacts are quarantined on disk, not silently dropped. *)
let test_cache_quarantine () =
  let dir = fresh_tmp_dir () in
  let c = Serve.Cache.create () in
  ignore (Serve.Cache.load c ~dir);
  let k = Serve.Cache.key ~source:"src" ~flags:"flags" in
  Serve.Cache.store c k "soon to rot";
  Alcotest.(check bool) "corrupt hook flips the artifact" true
    (Serve.Cache.corrupt c k);
  Alcotest.(check (option string)) "corrupt artifact not served" None
    (Serve.Cache.find c k);
  let s = Serve.Cache.stats c in
  Alcotest.(check int) "quarantine counted in stats" 1
    s.Serve.Cache.quarantined;
  let qdir = Filename.concat dir "quarantine" in
  Alcotest.(check bool) "quarantine dir holds the evidence" true
    (Sys.file_exists qdir && Array.length (Sys.readdir qdir) = 1);
  Serve.Cache.close c

(* Property: whatever bytes go through [store], a fresh replay of the
   journal serves them all back verbatim — spaces, newlines, quotes,
   binary escapes included. *)
let test_wal_replay_roundtrip =
  QCheck.Test.make ~name:"cache journal: replay serves every stored payload"
    ~count:20
    QCheck.(small_list (string_of_size (QCheck.Gen.int_range 0 64)))
    (fun payloads ->
      let dir = fresh_tmp_dir () in
      let c = Serve.Cache.create () in
      ignore (Serve.Cache.load c ~dir);
      List.iteri
        (fun i p ->
          Serve.Cache.store c
            (Serve.Cache.key ~source:p ~flags:(string_of_int i))
            p)
        payloads;
      Serve.Cache.close c;
      let c2 = Serve.Cache.create () in
      ignore (Serve.Cache.load c2 ~dir);
      let ok =
        List.mapi
          (fun i p ->
            Serve.Cache.find c2
              (Serve.Cache.key ~source:p ~flags:(string_of_int i))
            = Some p)
          payloads
        |> List.for_all Fun.id
      in
      Serve.Cache.close c2;
      ok)

(* The journals' bytes, pinned: both journals share one log
   implementation, and neither format may drift.  Covers payloads with
   spaces, newlines, quotes and a tab, an empty payload, a re-store, the
   in-flight S/E records and one compaction. *)
let test_journal_bytes () =
  let dir = fresh_tmp_dir () in
  let c = Serve.Cache.create () in
  ignore (Serve.Cache.load c ~dir);
  let key = Serve.Cache.key ~source:"s" ~flags:"f" in
  Serve.Cache.store c "k1" "a payload with spaces";
  Serve.Cache.store c "k2" "two\nlines \"quoted\"\tand a tab";
  Serve.Cache.store c key "";
  Serve.Cache.store c "k1" "rewritten";
  (match Serve.Journal.open_ ~dir with
   | Error e -> Alcotest.fail e
   | Ok j ->
     Serve.Journal.start j ~id:7 ~digest:key;
     Serve.Journal.start j ~id:8 ~digest:"d8";
     Serve.Journal.finish j ~id:7 ~status:"done";
     Serve.Journal.close j);
  let read f =
    In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all
  in
  Alcotest.(check string) "cache journal"
    {|polygeist-serve cache journal v2 gen=0
A k1 f2437a1fe9a41c72b0b52d754d8dc7a1 a payload with spaces 1250306e330951be96c0d1681add49cc
A k2 026efa40e43410631d0e173f0dcb70a5 two\nlines \"quoted\"\tand a tab 224604d9deefaf3594bf66d86909506e
A c182685806a59845119bdf70f970d0cc d41d8cd98f00b204e9800998ecf8427e  36a2947726114a3e3366daffc5ce1cd4
A k1 5462c0d7089829913124388c51ef6d67 rewritten dcfd90d37c468856944aab10fe80913d
|}
    (read "cache-journal.v2");
  Alcotest.(check string) "in-flight journal"
    {|polygeist-serve inflight journal v1
S 7 c182685806a59845119bdf70f970d0cc 3c2098dc0a58a2f0f19f30dcb64535c2
S 8 d8 ab2fa54f0238b198c2841aa8aa142689
E 7 done d281ef8df7d96465758dfa379b5af5e6
|}
    (read "inflight.v1");
  (match Serve.Cache.flush c ~dir with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  Serve.Cache.close c;
  Alcotest.(check string) "compacted cache journal"
    {|polygeist-serve cache journal v2 gen=1
A c182685806a59845119bdf70f970d0cc d41d8cd98f00b204e9800998ecf8427e  36a2947726114a3e3366daffc5ce1cd4
A k2 026efa40e43410631d0e173f0dcb70a5 two\nlines \"quoted\"\tand a tab 224604d9deefaf3594bf66d86909506e
A k1 5462c0d7089829913124388c51ef6d67 rewritten dcfd90d37c468856944aab10fe80913d
|}
    (read "cache-journal.v2")

(* --- the in-flight job journal --- *)

let test_inflight_journal () =
  let dir = fresh_tmp_dir () in
  (match Serve.Journal.open_ ~dir with
   | Error e -> Alcotest.fail ("journal open failed: " ^ e)
   | Ok j ->
     Serve.Journal.start j ~id:1 ~digest:"d-one";
     Serve.Journal.start j ~id:2 ~digest:"d-two";
     Serve.Journal.start j ~id:3 ~digest:"d-three";
     Serve.Journal.finish j ~id:2 ~status:"done";
     Serve.Journal.close j (* no E for 1 and 3: a SIGKILL here *));
  let r = Serve.Journal.recover ~dir in
  Alcotest.(check (list (pair int string)))
    "exactly the unanswered tickets are lost"
    [ (1, "d-one"); (3, "d-three") ]
    r.Serve.Journal.lost;
  Alcotest.(check int) "completed records counted" 1
    r.Serve.Journal.completed;
  (* a torn final record is skipped, not misread *)
  let path = Filename.concat dir "inflight.v1" in
  let text = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub text 0 (String.length text - 5)));
  let r2 = Serve.Journal.recover ~dir in
  Alcotest.(check bool) "torn record skipped" true
    (r2.Serve.Journal.skipped >= 1);
  Alcotest.(check (list (pair int string)))
    "torn E for ticket 2 resurfaces it as lost"
    [ (1, "d-one"); (2, "d-two"); (3, "d-three") ]
    r2.Serve.Journal.lost;
  (* re-opening starts a fresh generation: old flights are not replayed *)
  (match Serve.Journal.open_ ~dir with
   | Error e -> Alcotest.fail ("journal re-open failed: " ^ e)
   | Ok j -> Serve.Journal.close j);
  let r3 = Serve.Journal.recover ~dir in
  Alcotest.(check (list (pair int string))) "open_ truncates" []
    r3.Serve.Journal.lost

(* --- circuit breaker state machine --- *)

let test_breaker () =
  let module B = Serve.Supervisor.Breaker in
  let b = B.create () in
  let h = "deadbeef" in
  let repeat n f = for _ = 1 to n do f () done in
  let fail () = B.record_failure b h in
  let recover () = B.record_success b h ~conservative:true in
  Alcotest.(check bool) "fresh source not tripped" false (B.tripped b h);
  repeat (Serve.Supervisor.breaker_threshold - 1) fail;
  (* a success between failures resets the streak *)
  B.record_success b h ~conservative:false;
  repeat (Serve.Supervisor.breaker_threshold - 1) fail;
  Alcotest.(check bool) "streak below threshold" false (B.tripped b h);
  fail ();
  Alcotest.(check bool) "threshold consecutive failures trip" true
    (B.tripped b h);
  (* half-open: conservative successes untrip after [recovery] in a row *)
  repeat (Serve.Supervisor.breaker_recovery - 1) recover;
  Alcotest.(check bool) "one success short of recovery stays tripped" true
    (B.tripped b h);
  recover ();
  Alcotest.(check bool) "recovery streak untrips" false (B.tripped b h);
  Alcotest.(check bool) "other sources unaffected" false (B.tripped b "other")

(* --- the supervisor fault wall, driven in-process --- *)

let sup_config ~crash_dir =
  { Serve.Supervisor.default_config with
    deadline_ms = 2000
  ; crash_dir
  ; backoff = { Serve.Backoff.default with base_ms = 1; cap_ms = 5 }
  }

let mk_job ?(faults = "") ?(exec = "interp") () =
  { Serve.Proto.source = reduce_src
  ; entry = Some "run"
  ; sizes = [ 128 ]
  ; mode = "inner-serial"
  ; exec
  ; domains = 2
  ; schedule = "static"
  ; faults
  }

let test_supervisor_clean_and_cached () =
  let t = Serve.Supervisor.create (sup_config ~crash_dir:None) in
  let cache = Serve.Cache.create () in
  let o1 =
    Serve.Supervisor.run_job t ~cache ~queue_depth:0 ~job_id:0 (mk_job ())
  in
  Alcotest.(check int) "clean job exits 0" 0 o1.Serve.Proto.exit_code;
  Alcotest.(check bool) "cold run not cached" false o1.Serve.Proto.cached;
  Alcotest.(check bool) "a checksum was computed" true
    (o1.Serve.Proto.checksum <> "-");
  let o2 =
    Serve.Supervisor.run_job t ~cache ~queue_depth:0 ~job_id:1 (mk_job ())
  in
  Alcotest.(check bool) "second run served from cache" true
    o2.Serve.Proto.cached;
  Alcotest.(check string) "cached checksum is bit-identical"
    o1.Serve.Proto.checksum o2.Serve.Proto.checksum

let test_supervisor_serve_faults () =
  let dir = Filename.temp_file "serve" ".crash" in
  Sys.remove dir;
  let t = Serve.Supervisor.create (sup_config ~crash_dir:(Some dir)) in
  let cache = Serve.Cache.create () in
  let clean =
    Serve.Supervisor.run_job t ~cache ~queue_depth:0 ~job_id:0 (mk_job ())
  in
  List.iteri
    (fun i kind ->
      let o =
        Serve.Supervisor.run_job t ~cache ~queue_depth:1 ~job_id:(i + 1)
          (mk_job ~faults:("serve:" ^ kind) ())
      in
      (* the injection is one-shot: the first attempt dies (and writes
         a bundle), the retry succeeds with the clean checksum *)
      Alcotest.(check int) (kind ^ ": retried once") 1 o.Serve.Proto.retries;
      Alcotest.(check int) (kind ^ ": job recovers") 0 o.Serve.Proto.exit_code;
      Alcotest.(check string) (kind ^ ": checksum matches clean run")
        clean.Serve.Proto.checksum o.Serve.Proto.checksum;
      Alcotest.(check bool) (kind ^ ": poisoned job never cached") false
        o.Serve.Proto.cached)
    [ "raise"; "corrupt"; "exhaust"; "hang" ];
  let bundles = Array.to_list (Sys.readdir dir) in
  Alcotest.(check int) "exactly one bundle per poisoned job" 4
    (List.length bundles);
  List.iter
    (fun f ->
      match Core.Crashbundle.read (Filename.concat dir f) with
      | Error e -> Alcotest.fail ("unreadable bundle " ^ f ^ ": " ^ e)
      | Ok b ->
        Alcotest.(check string) "bundle rung" "serve" b.Core.Crashbundle.rung;
        match b.kind with
        | Serve s ->
          Alcotest.(check int) "queue depth recorded" 1 s.queue_depth
        | _ -> Alcotest.fail "bundle is not of kind serve")
    bundles

let test_supervisor_deterministic_failure () =
  let t = Serve.Supervisor.create (sup_config ~crash_dir:None) in
  let cache = Serve.Cache.create () in
  let o =
    Serve.Supervisor.run_job t ~cache ~queue_depth:0 ~job_id:0
      { (mk_job ()) with Serve.Proto.source = "this is not CUDA" }
  in
  Alcotest.(check int) "parse error fails the job" 2 o.Serve.Proto.exit_code;
  Alcotest.(check int) "deterministic failure is NOT retried" 0
    o.Serve.Proto.retries

(* The settings the job decode refuses: each job is answered at once
   with a typed exit-2 outcome — no exception, no retry, no crash
   bundle — and spawns nothing, so a domain can still be spawned. *)
let test_supervisor_invalid_jobs () =
  let dir = Filename.temp_file "serve" ".crash" in
  Sys.remove dir;
  let t = Serve.Supervisor.create (sup_config ~crash_dir:(Some dir)) in
  let cache = Serve.Cache.create () in
  let job = mk_job ~exec:"parallel" () in
  List.iteri
    (fun i (what, job) ->
      match Serve.Supervisor.run_job t ~cache ~queue_depth:0 ~job_id:i job with
      | exception e ->
        Alcotest.failf "%s: run_job raised %s" what (Printexc.to_string e)
      | o ->
        Alcotest.(check int) (what ^ ": exit 2") 2 o.Serve.Proto.exit_code;
        Alcotest.(check int) (what ^ ": not retried") 0 o.Serve.Proto.retries;
        Alcotest.(check bool) (what ^ ": an invalid job") true
          (String.starts_with ~prefix:"job failed: invalid job: "
             o.Serve.Proto.log))
    [ ("domains 300", { job with domains = 300 })
    ; ("domains 0", { job with domains = 0 })
    ; ("mode typo", { job with mode = "inner-paralel" })
    ; ("exec typo", { job with exec = "interpp" })
    ; ("schedule typo", { job with schedule = "dynamc" })
    ];
  Alcotest.(check bool) "no crash bundle" false (Sys.file_exists dir);
  Domain.join (Domain.spawn ignore)

let test_supervisor_breaker_trip () =
  let t =
    Serve.Supervisor.create
      { (sup_config ~crash_dir:None) with
        backoff = { Serve.Backoff.base_ms = 1; cap_ms = 2; max_retries = 0 }
      }
  in
  let cache = Serve.Cache.create () in
  let threshold = Serve.Supervisor.breaker_threshold in
  (* a source that keeps dying in the serving layer: no retries, so
     each submission is one failed attempt *)
  for i = 0 to threshold - 1 do
    let o =
      Serve.Supervisor.run_job t ~cache ~queue_depth:0 ~job_id:i
        (mk_job ~faults:"serve:raise" ())
    in
    Alcotest.(check int) "poisoned job fails" 2 o.Serve.Proto.exit_code
  done;
  Alcotest.(check int) "breaker tripped after the threshold" 1
    (Serve.Supervisor.breaker_trips t);
  (* the same source, now clean: served conservatively via the breaker *)
  let o =
    Serve.Supervisor.run_job t ~cache ~queue_depth:0 ~job_id:threshold
      (mk_job ())
  in
  Alcotest.(check bool) "served via the breaker" true o.Serve.Proto.breaker;
  Alcotest.(check int) "conservative service is degraded" 1
    o.Serve.Proto.exit_code

(* --- executor fleet: wedge detection and replacement --- *)

let test_fleet_wedge_replaced () =
  let dir = Filename.temp_file "serve" ".crash" in
  Sys.remove dir;
  let t =
    Serve.Server.create
      { Serve.Server.queue_cap = 16
      ; cache_dir = None
      ; executors = 2
      ; executor_deadline_ms = 400
      ; sup =
          { Serve.Supervisor.default_config with
            deadline_ms = 5000
          ; crash_dir = Some dir
          ; backoff = { Serve.Backoff.base_ms = 1; cap_ms = 2; max_retries = 0 }
          }
      }
  in
  let submit job =
    match Serve.Server.submit t job with
    | `Ticket tk -> tk
    | `Overloaded _ | `Draining -> Alcotest.fail "submit rejected"
  in
  let wedged = submit (mk_job ~faults:"executor:hang" ()) in
  let clean = submit (mk_job ()) in
  Serve.Server.drain t;
  (match Serve.Server.peek wedged with
   | None -> Alcotest.fail "wedged ticket never answered"
   | Some o ->
     Alcotest.(check int) "wedged ticket fails" 2 o.Serve.Proto.exit_code;
     Alcotest.(check bool) "failure names the wedge" true
       (let log = o.Serve.Proto.log in
        let needle = "wedged" in
        let n = String.length needle and l = String.length log in
        let rec scan i =
          i + n <= l && (String.sub log i n = needle || scan (i + 1))
        in
        scan 0));
  (match Serve.Server.peek clean with
   | None -> Alcotest.fail "clean ticket never answered"
   | Some o ->
     Alcotest.(check int) "clean job survives the wedge next door" 0
       o.Serve.Proto.exit_code);
  Alcotest.(check bool) "the wedged incarnation was killed" true
    (Serve.Server.executor_kills t >= 1);
  (* the monitor's kill wrote a rung="serve" bundle for the wedge *)
  let bundles = if Sys.file_exists dir then Sys.readdir dir else [||] in
  Alcotest.(check bool) "wedge produced a crash bundle" true
    (Array.length bundles >= 1)

let tests =
  [ QCheck_alcotest.to_alcotest test_delay_in_bounds
  ; QCheck_alcotest.to_alcotest test_delay_deterministic
  ; QCheck_alcotest.to_alcotest test_delay_sequence_capped
  ; QCheck_alcotest.to_alcotest test_deterministic_never_retried
  ; QCheck_alcotest.to_alcotest test_transient_bounded
  ; Alcotest.test_case "protocol round trips" `Quick test_proto_roundtrip
  ; Alcotest.test_case "protocol v1 frames rejected" `Quick
      test_proto_v1_rejected
  ; Alcotest.test_case "protocol: malformed job fields rejected" `Quick
      test_proto_malformed_job
  ; Alcotest.test_case "cache never serves corruption" `Quick
      test_cache_corruption
  ; Alcotest.test_case "cache journal: stores durable without flush" `Quick
      test_cache_wal_durability
  ; Alcotest.test_case "cache journal: torn tail and bit flips dropped"
      `Quick test_cache_journal_truncation
  ; Alcotest.test_case "cache journal: duplicate appends idempotent" `Quick
      test_cache_journal_duplicates
  ; Alcotest.test_case "cache journal: compaction generations" `Quick
      test_cache_journal_generations
  ; Alcotest.test_case "cache: legacy v1 index ignored" `Quick
      test_cache_v1_index_ignored
  ; Alcotest.test_case "cache: corrupt artifacts quarantined on disk" `Quick
      test_cache_quarantine
  ; QCheck_alcotest.to_alcotest test_wal_replay_roundtrip
  ; Alcotest.test_case "journals: bytes pinned" `Quick test_journal_bytes
  ; Alcotest.test_case "in-flight journal: lost tickets recovered" `Quick
      test_inflight_journal
  ; Alcotest.test_case "fleet: wedged executor killed, work rerouted" `Quick
      test_fleet_wedge_replaced
  ; Alcotest.test_case "circuit breaker trip and half-open recovery" `Quick
      test_breaker
  ; Alcotest.test_case "supervisor: clean job, then bit-identical cache hit"
      `Quick test_supervisor_clean_and_cached
  ; Alcotest.test_case "supervisor: every serve:* fault contained + bundled"
      `Quick test_supervisor_serve_faults
  ; Alcotest.test_case "supervisor: deterministic failures not retried"
      `Quick test_supervisor_deterministic_failure
  ; Alcotest.test_case "supervisor: circuit breaker degrades hot failures"
      `Quick test_supervisor_breaker_trip
  ; Alcotest.test_case "supervisor: invalid jobs answered, nothing spawned"
      `Quick test_supervisor_invalid_jobs
  ]
