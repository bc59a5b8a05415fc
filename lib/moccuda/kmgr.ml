(* The kernel manager: compile-once cache over {!Kernels} sources with
   the full transpile pipeline behind every entry.

   Compilation path (no pass bypassed): Cudafe frontend ->
   {!Core.Passmgr.lower}, the driver's inner-serial recipe with the
   default pipeline options (the fault-tolerant barrier-lowering ladder,
   OpenMP lowering, canonicalization, verification; a degraded kernel is
   recorded on its entry) -> {!Runtime.Exec.compile}.  If the compiled
   engine rejects the lowered module ([Unsupported]), the entry degrades
   once more to the serial interpreter — the same rung the driver uses.

   Entries are keyed by the kernel's (name, shape), which {!Kernels}
   documents as its identity: the shape bakes every literal the source
   depends on.  An entry is built once and never changes; what runs is
   the closure [Exec.compile] built (or the lowered module, on the
   interpreter rung).  Every launch runs under a {!Runtime.Watchdog}
   deadline via [Exec.run ~timeout_ms]. *)

type engine =
  | Engine_compiled of Runtime.Exec.compiled
  | Engine_interp of Ir.Op.op
    (* Exec rejected this lowered module: serial-interpreter rung *)

type entry =
  { engine : engine
  ; erung : string (* "primary", "degraded:STAGE", "fallback"; "+interp" *)
  ; mutable elaunches : int
  ; mutable esecs : float
  }

type stats =
  { mutable compiles : int
  ; mutable hits : int
  ; mutable misses : int
  ; mutable degraded : int (* kernels that did not compile at Primary *)
  ; mutable interp_fallbacks : int
  ; mutable launches : int
  }

type t =
  { table : (string * int list, entry) Hashtbl.t
  ; domains : int
  ; stats : stats
  }

type kernel_info =
  { kname : string
  ; kshape : int list
  ; krung : string
  ; klaunches : int
  ; ksecs : float
  }

(* The watchdog bound of every launch. *)
let deadline_ms = 60_000

let create ?(domains = 4) () : t =
  { table = Hashtbl.create 32
  ; domains
  ; stats =
      { compiles = 0
      ; hits = 0
      ; misses = 0
      ; degraded = 0
      ; interp_fallbacks = 0
      ; launches = 0
      }
  }

let stats t = t.stats

let build (t : t) (k : Kernels.t) : entry =
  let m = Cudafe.Codegen.compile k.Kernels.src in
  let rung =
    match
      Core.Passmgr.lower ~source:k.Kernels.src
        ~repro:(Printf.sprintf "moccuda kernel %s" k.Kernels.name)
        (Core.Passmgr.Optimized Core.Omp_lower.default_options)
        m
    with
    | Ok r ->
      if r.Core.Passmgr.fell_back then "fallback"
      else begin
        match r.Core.Passmgr.degradations with
        | [] -> "primary"
        | d :: _ ->
          "degraded:" ^ d.Core.Passmgr.failure.Core.Passmgr.stage
      end
    | Error (_, msg) ->
      Interp.Mem.fail "moccuda: kernel %s: %s" k.Kernels.name msg
  in
  let engine, rung =
    match Runtime.Exec.compile m k.Kernels.entry with
    | c -> (Engine_compiled c, rung)
    | exception Runtime.Exec.Unsupported _ ->
      t.stats.interp_fallbacks <- t.stats.interp_fallbacks + 1;
      (Engine_interp m, rung ^ "+interp")
  in
  if not (String.equal rung "primary") then
    t.stats.degraded <- t.stats.degraded + 1;
  t.stats.compiles <- t.stats.compiles + 1;
  { engine; erung = rung; elaunches = 0; esecs = 0.0 }

let lookup (t : t) (k : Kernels.t) : entry =
  let key = (k.Kernels.name, k.Kernels.shape) in
  match Hashtbl.find_opt t.table key with
  | Some e ->
    t.stats.hits <- t.stats.hits + 1;
    e
  | None ->
    t.stats.misses <- t.stats.misses + 1;
    let e = build t k in
    Hashtbl.replace t.table key e;
    e

let launch (t : t) (k : Kernels.t) (args : Interp.Mem.rv list) : unit =
  let e = lookup t k in
  let t0 = Unix.gettimeofday () in
  (match e.engine with
   | Engine_compiled c ->
     ignore
       (Runtime.Exec.run ~domains:t.domains ~timeout_ms:deadline_ms c args)
   | Engine_interp m -> ignore (Interp.Eval.run m k.Kernels.entry args));
  e.esecs <- e.esecs +. (Unix.gettimeofday () -. t0);
  e.elaunches <- e.elaunches + 1;
  t.stats.launches <- t.stats.launches + 1

let kernels (t : t) : kernel_info list =
  Hashtbl.fold
    (fun (kname, kshape) e acc ->
      { kname
      ; kshape
      ; krung = e.erung
      ; klaunches = e.elaunches
      ; ksecs = e.esecs
      }
      :: acc)
    t.table []
  |> List.sort (fun a b ->
         match compare a.kname b.kname with
         | 0 -> compare a.kshape b.kshape
         | c -> c)

let stats_to_string (s : stats) : string =
  Printf.sprintf
    "kernels: %d compiles, %d hits, %d misses, %d degraded, %d interp \
     fallbacks, %d launches"
    s.compiles s.hits s.misses s.degraded s.interp_fallbacks s.launches
