(* The kernel manager: compile-once cache over {!Kernels} sources with
   the full transpile pipeline behind every entry.

   Compilation path (no pass bypassed): Cudafe frontend ->
   {!Core.Passmgr.lower}, the driver's inner-serial recipe (the
   fault-tolerant barrier-lowering ladder, OpenMP lowering,
   canonicalization, verification; a degraded kernel is recorded on
   its entry) -> {!Runtime.Exec.compile}.  If the compiled engine
   rejects the lowered module ([Unsupported]), the entry degrades once
   more to the serial interpreter — the same rung the driver uses.

   Cache discipline follows [Serve.Cache]: entries are keyed by an MD5
   digest of (op name, baked shape, entry, pipeline options), sealed
   with a digest of the lowered IR text, and the seal is re-verified on
   every hit — a corrupt entry is dropped, counted, and recompiled
   rather than trusted.  Every launch runs under a
   {!Runtime.Watchdog} deadline via [Exec.run ~timeout_ms]. *)

type engine =
  | Engine_compiled of Runtime.Exec.compiled
  | Engine_interp (* Exec rejected the lowered IR: serial-interpreter rung *)

type entry =
  { ename : string
  ; eshape : int list
  ; modul : Ir.Op.op
  ; engine : engine
  ; seal : string (* digest of the lowered IR text, checked per hit *)
  ; erung : string (* "primary", "degraded:STAGE", "fallback"; "+interp" *)
  ; mutable elaunches : int
  ; mutable esecs : float
  }

type stats =
  { mutable compiles : int
  ; mutable hits : int
  ; mutable misses : int
  ; mutable corrupt_dropped : int
  ; mutable degraded : int (* kernels that did not compile at Primary *)
  ; mutable interp_fallbacks : int
  ; mutable launches : int
  }

type t =
  { table : (string, entry) Hashtbl.t
  ; options : Core.Cpuify.options
  ; domains : int
  ; deadline_ms : int
  ; stats : stats
  }

type kernel_info =
  { kname : string
  ; kshape : int list
  ; krung : string
  ; klaunches : int
  ; ksecs : float
  }

let create ?(domains = 4) ?(deadline_ms = 60_000)
    ?(options = Core.Cpuify.default_options) () : t =
  { table = Hashtbl.create 32
  ; options
  ; domains
  ; deadline_ms
  ; stats =
      { compiles = 0
      ; hits = 0
      ; misses = 0
      ; corrupt_dropped = 0
      ; degraded = 0
      ; interp_fallbacks = 0
      ; launches = 0
      }
  }

let stats t = t.stats
let domains t = t.domains

let options_tag (o : Core.Cpuify.options) : string =
  Printf.sprintf "mincut=%b;belim=%b;mem2reg=%b;licm=%b;budget=%d"
    o.Core.Cpuify.opt_mincut o.Core.Cpuify.opt_barrier_elim
    o.Core.Cpuify.opt_mem2reg o.Core.Cpuify.opt_licm
    o.Core.Cpuify.opt_budget

(* op + shape + pipeline hash; source length keeps the key honest about
   what was compiled (the Serve.Cache keying discipline). *)
let key (t : t) (k : Kernels.t) : string =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%d:%s|%s|%s|%s"
          (String.length k.Kernels.src)
          k.Kernels.name
          (String.concat "x" (List.map string_of_int k.Kernels.shape))
          k.Kernels.entry (options_tag t.options)))

let seal_of (m : Ir.Op.op) : string =
  Digest.to_hex (Digest.string (Ir.Printer.op_to_string m))

let build (t : t) (k : Kernels.t) : entry =
  let m = Cudafe.Codegen.compile k.Kernels.src in
  let rung =
    match
      Core.Passmgr.lower ~options:t.options ~source:k.Kernels.src
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
      (Engine_interp, rung ^ "+interp")
  in
  if not (String.equal rung "primary") then
    t.stats.degraded <- t.stats.degraded + 1;
  t.stats.compiles <- t.stats.compiles + 1;
  { ename = k.Kernels.name
  ; eshape = k.Kernels.shape
  ; modul = m
  ; engine
  ; seal = seal_of m
  ; erung = rung
  ; elaunches = 0
  ; esecs = 0.0
  }

let lookup (t : t) (k : Kernels.t) : entry =
  let ekey = key t k in
  match Hashtbl.find_opt t.table ekey with
  | Some e when String.equal (seal_of e.modul) e.seal ->
    t.stats.hits <- t.stats.hits + 1;
    e
  | Some _ ->
    (* the cached module no longer digests to its seal: drop, recount,
       recompile — never run IR we cannot re-verify *)
    Hashtbl.remove t.table ekey;
    t.stats.corrupt_dropped <- t.stats.corrupt_dropped + 1;
    let e = build t k in
    Hashtbl.replace t.table ekey e;
    e
  | None ->
    t.stats.misses <- t.stats.misses + 1;
    let e = build t k in
    Hashtbl.replace t.table ekey e;
    e

let launch ?domains (t : t) (k : Kernels.t) (args : Interp.Mem.rv list) :
  unit =
  let e = lookup t k in
  let domains = match domains with Some d -> d | None -> t.domains in
  let t0 = Unix.gettimeofday () in
  (match e.engine with
   | Engine_compiled c ->
     ignore
       (Runtime.Exec.run ~domains ~timeout_ms:t.deadline_ms c args)
   | Engine_interp -> ignore (Interp.Eval.run e.modul k.Kernels.entry args));
  e.esecs <- e.esecs +. (Unix.gettimeofday () -. t0);
  e.elaunches <- e.elaunches + 1;
  t.stats.launches <- t.stats.launches + 1

let kernels (t : t) : kernel_info list =
  Hashtbl.fold
    (fun _ e acc ->
      { kname = e.ename
      ; kshape = e.eshape
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
    "kernels: %d compiles, %d hits, %d misses, %d corrupt dropped, %d \
     degraded, %d interp fallbacks, %d launches"
    s.compiles s.hits s.misses s.corrupt_dropped s.degraded
    s.interp_fallbacks s.launches
