(* Compile-to-closures multicore engine for the lowered OpenMP dialect.

   Compilation assigns every SSA value of a function a dense slot in one
   of three typed register files — ints, floats, buffers — chosen by the
   value's static type, and turns each op into an OCaml closure over a
   [frame] holding those files.  Compared to the tree-walking
   interpreter this removes the per-op hashtable lookups, the [Mem.rv]
   boxing of every intermediate (floats live unboxed in a [float
   array]), and the per-iteration environment allocations; loops become
   plain [while] loops over precompiled bodies.

   Scalar semantics mirror {!Interp.Eval} exactly: all float arithmetic
   in double precision with f32 rounding only at f32 constants and
   casts-to-f32, integer division/modulo by zero failing, [scf.for]
   bounds evaluated once.  [scf.parallel] regions are executed as
   serial nested loops in the interpreter's iteration order; if they
   still contain GPU barriers, the function is rejected at compile time
   ({!Unsupported}) so the driver can degrade to the fiber interpreter.

   Memory accesses compile to one of two paths.  The checked path
   inlines the bounds test and the [Fdata]/[Idata] dispatch into the
   access closure (no [Mem.get_f] call, no index array).  The unchecked
   path exists for the innermost-affine pattern [buf[i1;..;ik; iv]]
   where [iv] is the iv of the innermost enclosing loop and the buffer
   and prefix indices are loop-invariant: a guard at loop entry
   validates the buffer's rank, dtype and the whole [iv] range once,
   binds the raw data array and precomputed row base into per-frame
   caches, and the loop then runs a body variant whose accesses are
   single [unsafe_get]/[unsafe_set]s.  Any guard failure falls back to
   the checked body for the whole loop entry, so safety semantics and
   error messages are unchanged.

   Team execution ([omp.parallel]) launches one frame per thread on a
   {!Pool}.  The frames live in a persistent, cache-line-padded team
   state owned by the compiled function: a launch blits the master's
   register files into them and posts a cached job closure, so the
   steady-state launch path allocates nothing.  [omp.wsloop] linearizes
   its iteration space and partitions it per {!Schedule}; because
   wsloops carry no implicit trailing barrier, team members may enter
   the same dynamic loop different numbers of times concurrently, so the
   shared grab state is keyed by (loop oid, per-thread encounter count)
   — the "generation" — and discarded by the last finisher. *)

open Ir
open Interp

exception Unsupported of string
exception Injected

(* The run exceeded its wall-clock bound and the watchdog cancelled it;
   carries the bound in milliseconds. *)
exception Timeout of int

type stats =
  { mutable launches : int
  ; mutable barrier_phases : int
  ; mutable domain_spawns : int
  ; mutable chunks_grabbed : int
  ; mutable frames_allocated : int
  }

(* What --inject-fault runtime:KIND does inside a team: [Raise] kills
   one rank outright (exercising poison/unwind), [Hang] parks one rank
   in a non-terminating loop that only the watchdog's cancel ends
   (exercising timeout/poison/degradation). *)
type fault =
  | Raise
  | Hang

(* Mutated by [run] before execution starts; read from inside compiled
   closures via the frame. *)
type config =
  { mutable domains : int
  ; mutable schedule : Schedule.policy
  ; mutable chunk : int option
  ; mutable team_reuse : bool
  ; mutable fault : fault option
  ; mutable timeout_ms : int (* 0 = no watchdog *)
  }

(* One dynamic/guided worksharing region instance (one generation of one
   wsloop).  [finishers] counts team members that exhausted it; the last
   one removes the entry from the team table. *)
type wshare =
  { grab : Schedule.shared
  ; mutable finishers : int
  }

type team =
  { size : int
  ; barrier : Barrier.t
  ; wmutex : Mutex.t
  ; wtbl : (int * int, wshare) Hashtbl.t (* (wsloop oid, generation) *)
  }

(* Per-thread launch context: which team, which rank, and how many times
   this thread has entered each wsloop (the generation counter). *)
type launch_ctx =
  { team : team
  ; rank : int
  ; ws_seen : (int, int) Hashtbl.t
  }

(* [chunks]/[frames] are atomics because worker threads bump them; they
   are snapshotted into the launcher-owned [stats] record when [run]
   returns.  [ts] is the persistent team state (frames + barrier) that
   makes repeated launches allocation-free. *)
type glob =
  { cfg : config
  ; stats : stats
  ; chunks : int Atomic.t
  ; frames : int Atomic.t
  ; cancel : bool Atomic.t
    (* set by the watchdog; observed at while-loop back-edges, wsloop
       grabs and launch boundaries, which all raise [Timeout] *)
  ; live : team option Atomic.t
    (* the team currently inside Pool.run, so the watchdog can poison
       its barrier and wake ranks sleeping there *)
  ; mutable ts : tstate option
  }

and frame =
  { iregs : int array
  ; fregs : float array
  ; bregs : Mem.buffer array
  ; fdat : float array array (* hoisted-access data caches, per cand *)
  ; idat : int array array
  ; abase : int array (* hoisted-access row bases, per cand *)
  ; lc : launch_ctx option
  ; glob : glob
  }

and tstate =
  { tsize : int
  ; tteam : team
  ; tframes : frame array
  ; mutable tphases : int (* barrier phases already accounted *)
  }

type code = frame -> unit

exception Ret of Mem.rv option

type slot =
  | SI of int
  | SF of int
  | SB of int

(* One hoistable access: [ckind]/[cbuf]/[cprefix] describe the access,
   [civ] is the iv slot it is affine in, [ccache] indexes the frame's
   [fdat]/[idat]/[abase] caches. *)
type akind =
  | KF
  | KI

type cand =
  { ckind : akind
  ; ccache : int
  ; civ : int
  ; cbuf : int
  ; cprefix : (frame -> int) array
  }

(* One loop currently being compiled for hoisting: its iv slot, the set
   of slots its body defines (for invariance tests) and the candidates
   found so far. *)
type hctx =
  { hiv : int
  ; hdefs : (int, unit) Hashtbl.t
  ; mutable hcands : cand list
  }

type cfunc =
  { mutable ni : int
  ; mutable nf : int
  ; mutable nb : int
  ; mutable nc : int
  ; mutable params : slot array
  ; mutable body : code
  }

type cmod =
  { modul : Op.op
  ; cfuncs : (string, cfunc) Hashtbl.t
  ; sentinel : Mem.buffer
    (* per-compile unbound-register marker; never a user buffer *)
  }

(* [hstack] is the stack of loops being compiled (innermost first);
   [emit_ivs] lists the ivs whose unchecked body variant is currently
   being emitted; [cands] dedups candidates per access op so the two
   body variants of a loop share one cache slot. *)
type cenv =
  { cm : cmod
  ; slots : (int, slot) Hashtbl.t (* Value.id -> slot *)
  ; mutable ni : int
  ; mutable nf : int
  ; mutable nb : int
  ; mutable nc : int
  ; mutable hstack : hctx list
  ; mutable emit_ivs : int list
  ; cands : (int, cand) Hashtbl.t (* access op oid -> candidate *)
  }

(* --- slot assignment and typed accessors --- *)

let slot_of (ce : cenv) (v : Value.t) : slot =
  match Hashtbl.find_opt ce.slots v.Value.id with
  | Some s -> s
  | None ->
    let s =
      match v.Value.typ with
      | Types.Scalar d when Types.is_float_dtype d ->
        let k = ce.nf in
        ce.nf <- k + 1;
        SF k
      | Types.Scalar _ ->
        let k = ce.ni in
        ce.ni <- k + 1;
        SI k
      | Types.Memref _ ->
        let k = ce.nb in
        ce.nb <- k + 1;
        SB k
    in
    Hashtbl.add ce.slots v.Value.id s;
    s

let slot_key = function
  | SI k -> 3 * k
  | SF k -> (3 * k) + 1
  | SB k -> (3 * k) + 2

let iget ce v : frame -> int =
  match slot_of ce v with
  | SI k -> fun fr -> fr.iregs.(k)
  | SF _ -> fun _ -> Mem.fail "expected integer value, got float"
  | SB _ -> fun _ -> Mem.fail "expected integer value, got buffer"

let fget ce v : frame -> float =
  match slot_of ce v with
  | SF k -> fun fr -> fr.fregs.(k)
  | SI k -> fun fr -> float_of_int fr.iregs.(k)
  | SB _ -> fun _ -> Mem.fail "expected float value, got buffer"

(* Truncating integer view, mirroring [Mem.as_int_or_trunc] (casts). *)
let tget ce v : frame -> int =
  match slot_of ce v with
  | SI k -> fun fr -> fr.iregs.(k)
  | SF k -> fun fr -> int_of_float fr.fregs.(k)
  | SB _ -> fun _ -> Mem.fail "expected scalar value, got buffer"

(* Buffer reads check the per-compile sentinel: a register that was
   never bound fails with the op's location and the value's name
   instead of a bounds error on a shared zero-length dummy. *)
let unbound (op : Op.op) (v : Value.t) =
  Mem.fail "%s: read of unbound buffer register %s" (Op.loc_string op)
    (Value.to_string v)

let bget ce (op : Op.op) v : frame -> Mem.buffer =
  let sent = ce.cm.sentinel in
  match slot_of ce v with
  | SB k ->
    fun fr ->
      let b = fr.bregs.(k) in
      if b == sent then unbound op v else b
  | SI _ | SF _ -> fun _ -> Mem.fail "expected buffer value"

let iset ce v : frame -> int -> unit =
  match slot_of ce v with
  | SI k -> fun fr x -> fr.iregs.(k) <- x
  | SF _ | SB _ -> fun _ _ -> Mem.fail "type mismatch: integer result"

let fset ce v : frame -> float -> unit =
  match slot_of ce v with
  | SF k -> fun fr x -> fr.fregs.(k) <- x
  | SI _ | SB _ -> fun _ _ -> Mem.fail "type mismatch: float result"

let bset ce v : frame -> Mem.buffer -> unit =
  match slot_of ce v with
  | SB k -> fun fr b -> fr.bregs.(k) <- b
  | SI _ | SF _ -> fun _ _ -> Mem.fail "type mismatch: buffer result"

let rv_get ce (op : Op.op) v : frame -> Mem.rv =
  let sent = ce.cm.sentinel in
  match slot_of ce v with
  | SI k -> fun fr -> Mem.Int fr.iregs.(k)
  | SF k -> fun fr -> Mem.Flt fr.fregs.(k)
  | SB k ->
    fun fr ->
      let b = fr.bregs.(k) in
      if b == sent then unbound op v else Mem.Buf b

(* Read-side conversions, like the interpreter's [as_*] on lookup. *)
let bind_slot (fr : frame) (s : slot) (v : Mem.rv) : unit =
  match s with
  | SI k -> fr.iregs.(k) <- Mem.as_int v
  | SF k -> fr.fregs.(k) <- Mem.as_float v
  | SB k -> fr.bregs.(k) <- Mem.as_buf v

let is_float_value (v : Value.t) =
  match v.Value.typ with
  | Types.Scalar d -> Types.is_float_dtype d
  | Types.Memref _ -> false

let f32 x = Int32.float_of_bits (Int32.bits_of_float x)

(* --- scalar op semantics (identical formulas to Interp.Eval) --- *)

let fbinop : Op.binop -> float -> float -> float = function
  | Op.Add -> ( +. )
  | Op.Sub -> ( -. )
  | Op.Mul -> ( *. )
  | Op.Div -> ( /. )
  | Op.Rem -> Float.rem
  | Op.Min -> Float.min
  | Op.Max -> Float.max
  | Op.And | Op.Or | Op.Xor | Op.Shl | Op.Shr ->
    fun _ _ -> Mem.fail "bitwise op on float"

let ibinop : Op.binop -> int -> int -> int = function
  | Op.Add -> ( + )
  | Op.Sub -> ( - )
  | Op.Mul -> ( * )
  | Op.Div ->
    fun x y -> if y = 0 then Mem.fail "integer division by zero" else x / y
  | Op.Rem ->
    fun x y -> if y = 0 then Mem.fail "integer modulo by zero" else x mod y
  | Op.Min -> min
  | Op.Max -> max
  | Op.And -> ( land )
  | Op.Or -> ( lor )
  | Op.Xor -> ( lxor )
  | Op.Shl -> ( lsl )
  | Op.Shr -> ( asr )

let fcmp : Op.cmp_pred -> float -> float -> bool = function
  | Op.Eq -> fun x y -> x = y
  | Op.Ne -> fun x y -> x <> y
  | Op.Lt -> fun x y -> x < y
  | Op.Le -> fun x y -> x <= y
  | Op.Gt -> fun x y -> x > y
  | Op.Ge -> fun x y -> x >= y

let icmp : Op.cmp_pred -> int -> int -> bool = function
  | Op.Eq -> fun x y -> x = y
  | Op.Ne -> fun x y -> x <> y
  | Op.Lt -> fun x y -> x < y
  | Op.Le -> fun x y -> x <= y
  | Op.Gt -> fun x y -> x > y
  | Op.Ge -> fun x y -> x >= y

(* Same Abramowitz–Stegun expression as the interpreter, same
   association, so results are bit-identical. *)
let erf_as x =
  let s = if x < 0.0 then -1.0 else 1.0 in
  let x = Float.abs x in
  let t = 1.0 /. (1.0 +. (0.3275911 *. x)) in
  let y =
    1.0
    -. ((((((1.061405429 *. t) -. 1.453152027) *. t) +. 1.421413741) *. t
         -. 0.284496736)
        *. t
        +. 0.254829592)
       *. t
       *. exp (-.x *. x)
  in
  s *. y

let fmath : Op.math_fn -> float -> float = function
  | Op.Sqrt -> sqrt
  | Op.Exp -> exp
  | Op.Log -> log
  | Op.Log2 -> fun x -> log x /. log 2.0
  | Op.Fabs -> Float.abs
  | Op.Floor -> Float.floor
  | Op.Neg -> fun x -> -.x
  | Op.Sin -> sin
  | Op.Cos -> cos
  | Op.Tanh -> tanh
  | Op.Erf -> erf_as
  | Op.Not | Op.Pow -> fun _ -> Mem.fail "math: bad arity"

let oob (b : Mem.buffer) ix d =
  Mem.fail "buffer #%d: index %d out of bounds [0,%d) in dim %d" b.Mem.bufid ix
    b.Mem.dims.(d) d

(* --- hoisting analysis --- *)

(* All slots defined inside an op list, including nested region
   arguments: the "varies inside this loop body" set. *)
let rec defs_of_ops ce tbl (ops : Op.op list) : unit =
  List.iter
    (fun (o : Op.op) ->
      Array.iter
        (fun r -> Hashtbl.replace tbl (slot_key (slot_of ce r)) ())
        o.Op.results;
      Array.iter
        (fun (r : Op.region) ->
          Array.iter
            (fun a -> Hashtbl.replace tbl (slot_key (slot_of ce a)) ())
            r.Op.rargs;
          defs_of_ops ce tbl r.Op.body)
        o.Op.regions)
    ops

(* Is [buf[i1;..;ik; last]] hoistable out of some loop currently being
   compiled?  Requires [last] to be that loop's iv and the buffer and
   every prefix index to be invariant in the loop's body.  Registers the
   candidate (one cache slot per access op, shared by both body
   variants) with the loop it hoists out of. *)
let hoist_candidate ce (op : Op.op) ~(bufv : Value.t)
    ~(idxv : Value.t array) ~(kind : akind) : cand option =
  let n = Array.length idxv in
  if n = 0 || ce.hstack = [] then None
  else begin
    match slot_of ce idxv.(n - 1) with
    | SF _ | SB _ -> None
    | SI ivk -> begin
      let rec find = function
        | [] -> None
        | h :: rest -> if h.hiv = ivk then Some h else find rest
      in
      match find ce.hstack with
      | None -> None
      | Some h ->
        let invariant s = not (Hashtbl.mem h.hdefs (slot_key s)) in
        let buf_ok =
          match slot_of ce bufv with
          | SB _ as s -> invariant s
          | SI _ | SF _ -> false
        in
        let prefix_ok = ref buf_ok in
        for i = 0 to n - 2 do
          match slot_of ce idxv.(i) with
          | SI _ as s -> if not (invariant s) then prefix_ok := false
          | SF _ | SB _ -> prefix_ok := false
        done;
        if not !prefix_ok then None
        else begin
          let c =
            match Hashtbl.find_opt ce.cands op.Op.oid with
            | Some c -> c
            | None ->
              let ccache = ce.nc in
              ce.nc <- ccache + 1;
              let cbuf =
                match slot_of ce bufv with
                | SB k -> k
                | SI _ | SF _ -> assert false
              in
              let c =
                { ckind = kind
                ; ccache
                ; civ = ivk
                ; cbuf
                ; cprefix =
                    Array.map (iget ce) (Array.sub idxv 0 (n - 1))
                }
              in
              Hashtbl.add ce.cands op.Op.oid c;
              c
          in
          h.hcands <- c :: h.hcands;
          Some c
        end
    end
  end

(* The loop-entry guard for one hoisted access: validates rank, dtype,
   prefix indices and the whole [iv] value range once, then binds the
   raw data array and row base into the executing frame's caches.
   Returns false — fall back to the checked body for this loop entry —
   on any mismatch, including an unbound buffer register, whose located
   error the checked body raises only if the access actually runs. *)
let guard_of_cand (sent : Mem.buffer) (c : cand) :
    frame -> int -> int -> bool =
  let np = Array.length c.cprefix in
  fun fr ivlo ivlast ->
    let b = fr.bregs.(c.cbuf) in
    if b == sent then false
    else begin
      let dims = b.Mem.dims in
      if Array.length dims <> np + 1 then false
      else begin
        let off = ref 0 and ok = ref true in
        for i = 0 to np - 1 do
          let ix = c.cprefix.(i) fr in
          if ix < 0 || ix >= dims.(i) then ok := false
          else off := (!off * dims.(i)) + ix
        done;
        let dlast = dims.(np) in
        if (not !ok) || ivlo < 0 || ivlast >= dlast then false
        else begin
          let base = !off * dlast in
          match b.Mem.data, c.ckind with
          | Mem.Fdata a, KF when base + dlast <= Array.length a ->
            fr.fdat.(c.ccache) <- a;
            fr.abase.(c.ccache) <- base;
            true
          | Mem.Idata a, KI when base + dlast <= Array.length a ->
            fr.idat.(c.ccache) <- a;
            fr.abase.(c.ccache) <- base;
            true
          | _ -> false
        end
      end
    end

(* --- teams --- *)

let new_team size =
  { size
  ; barrier = Barrier.create size
  ; wmutex = Mutex.create ()
  ; wtbl = Hashtbl.create 16
  }

(* A nested [omp.parallel] runs its ranks sequentially on the current
   thread (the interpreter runs them as cooperative fibers — identical
   memory effects for race-free regions), so its barrier must be a
   no-op. *)
let nested_team size =
  { size
  ; barrier = Barrier.create 1
  ; wmutex = Mutex.create ()
  ; wtbl = Hashtbl.create 8
  }

let new_lc team rank = { team; rank; ws_seen = Hashtbl.create 8 }

(* Pad a register file to a multiple of 8 slots (one 64-byte cache line
   of 8-byte words) so the hot mutable slots of adjacent per-thread
   frames never share a line. *)
let pad n = if n = 0 then 0 else ((n + 7) / 8) * 8

let new_frame (cf : cfunc) (sent : Mem.buffer) lc glob : frame =
  Atomic.incr glob.frames;
  { iregs = Array.make cf.ni 0
  ; fregs = Array.make cf.nf 0.0
  ; bregs = Array.make cf.nb sent
  ; fdat = Array.make cf.nc [||]
  ; idat = Array.make cf.nc [||]
  ; abase = Array.make cf.nc 0
  ; lc
  ; glob
  }

(* --- compilation --- *)

let rec compile_region (ce : cenv) (ops : Op.op list) : code =
  let codes = Array.of_list (List.map (compile_op ce) ops) in
  match Array.length codes with
  | 0 -> fun _ -> ()
  | 1 -> codes.(0)
  | n ->
    fun fr ->
      for i = 0 to n - 1 do
        codes.(i) fr
      done

and compile_op (ce : cenv) (op : Op.op) : code =
  match op.Op.kind with
  | Op.Module | Op.Func _ ->
    fun _ -> Mem.fail "cannot execute module/func as a statement"
  | Op.Yield | Op.Dealloc -> fun _ -> ()
  | Op.Condition -> fun _ -> Mem.fail "scf.condition outside while handling"
  | Op.Constant c -> begin
    match c with
    | Op.Cint (n, _) ->
      let set = iset ce (Op.result op) in
      fun fr -> set fr n
    | Op.Cfloat (f, Types.F32) ->
      let v = f32 f in
      let set = fset ce (Op.result op) in
      fun fr -> set fr v
    | Op.Cfloat (f, _) ->
      let set = fset ce (Op.result op) in
      fun fr -> set fr f
  end
  | Op.Binop kind ->
    if is_float_value op.Op.operands.(0) then begin
      let a = fget ce op.Op.operands.(0) in
      let b = fget ce op.Op.operands.(1) in
      let f = fbinop kind in
      let set = fset ce (Op.result op) in
      fun fr -> set fr (f (a fr) (b fr))
    end
    else begin
      let a = iget ce op.Op.operands.(0) in
      let b = iget ce op.Op.operands.(1) in
      let f = ibinop kind in
      let set = iset ce (Op.result op) in
      fun fr -> set fr (f (a fr) (b fr))
    end
  | Op.Cmp pred ->
    let set = iset ce (Op.result op) in
    if is_float_value op.Op.operands.(0) then begin
      let a = fget ce op.Op.operands.(0) in
      let b = fget ce op.Op.operands.(1) in
      let p = fcmp pred in
      fun fr -> set fr (if p (a fr) (b fr) then 1 else 0)
    end
    else begin
      let a = iget ce op.Op.operands.(0) in
      let b = iget ce op.Op.operands.(1) in
      let p = icmp pred in
      fun fr -> set fr (if p (a fr) (b fr) then 1 else 0)
    end
  | Op.Select -> begin
    let c = iget ce op.Op.operands.(0) in
    match slot_of ce (Op.result op) with
    | SF k ->
      let a = fget ce op.Op.operands.(1) in
      let b = fget ce op.Op.operands.(2) in
      fun fr -> fr.fregs.(k) <- (if c fr <> 0 then a fr else b fr)
    | SI k ->
      let a = iget ce op.Op.operands.(1) in
      let b = iget ce op.Op.operands.(2) in
      fun fr -> fr.iregs.(k) <- (if c fr <> 0 then a fr else b fr)
    | SB k ->
      let a = bget ce op op.Op.operands.(1) in
      let b = bget ce op op.Op.operands.(2) in
      fun fr -> fr.bregs.(k) <- (if c fr <> 0 then a fr else b fr)
  end
  | Op.Cast d -> begin
    match d with
    | Types.F32 ->
      let g = fget ce op.Op.operands.(0) in
      let set = fset ce (Op.result op) in
      fun fr -> set fr (f32 (g fr))
    | Types.F64 ->
      let g = fget ce op.Op.operands.(0) in
      let set = fset ce (Op.result op) in
      fun fr -> set fr (g fr)
    | Types.I1 ->
      let g = tget ce op.Op.operands.(0) in
      let set = iset ce (Op.result op) in
      fun fr -> set fr (if g fr <> 0 then 1 else 0)
    | Types.I32 | Types.I64 | Types.Index ->
      let g = tget ce op.Op.operands.(0) in
      let set = iset ce (Op.result op) in
      fun fr -> set fr (g fr)
  end
  | Op.Math Op.Not ->
    let a = iget ce op.Op.operands.(0) in
    let set = iset ce (Op.result op) in
    fun fr -> set fr (if a fr = 0 then 1 else 0)
  | Op.Math Op.Pow ->
    let a = fget ce op.Op.operands.(0) in
    let b = fget ce op.Op.operands.(1) in
    let set = fset ce (Op.result op) in
    fun fr -> set fr (Float.pow (a fr) (b fr))
  | Op.Math fn ->
    let a = fget ce op.Op.operands.(0) in
    let f = fmath fn in
    let set = fset ce (Op.result op) in
    fun fr -> set fr (f (a fr))
  | Op.Alloc | Op.Alloca -> begin
    match (Op.result op).Value.typ with
    | Types.Memref { elem; shape; _ } ->
      let next_dyn = ref 0 in
      let dimfs =
        Array.of_list
          (List.map
             (fun d ->
               match d with
               | Some n -> fun (_ : frame) -> n
               | None ->
                 let k = !next_dyn in
                 incr next_dyn;
                 if k < Array.length op.Op.operands then
                   iget ce op.Op.operands.(k)
                 else fun _ -> Mem.fail "alloc: missing dynamic size")
             shape)
      in
      let set = bset ce (Op.result op) in
      fun fr ->
        set fr (Mem.alloc_buffer elem (Array.map (fun g -> g fr) dimfs))
    | Types.Scalar _ -> fun _ -> Mem.fail "alloc of non-memref"
  end
  | Op.Load -> compile_load ce op
  | Op.Store -> compile_store ce op
  | Op.Copy ->
    let s = bget ce op op.Op.operands.(0) in
    let d = bget ce op op.Op.operands.(1) in
    fun fr -> Mem.copy ~src:(s fr) ~dst:(d fr)
  | Op.Dim i ->
    let b = bget ce op op.Op.operands.(0) in
    let set = iset ce (Op.result op) in
    fun fr -> set fr (b fr).Mem.dims.(i)
  | Op.For -> begin
    let log = iget ce (Op.for_lo op) in
    let hig = iget ce (Op.for_hi op) in
    let stg = iget ce (Op.for_step op) in
    let iv =
      match slot_of ce (Op.for_iv op) with
      | SI k -> k
      | SF _ | SB _ -> raise (Unsupported "scf.for: non-integer iv")
    in
    match compile_hoisted ce ~iv op.Op.regions.(0) with
    | body, None ->
      fun fr ->
        let lo = log fr and hi = hig fr and step = stg fr in
        if step <= 0 then Mem.fail "scf.for: non-positive step %d" step;
        let i = ref lo in
        while !i < hi do
          fr.iregs.(iv) <- !i;
          body fr;
          i := !i + step
        done
    | checked, Some (all_pass, unchecked) ->
      fun fr ->
        let lo = log fr and hi = hig fr and step = stg fr in
        if step <= 0 then Mem.fail "scf.for: non-positive step %d" step;
        if lo < hi then begin
          let last = lo + (((hi - 1 - lo) / step) * step) in
          let body = if all_pass fr lo last then unchecked else checked in
          let i = ref lo in
          while !i < hi do
            fr.iregs.(iv) <- !i;
            body fr;
            i := !i + step
          done
        end
  end
  | Op.While ->
    let cond_ops, cond_val =
      match List.rev op.Op.regions.(0).Op.body with
      | ({ Op.kind = Op.Condition; _ } as c) :: rest ->
        (compile_region ce (List.rev rest), iget ce c.Op.operands.(0))
      | _ ->
        ( (fun (_ : frame) -> ())
        , fun (_ : frame) ->
            Mem.fail "while cond region missing scf.condition" )
    in
    let body = compile_region ce op.Op.regions.(1).Op.body in
    fun fr ->
      let g = fr.glob in
      let continue_ = ref true in
      while !continue_ do
        (* while loops are the one compiled construct with no static
           trip bound, so they carry the cancellation check (a plain
           atomic load — negligible against any real loop body) *)
        if Atomic.get g.cancel then raise (Timeout g.cfg.timeout_ms);
        cond_ops fr;
        if cond_val fr <> 0 then body fr else continue_ := false
      done
  | Op.If ->
    let c = iget ce op.Op.operands.(0) in
    let t = compile_region ce op.Op.regions.(0).Op.body in
    let e =
      if Array.length op.Op.regions > 1 then
        compile_region ce op.Op.regions.(1).Op.body
      else fun _ -> ()
    in
    fun fr -> if c fr <> 0 then t fr else e fr
  | Op.Barrier ->
    raise
      (Unsupported "polygeist.barrier requires the fiber interpreter")
  | Op.Parallel _ ->
    if Op.contains_barrier_region op.Op.regions.(0) then
      raise
        (Unsupported
           "scf.parallel with barriers requires the fiber interpreter")
    else compile_serial_parallel ce op
  | Op.OmpParallel -> compile_omp_parallel ce op
  | Op.OmpWsloop -> compile_wsloop ce op
  | Op.OmpBarrier ->
    fun fr ->
      (match fr.lc with
       | None -> () (* orphaned barrier: team of one *)
       | Some lc -> Barrier.wait lc.team.barrier)
  | Op.Return ->
    if Array.length op.Op.operands = 1 then begin
      let g = rv_get ce op op.Op.operands.(0) in
      fun fr -> raise (Ret (Some (g fr)))
    end
    else fun _ -> raise (Ret None)
  | Op.Call name -> compile_call ce op name

(* Compile a loop region twice when it contains hoistable accesses: the
   checked variant (always safe) and an unchecked variant whose hoisted
   accesses are raw array reads/writes, selected at loop entry by the
   conjunction of the candidates' guards.  Candidate discovery happens
   during the checked pass; [emit_ivs] makes the second pass emit the
   unsafe form for exactly the accesses hoisted out of THIS loop. *)
and compile_hoisted ce ~(iv : int) (r : Op.region) :
    code * ((frame -> int -> int -> bool) * code) option =
  let defs = Hashtbl.create 32 in
  Array.iter
    (fun a -> Hashtbl.replace defs (slot_key (slot_of ce a)) ())
    r.Op.rargs;
  defs_of_ops ce defs r.Op.body;
  let h = { hiv = iv; hdefs = defs; hcands = [] } in
  ce.hstack <- h :: ce.hstack;
  let checked = compile_region ce r.Op.body in
  ce.hstack <- List.tl ce.hstack;
  match h.hcands with
  | [] -> (checked, None)
  | cands ->
    let cands =
      List.sort_uniq (fun a b -> compare a.ccache b.ccache) cands
    in
    let h2 = { hiv = iv; hdefs = defs; hcands = [] } in
    ce.hstack <- h2 :: ce.hstack;
    ce.emit_ivs <- iv :: ce.emit_ivs;
    let unchecked = compile_region ce r.Op.body in
    ce.emit_ivs <- List.tl ce.emit_ivs;
    ce.hstack <- List.tl ce.hstack;
    let guards =
      Array.of_list (List.map (guard_of_cand ce.cm.sentinel) cands)
    in
    let ng = Array.length guards in
    let all_pass fr ivlo ivlast =
      let ok = ref true and i = ref 0 in
      while !ok && !i < ng do
        if not (guards.(!i) fr ivlo ivlast) then ok := false;
        incr i
      done;
      !ok
    in
    (checked, Some (all_pass, unchecked))

and compile_load ce op : code =
  let bufv = op.Op.operands.(0) in
  let n = Array.length op.Op.operands - 1 in
  let idxv = Array.init n (fun i -> op.Op.operands.(i + 1)) in
  let res = slot_of ce (Op.result op) in
  let cand =
    match res with
    | SF _ -> hoist_candidate ce op ~bufv ~idxv ~kind:KF
    | SI _ -> hoist_candidate ce op ~bufv ~idxv ~kind:KI
    | SB _ -> None
  in
  match cand, res with
  | Some c, SF k when List.mem c.civ ce.emit_ivs ->
    let cc = c.ccache in
    fun fr ->
      fr.fregs.(k) <-
        Array.unsafe_get fr.fdat.(cc) (fr.abase.(cc) + fr.iregs.(c.civ))
  | Some c, SI k when List.mem c.civ ce.emit_ivs ->
    let cc = c.ccache in
    fun fr ->
      fr.iregs.(k) <-
        Array.unsafe_get fr.idat.(cc) (fr.abase.(cc) + fr.iregs.(c.civ))
  | _, res -> begin
    let bg = bget ce op bufv in
    let idxg = Array.map (iget ce) idxv in
    match n, res with
    | 1, SF k ->
      let i0 = idxg.(0) in
      fun fr ->
        let b = bg fr in
        let i = i0 fr in
        if Array.length b.Mem.dims = 1 then begin
          if i < 0 || i >= b.Mem.dims.(0) then oob b i 0;
          match b.Mem.data with
          | Mem.Fdata a -> fr.fregs.(k) <- a.(i)
          | Mem.Idata a -> fr.fregs.(k) <- float_of_int a.(i)
        end
        else fr.fregs.(k) <- Mem.get_f b (Mem.lindex b [| i |])
    | 1, SI k ->
      let i0 = idxg.(0) in
      fun fr ->
        let b = bg fr in
        let i = i0 fr in
        if Array.length b.Mem.dims = 1 then begin
          if i < 0 || i >= b.Mem.dims.(0) then oob b i 0;
          match b.Mem.data with
          | Mem.Idata a -> fr.iregs.(k) <- a.(i)
          | Mem.Fdata a -> fr.iregs.(k) <- int_of_float a.(i)
        end
        else fr.iregs.(k) <- Mem.get_i b (Mem.lindex b [| i |])
    | 2, SF k ->
      let i0 = idxg.(0) and i1 = idxg.(1) in
      fun fr ->
        let b = bg fr in
        let i = i0 fr and j = i1 fr in
        if Array.length b.Mem.dims = 2 then begin
          let d1 = b.Mem.dims.(1) in
          if i < 0 || i >= b.Mem.dims.(0) then oob b i 0;
          if j < 0 || j >= d1 then oob b j 1;
          match b.Mem.data with
          | Mem.Fdata a -> fr.fregs.(k) <- a.((i * d1) + j)
          | Mem.Idata a -> fr.fregs.(k) <- float_of_int a.((i * d1) + j)
        end
        else fr.fregs.(k) <- Mem.get_f b (Mem.lindex b [| i; j |])
    | 2, SI k ->
      let i0 = idxg.(0) and i1 = idxg.(1) in
      fun fr ->
        let b = bg fr in
        let i = i0 fr and j = i1 fr in
        if Array.length b.Mem.dims = 2 then begin
          let d1 = b.Mem.dims.(1) in
          if i < 0 || i >= b.Mem.dims.(0) then oob b i 0;
          if j < 0 || j >= d1 then oob b j 1;
          match b.Mem.data with
          | Mem.Idata a -> fr.iregs.(k) <- a.((i * d1) + j)
          | Mem.Fdata a -> fr.iregs.(k) <- int_of_float a.((i * d1) + j)
        end
        else fr.iregs.(k) <- Mem.get_i b (Mem.lindex b [| i; j |])
    | _, SF k ->
      fun fr ->
        let b = bg fr in
        fr.fregs.(k) <-
          Mem.get_f b (Mem.lindex b (Array.map (fun g -> g fr) idxg))
    | _, SI k ->
      fun fr ->
        let b = bg fr in
        fr.iregs.(k) <-
          Mem.get_i b (Mem.lindex b (Array.map (fun g -> g fr) idxg))
    | _, SB _ -> fun _ -> Mem.fail "load of buffer value"
  end

and compile_store ce op : code =
  let vs = slot_of ce op.Op.operands.(0) in
  let bufv = op.Op.operands.(1) in
  let n = Array.length op.Op.operands - 2 in
  let idxv = Array.init n (fun i -> op.Op.operands.(i + 2)) in
  let cand =
    match vs with
    | SF _ -> hoist_candidate ce op ~bufv ~idxv ~kind:KF
    | SI _ -> hoist_candidate ce op ~bufv ~idxv ~kind:KI
    | SB _ -> None
  in
  match cand, vs with
  | Some c, SF k when List.mem c.civ ce.emit_ivs ->
    let cc = c.ccache in
    fun fr ->
      Array.unsafe_set fr.fdat.(cc)
        (fr.abase.(cc) + fr.iregs.(c.civ))
        fr.fregs.(k)
  | Some c, SI k when List.mem c.civ ce.emit_ivs ->
    let cc = c.ccache in
    fun fr ->
      Array.unsafe_set fr.idat.(cc)
        (fr.abase.(cc) + fr.iregs.(c.civ))
        fr.iregs.(k)
  | _, vs -> begin
    let bg = bget ce op bufv in
    let idxg = Array.map (iget ce) idxv in
    match n, vs with
    | 1, SF k ->
      let i0 = idxg.(0) in
      fun fr ->
        let b = bg fr in
        let i = i0 fr in
        if Array.length b.Mem.dims = 1 then begin
          if i < 0 || i >= b.Mem.dims.(0) then oob b i 0;
          match b.Mem.data with
          | Mem.Fdata a -> a.(i) <- fr.fregs.(k)
          | Mem.Idata a -> a.(i) <- int_of_float fr.fregs.(k)
        end
        else Mem.set_f b (Mem.lindex b [| i |]) fr.fregs.(k)
    | 1, SI k ->
      let i0 = idxg.(0) in
      fun fr ->
        let b = bg fr in
        let i = i0 fr in
        if Array.length b.Mem.dims = 1 then begin
          if i < 0 || i >= b.Mem.dims.(0) then oob b i 0;
          match b.Mem.data with
          | Mem.Idata a -> a.(i) <- fr.iregs.(k)
          | Mem.Fdata a -> a.(i) <- float_of_int fr.iregs.(k)
        end
        else Mem.set_i b (Mem.lindex b [| i |]) fr.iregs.(k)
    | 2, SF k ->
      let i0 = idxg.(0) and i1 = idxg.(1) in
      fun fr ->
        let b = bg fr in
        let i = i0 fr and j = i1 fr in
        if Array.length b.Mem.dims = 2 then begin
          let d1 = b.Mem.dims.(1) in
          if i < 0 || i >= b.Mem.dims.(0) then oob b i 0;
          if j < 0 || j >= d1 then oob b j 1;
          match b.Mem.data with
          | Mem.Fdata a -> a.((i * d1) + j) <- fr.fregs.(k)
          | Mem.Idata a -> a.((i * d1) + j) <- int_of_float fr.fregs.(k)
        end
        else Mem.set_f b (Mem.lindex b [| i; j |]) fr.fregs.(k)
    | 2, SI k ->
      let i0 = idxg.(0) and i1 = idxg.(1) in
      fun fr ->
        let b = bg fr in
        let i = i0 fr and j = i1 fr in
        if Array.length b.Mem.dims = 2 then begin
          let d1 = b.Mem.dims.(1) in
          if i < 0 || i >= b.Mem.dims.(0) then oob b i 0;
          if j < 0 || j >= d1 then oob b j 1;
          match b.Mem.data with
          | Mem.Idata a -> a.((i * d1) + j) <- fr.iregs.(k)
          | Mem.Fdata a -> a.((i * d1) + j) <- float_of_int fr.iregs.(k)
        end
        else Mem.set_i b (Mem.lindex b [| i; j |]) fr.iregs.(k)
    | _, SF k ->
      fun fr ->
        let b = bg fr in
        Mem.set_f b
          (Mem.lindex b (Array.map (fun g -> g fr) idxg))
          fr.fregs.(k)
    | _, SI k ->
      fun fr ->
        let b = bg fr in
        Mem.set_i b
          (Mem.lindex b (Array.map (fun g -> g fr) idxg))
          fr.iregs.(k)
    | _, SB _ -> fun _ -> Mem.fail "cannot store a buffer into a buffer"
  end

(* [scf.parallel] without barriers: iterations in the interpreter's
   enumeration order (dim 0 fastest).  GPU threads are not an OpenMP
   team, so no worksharing chunking applies — every nested wsloop sees
   the launch context of the enclosing omp construct, as in the
   interpreter. *)
and compile_serial_parallel ce op : code =
  let nd = Op.par_dims op in
  let log = Array.init nd (fun i -> iget ce (Op.par_lo op i)) in
  let hig = Array.init nd (fun i -> iget ce (Op.par_hi op i)) in
  let stg = Array.init nd (fun i -> iget ce (Op.par_step op i)) in
  let ivslots =
    Array.map
      (fun v ->
        match slot_of ce v with
        | SI k -> k
        | SF _ | SB _ -> raise (Unsupported "parallel: non-integer iv"))
      op.Op.regions.(0).Op.rargs
  in
  let body = compile_region ce op.Op.regions.(0).Op.body in
  fun fr ->
    let lo = Array.map (fun g -> g fr) log in
    let hi = Array.map (fun g -> g fr) hig in
    let step = Array.map (fun g -> g fr) stg in
    Array.iteri
      (fun d s -> if s <= 0 then Mem.fail "parallel: non-positive step %d" d)
      step;
    let rec go d =
      if d < 0 then body fr
      else begin
        let v = ref lo.(d) in
        while !v < hi.(d) do
          fr.iregs.(ivslots.(d)) <- !v;
          go (d - 1);
          v := !v + step.(d)
        done
      end
    in
    go (nd - 1)

(* A top-level team launch.  The frames (and the barrier) live in the
   compiled function's persistent [tstate]; a launch validates it (same
   size, not poisoned, large enough register files), blits the master's
   registers into the team frames, and posts a per-op cached job
   closure to the pool — in the steady state nothing is allocated.
   Hoisting must not cross this boundary: the guards would bind caches
   in the master frame while the body runs on team frames, so the body
   is compiled with an empty hoist stack. *)
and compile_omp_parallel ce op : code =
  let saved_hstack = ce.hstack in
  ce.hstack <- [];
  let body = compile_region ce op.Op.regions.(0).Op.body in
  ce.hstack <- saved_hstack;
  let sent = ce.cm.sentinel in
  let jobcache : (tstate * (int -> unit)) option ref = ref None in
  fun fr ->
    let g = fr.glob in
    let size = g.cfg.domains in
    match fr.lc with
    | Some _ ->
      (* Nested team: ranks run sequentially on this thread, sharing its
         register files (sound for SSA: each rank's defs precede its
         uses).  The interpreter runs them as fibers — same memory
         effects for race-free regions. *)
      let team = nested_team size in
      for rank = 0 to size - 1 do
        body { fr with lc = Some (new_lc team rank) }
      done
    | None ->
      g.stats.launches <- g.stats.launches + 1;
      let ni = Array.length fr.iregs
      and nf = Array.length fr.fregs
      and nb = Array.length fr.bregs
      and nc = Array.length fr.abase in
      let ts =
        match g.ts with
        | Some t
          when g.cfg.team_reuse && t.tsize = size
               && (not (Barrier.is_poisoned t.tteam.barrier))
               && Array.length t.tframes.(0).iregs >= ni
               && Array.length t.tframes.(0).fregs >= nf
               && Array.length t.tframes.(0).bregs >= nb
               && Array.length t.tframes.(0).abase >= nc -> t
        | _ ->
          let team = new_team size in
          let frames =
            Array.init size (fun rank ->
                { iregs = Array.make (pad ni) 0
                ; fregs = Array.make (pad nf) 0.0
                ; bregs = Array.make (pad nb) sent
                ; fdat = Array.make (pad nc) [||]
                ; idat = Array.make (pad nc) [||]
                ; abase = Array.make (pad nc) 0
                ; lc = Some (new_lc team rank)
                ; glob = g
                })
          in
          ignore (Atomic.fetch_and_add g.frames size);
          let t = { tsize = size; tteam = team; tframes = frames; tphases = 0 } in
          if g.cfg.team_reuse then g.ts <- Some t;
          t
      in
      let job =
        match !jobcache with
        | Some (t, j) when t == ts -> j
        | _ ->
          let j rank =
            try
              (match g.cfg.fault with
               | Some Raise when rank = size - 1 -> raise Injected
               | Some Hang when rank = size - 1 ->
                 (* the fault-injected non-terminating loop: models a
                    mis-lowered kernel spinning forever while the rest
                    of the team piles up at the next barrier; only the
                    watchdog's cancel ends it *)
                 let n = ref 0 in
                 while not (Atomic.get g.cancel) do
                   incr n;
                   if !n land 4095 = 0 then Unix.sleepf 0.0005
                   else Domain.cpu_relax ()
                 done;
                 raise (Timeout g.cfg.timeout_ms)
               | _ -> ());
              body ts.tframes.(rank)
            with
            | Barrier.Poisoned ->
              (* another team member died and poisoned the barrier;
                 its exception carries the cause *)
              ()
            | e ->
              Barrier.poison ts.tteam.barrier;
              raise e
          in
          jobcache := Some (ts, j);
          j
      in
      (* per-thread memory views: scalar registers are blitted (so SSA
         values defined before the region are private, and alloca
         inside the region stays private), buffers are shared by
         reference *)
      for r = 0 to size - 1 do
        let t = ts.tframes.(r) in
        Array.blit fr.iregs 0 t.iregs 0 ni;
        Array.blit fr.fregs 0 t.fregs 0 nf;
        Array.blit fr.bregs 0 t.bregs 0 nb
      done;
      let finish () =
        Atomic.set g.live None;
        let ph = Barrier.phases ts.tteam.barrier in
        g.stats.barrier_phases <- g.stats.barrier_phases + (ph - ts.tphases);
        ts.tphases <- ph
      in
      Atomic.set g.live (Some ts.tteam);
      (match
         if size = 1 then job 0
         else begin
           let pool = Pool.get ~domains:size ~reuse:g.cfg.team_reuse in
           Fun.protect
             ~finally:(fun () -> Pool.release pool)
             (fun () -> Pool.run pool job)
         end
       with
       | () ->
         finish ();
         (* a watchdog-poisoned team unwinds with every rank swallowing
            [Barrier.Poisoned], so the launch "succeeds" with partial
            results; surface the cancellation here *)
         if Atomic.get g.cancel then begin
           g.ts <- None;
           raise (Timeout g.cfg.timeout_ms)
         end
       | exception e ->
         finish ();
         g.ts <- None;
         raise e)

and compile_wsloop ce op : code =
  let nd = Op.par_dims op in
  let log = Array.init nd (fun i -> iget ce (Op.par_lo op i)) in
  let hig = Array.init nd (fun i -> iget ce (Op.par_hi op i)) in
  let stg = Array.init nd (fun i -> iget ce (Op.par_step op i)) in
  let ivslots =
    Array.map
      (fun v ->
        match slot_of ce v with
        | SI k -> k
        | SF _ | SB _ -> raise (Unsupported "wsloop: non-integer iv"))
      op.Op.regions.(0).Op.rargs
  in
  (* hoisting applies to the (ubiquitous after coalescing) 1-d case,
     where the linear position maps affinely to the single iv *)
  let body, hoisted =
    if nd = 1 then compile_hoisted ce ~iv:ivslots.(0) op.Op.regions.(0)
    else (compile_region ce op.Op.regions.(0).Op.body, None)
  in
  let oid = op.Op.oid in
  fun fr ->
    let lo = Array.map (fun g -> g fr) log in
    let hi = Array.map (fun g -> g fr) hig in
    let step = Array.map (fun g -> g fr) stg in
    Array.iteri
      (fun d s -> if s <= 0 then Mem.fail "parallel: non-positive step %d" d)
      step;
    let counts =
      Array.init nd (fun d ->
          if hi.(d) <= lo.(d) then 0
          else (hi.(d) - lo.(d) + step.(d) - 1) / step.(d))
    in
    let n = Array.fold_left ( * ) 1 counts in
    (* run the linearized range [a, b); linear order matches the
       interpreter's enumeration (dim 0 fastest) *)
    let run_range =
      if nd = 1 then begin
        let l0 = lo.(0) and s0 = step.(0) and iv0 = ivslots.(0) in
        match hoisted with
        | None ->
          fun a b ->
            for p = a to b - 1 do
              fr.iregs.(iv0) <- l0 + (p * s0);
              body fr
            done
        | Some (all_pass, unchecked) ->
          fun a b ->
            if a < b then begin
              let bdy =
                if all_pass fr (l0 + (a * s0)) (l0 + ((b - 1) * s0)) then
                  unchecked
                else body
              in
              for p = a to b - 1 do
                fr.iregs.(iv0) <- l0 + (p * s0);
                bdy fr
              done
            end
      end
      else
        fun a b ->
          for p = a to b - 1 do
            let rem = ref p in
            for d = 0 to nd - 1 do
              fr.iregs.(ivslots.(d)) <- lo.(d) + (!rem mod counts.(d) * step.(d));
              rem := !rem / counts.(d)
            done;
            body fr
          done
    in
    match fr.lc with
    | None ->
      (* orphaned wsloop: team of one *)
      run_range 0 n;
      Atomic.incr fr.glob.chunks
    | Some lc ->
      let size = lc.team.size in
      if size = 1 then begin
        run_range 0 n;
        Atomic.incr fr.glob.chunks
      end
      else begin
        match fr.glob.cfg.schedule with
        | Schedule.Static ->
          let l, h = Schedule.static_chunk ~rank:lc.rank ~size ~n in
          run_range l h;
          Atomic.incr fr.glob.chunks
        | (Schedule.Dynamic | Schedule.Guided) as p ->
          (* Wsloops have no implicit trailing barrier, so team members
             may concurrently be in different encounters (generations)
             of this loop; the shared grab state is keyed by the
             per-thread encounter count and torn down by the last
             finisher. *)
          let gen =
            match Hashtbl.find_opt lc.ws_seen oid with
            | Some g -> g
            | None -> 0
          in
          Hashtbl.replace lc.ws_seen oid (gen + 1);
          let tm = lc.team in
          Mutex.lock tm.wmutex;
          let ws =
            match Hashtbl.find_opt tm.wtbl (oid, gen) with
            | Some ws -> ws
            | None ->
              let ws = { grab = Schedule.make_shared (); finishers = 0 } in
              Hashtbl.add tm.wtbl (oid, gen) ws;
              ws
          in
          Mutex.unlock tm.wmutex;
          let chunk = fr.glob.cfg.chunk in
          let grabbed = ref 0 in
          let rec grab_loop () =
            if Atomic.get fr.glob.cancel then
              raise (Timeout fr.glob.cfg.timeout_ms);
            match Schedule.next ?chunk ws.grab p ~size ~n with
            | Some (l, h) ->
              incr grabbed;
              run_range l h;
              grab_loop ()
            | None -> ()
          in
          grab_loop ();
          if !grabbed > 0 then
            ignore (Atomic.fetch_and_add fr.glob.chunks !grabbed);
          Mutex.lock tm.wmutex;
          ws.finishers <- ws.finishers + 1;
          if ws.finishers = size then Hashtbl.remove tm.wtbl (oid, gen);
          Mutex.unlock tm.wmutex
      end

and compile_call ce op name : code =
  match get_cfunc ce.cm name with
  | None -> fun _ -> Mem.fail "call to unknown function @%s" name
  | Some cf ->
    let sent = ce.cm.sentinel in
    let argg = Array.map (rv_get ce op) op.Op.operands in
    let has_res = Array.length op.Op.results = 1 in
    let res_slot = if has_res then Some (slot_of ce (Op.result op)) else None in
    fun fr ->
      if Array.length cf.params <> Array.length argg then
        Mem.fail "@%s: arity mismatch" name;
      let cfr = new_frame cf sent fr.lc fr.glob in
      Array.iteri (fun i g -> bind_slot cfr cf.params.(i) (g fr)) argg;
      let r = match cf.body cfr with () -> None | exception Ret v -> v in
      match res_slot, r with
      | Some s, Some v -> bind_slot fr s v
      | Some _, None -> Mem.fail "function @%s returned no value" name
      | None, _ -> ()

and get_cfunc (cm : cmod) (name : string) : cfunc option =
  match Hashtbl.find_opt cm.cfuncs name with
  | Some cf -> Some cf
  | None -> begin
    match Op.find_func cm.modul name with
    | None -> None
    | Some f ->
      (* insert a placeholder first so recursive calls resolve *)
      let cf =
        { ni = 0
        ; nf = 0
        ; nb = 0
        ; nc = 0
        ; params = [||]
        ; body = (fun _ -> Mem.fail "@%s: incomplete compilation" name)
        }
      in
      Hashtbl.add cm.cfuncs name cf;
      let ce =
        { cm
        ; slots = Hashtbl.create 64
        ; ni = 0
        ; nf = 0
        ; nb = 0
        ; nc = 0
        ; hstack = []
        ; emit_ivs = []
        ; cands = Hashtbl.create 16
        }
      in
      cf.params <- Array.map (slot_of ce) f.Op.regions.(0).Op.rargs;
      let body = compile_region ce f.Op.regions.(0).Op.body in
      cf.ni <- ce.ni;
      cf.nf <- ce.nf;
      cf.nb <- ce.nb;
      cf.nc <- ce.nc;
      cf.body <- body;
      Some cf
  end

(* --- public API --- *)

type compiled =
  { entry : cfunc
  ; sentinel : Mem.buffer
  ; glob : glob
  ; mutable eframe : frame option (* persistent entry frame *)
  }

let compile (modul : Op.op) (name : string) : compiled =
  let cm =
    { modul
    ; cfuncs = Hashtbl.create 8
    ; sentinel = Mem.alloc_buffer Types.Index [| 0 |]
    }
  in
  match get_cfunc cm name with
  | None -> Mem.fail "no function @%s in module" name
  | Some entry ->
    { entry
    ; sentinel = cm.sentinel
    ; glob =
        { cfg =
            { domains = 4
            ; schedule = Schedule.Static
            ; chunk = None
            ; team_reuse = true
            ; fault = None
            ; timeout_ms = 0
            }
        ; stats =
            { launches = 0
            ; barrier_phases = 0
            ; domain_spawns = 0
            ; chunks_grabbed = 0
            ; frames_allocated = 0
            }
        ; chunks = Atomic.make 0
        ; frames = Atomic.make 0
        ; cancel = Atomic.make false
        ; live = Atomic.make None
        ; ts = None
        }
    ; eframe = None
    }

let run ?(domains = 4) ?(schedule = Schedule.Static) ?chunk
    ?(team_reuse = true) ?fault ?(timeout_ms = 0) (c : compiled)
    (args : Mem.rv list) : Mem.rv option * stats =
  if domains < 1 then invalid_arg "Exec.run: domains must be >= 1";
  (match chunk with
   | Some k when k < 1 -> invalid_arg "Exec.run: chunk must be >= 1"
   | _ -> ());
  if timeout_ms < 0 then invalid_arg "Exec.run: timeout_ms must be >= 0";
  let g = c.glob in
  g.cfg.domains <- domains;
  g.cfg.schedule <- schedule;
  g.cfg.chunk <- chunk;
  g.cfg.team_reuse <- team_reuse;
  g.cfg.fault <- fault;
  g.cfg.timeout_ms <- timeout_ms;
  g.stats.launches <- 0;
  g.stats.barrier_phases <- 0;
  Atomic.set g.chunks 0;
  Atomic.set g.frames 0;
  Atomic.set g.cancel false;
  Atomic.set g.live None;
  let spawns0 = Pool.total_spawns () in
  let cf = c.entry in
  let args = Array.of_list args in
  if Array.length cf.params <> Array.length args then
    Mem.fail "entry: arity mismatch (%d args for %d params)"
      (Array.length args) (Array.length cf.params);
  (* the entry frame persists across runs: a repeated launch of the
     same compiled kernel allocates no frame at all *)
  let fr =
    match c.eframe with
    | Some fr -> fr
    | None ->
      let fr = new_frame cf c.sentinel None g in
      c.eframe <- Some fr;
      fr
  in
  Array.iteri (fun i s -> bind_slot fr s args.(i)) cf.params;
  (* the watchdog bounds the whole run's wall clock: on expiry it flips
     the cancel flag (observed at while back-edges and wsloop grabs)
     and poisons the live team's barrier (waking ranks sleeping there),
     so the run unwinds with [Timeout] instead of hanging *)
  let tok =
    if timeout_ms > 0 then
      Some
        (Watchdog.arm ~timeout_ms ~on_timeout:(fun () ->
             Atomic.set g.cancel true;
             match Atomic.get g.live with
             | Some team -> Barrier.poison team.barrier
             | None -> ()))
    else None
  in
  let result =
    Fun.protect
      ~finally:(fun () -> Option.iter Watchdog.disarm tok)
      (fun () -> match cf.body fr with () -> None | exception Ret v -> v)
  in
  g.stats.domain_spawns <- Pool.total_spawns () - spawns0;
  g.stats.chunks_grabbed <- Atomic.get g.chunks;
  g.stats.frames_allocated <- Atomic.get g.frames;
  ( result
  , { launches = g.stats.launches
    ; barrier_phases = g.stats.barrier_phases
    ; domain_spawns = g.stats.domain_spawns
    ; chunks_grabbed = g.stats.chunks_grabbed
    ; frames_allocated = g.stats.frames_allocated
    } )

let run_module ?domains ?schedule ?chunk ?team_reuse ?fault ?timeout_ms modul
    name args =
  run ?domains ?schedule ?chunk ?team_reuse ?fault ?timeout_ms
    (compile modul name) args
