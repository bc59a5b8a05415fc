(* Compile-to-closures multicore engine for the lowered OpenMP dialect.

   Compilation assigns every SSA value of a function a dense slot in one
   of three typed register files — ints, floats, buffers — chosen by the
   value's static type, and turns each op into an OCaml closure over a
   [frame] holding those files.  Compared to the tree-walking
   interpreter this removes the per-op dispatch on the op's kind and
   the [Mem.rv] boxing of every intermediate (floats live unboxed in a
   [float array]); loops become plain [while] loops over precompiled
   bodies.

   Every op is compiled against its operands' register slots, which
   are known at compile time: a scalar op is one closure per op kind
   that reads [iregs]/[fregs] at fixed indices and writes its result
   slot, so no float is boxed and no getter closure is called.  Where a
   literal settles something at compile time — the zero test of a
   divisor, the branch of an [scf.if] — the value of an [arith.constant]
   in scope is used instead of its register.  An operand whose slot kind differs from the op's (an int
   register read as a float, a truncating cast) is first converted into
   a temporary register by a closure chosen at compile time from the
   slot kinds.

   Scalar ops compute {!Interp.Scalar.eval} ([test_scalar_edges] in
   test/test_runtime.ml checks every op, bits and error texts): all
   float arithmetic in double precision with f32 rounding only at f32
   constants and casts-to-f32, integer division/modulo by zero failing.
   [scf.for] bounds are evaluated once.  [scf.parallel] regions are
   executed as serial nested loops in the interpreter's iteration order;
   if they still contain GPU barriers, the function is rejected at
   compile time ({!Unsupported}) so the driver can degrade to the fiber
   interpreter.

   A memory access compiles to one of two paths.  The checked path
   reads each index from an int register or evaluates it as an affine
   form, and inlines the sentinel test, the rank test, the bounds tests
   (in {!Mem.lindex}'s order, with its messages) and the
   [Fdata]/[Idata] dispatch; ranks 0–3 are specialized closures, higher
   ranks run a loop over the indices, and none allocates.  The proven
   path serves an access proven in bounds by compile-time facts, each
   valid from its def to the end of the op list holding the def: int
   constants, the ranges of loop ivs with literal bounds, and the
   literal dims of allocs (a lowered kernel's shared tiles and slabs).
   It computes one flat affine offset into the data array and runs no
   test of its own; OCaml's check on [a.(o)] stays.  A single-use chain
   of int [addi]/[subi]/[muli]/[shli] ops feeding an access index or an
   int [cmp] in the same op list folds into it as [c0 + Σ c·reg] (at
   most [max_terms] registers): wrapping ints give the chain's bits,
   and the chain cannot fail, so checks and texts are unchanged.  An
   [scf.for] whose body is, besides folded index ops, [acc + load *
   load], or that under an [scf.if] on an int [cmp] (a ragged edge),
   runs as one closure that loops internally with the sum in a local
   float and tests the guard inline on each trip.  Checked, each trip
   runs both loads' checks in the unfused order; proven, each offset
   advances by a constant stride.  Both keep the IR's operand order (it
   decides NaN payloads).  Every region is compiled exactly once, so
   compile cost is linear in the IR.

   Team execution ([omp.parallel]) launches one frame per thread on a
   {!Pool}.  The frames live in a persistent, cache-line-padded team
   state owned by the compiled function: a launch blits the master's
   register files into them and posts a cached job closure, so the
   steady-state launch path allocates nothing.  [omp.wsloop] linearizes
   its iteration space and partitions it per {!Schedule}; a chunk of a
   multi-dimensional loop delinearizes its first position once and then
   advances the ivs like an odometer (dim 0 fastest, the interpreter's
   order).  Because wsloops carry no implicit trailing barrier, team
   members may enter the same dynamic loop different numbers of times
   concurrently, so the shared grab state is keyed by (loop oid,
   per-thread encounter count) — the "generation" — and discarded by
   the last finisher. *)

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

type cfunc =
  { mutable ni : int
  ; mutable nf : int
  ; mutable nb : int
  ; mutable params : slot array
  ; mutable body : code
  }

type cmod =
  { modul : Op.op
  ; cfuncs : (string, cfunc) Hashtbl.t
  ; sentinel : Mem.buffer
    (* per-compile unbound-register marker; never a user buffer *)
  ; mutable proven : int (* accesses compiled proven in bounds *)
  ; mutable dots : int (* fused dot loops without a guard *)
  ; mutable guarded_dots : int (* fused dot loops with one *)
  }

(* Tables keyed by [Value.id], hashed without a C call: the fold plan
   looks up every operand of a function. *)
module Idtbl = Hashtbl.Make (struct
    type t = int

    let equal = Int.equal
    let hash x = x land max_int
  end)

(* The affine form [c0 + Σ coef·reg] of a folded index chain, over at
   most [max_terms] distinct int registers. *)
type form =
  { c0 : int
  ; terms : (int * int) list (* (register, coefficient <> 0) *)
  }

type cenv =
  { cm : cmod
  ; slots : (int, slot) Hashtbl.t (* Value.id -> slot *)
  ; mutable ni : int
  ; mutable nf : int
  ; mutable nb : int
  ; folds : int Idtbl.t
    (* Value.id of an index op's result -> 0 if it may fold ([fold_plan]) *)
  ; forms : (form * Op.binop * Op.op) Idtbl.t
    (* Value.id -> form, kind and op of an index op folded so far *)
  ; ranges : (int * int) Idtbl.t
    (* int register -> the range of its value, while the fact holds *)
  ; dims : int array Idtbl.t
    (* buffer register -> the literal dims of its alloc, likewise *)
  ; mutable scope : slot list (* the registers with a fact, latest first *)
  }

(* --- slot assignment and typed accessors --- *)

let new_islot (ce : cenv) =
  let k = ce.ni in
  ce.ni <- k + 1;
  k

let new_fslot (ce : cenv) =
  let k = ce.nf in
  ce.nf <- k + 1;
  k

let slot_of (ce : cenv) (v : Value.t) : slot =
  match Hashtbl.find_opt ce.slots v.Value.id with
  | Some s -> s
  | None ->
    let s =
      match v.Value.typ with
      | Types.Scalar d when Types.is_float_dtype d -> SF (new_fslot ce)
      | Types.Scalar _ -> SI (new_islot ce)
      | Types.Memref _ ->
        let k = ce.nb in
        ce.nb <- k + 1;
        SB k
    in
    Hashtbl.add ce.slots v.Value.id s;
    s

(* Register reads and writes.  Every frame of a function holds at least
   the function's slot counts, so the indices are in range by
   construction. *)
let[@inline] ig (fr : frame) k = Array.unsafe_get fr.iregs k
let[@inline] fg (fr : frame) k = Array.unsafe_get fr.fregs k
let[@inline] is (fr : frame) k (x : int) = Array.unsafe_set fr.iregs k x
let[@inline] fs (fr : frame) k (x : float) = Array.unsafe_set fr.fregs k x

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

(* --- register-direct operands --- *)

let nop : code = fun _ -> ()

(* Run [codes] in order; up to four are chained directly, longer
   sequences loop over an array.  [nop]s are dropped. *)
let seq (codes : code list) : code =
  match List.filter (fun c -> c != nop) codes with
  | [] -> nop
  | [ a ] -> a
  | [ a; b ] ->
    fun fr ->
      a fr;
      b fr
  | [ a; b; c ] ->
    fun fr ->
      a fr;
      b fr;
      c fr
  | [ a; b; c; d ] ->
    fun fr ->
      a fr;
      b fr;
      c fr;
      d fr
  | codes ->
    let codes = Array.of_list codes in
    let n = Array.length codes in
    fun fr ->
      for i = 0 to n - 1 do
        (Array.unsafe_get codes i) fr
      done

(* The register an op reads operand [v] from.  A same-kind operand is
   its own slot.  Any other is converted into a fresh temporary register
   by a closure pushed onto [pre], which runs before the op; a read the
   interpreter rejects fails there. *)
let conv_temp ce pre ~fresh (conv : int -> code) =
  let t = fresh ce in
  pre := conv t :: !pre;
  t

let ireg ce pre v =
  match slot_of ce v with
  | SI k -> k
  | SF _ ->
    conv_temp ce pre ~fresh:new_islot (fun _ _ ->
        Mem.fail "expected integer value, got float")
  | SB _ ->
    conv_temp ce pre ~fresh:new_islot (fun _ _ ->
        Mem.fail "expected integer value, got buffer")

let freg ce pre v =
  match slot_of ce v with
  | SF k -> k
  | SI k ->
    conv_temp ce pre ~fresh:new_fslot (fun t fr ->
        fs fr t (float_of_int (ig fr k)))
  | SB _ ->
    conv_temp ce pre ~fresh:new_fslot (fun _ _ ->
        Mem.fail "expected float value, got buffer")

(* Truncating view for casts to integer types, like
   [Mem.as_int_or_trunc]. *)
let treg ce pre v =
  match slot_of ce v with
  | SI k -> k
  | SF k ->
    conv_temp ce pre ~fresh:new_islot (fun t fr ->
        is fr t (int_of_float (fg fr k)))
  | SB _ ->
    conv_temp ce pre ~fresh:new_islot (fun _ _ ->
        Mem.fail "expected scalar value, got buffer")

(* The register an op writes result [v] to: its own slot, or a
   temporary that a closure pushed onto [post] hands to the typed
   setter, which fails on the mismatched kind. *)
let ires ce post v =
  match slot_of ce v with
  | SI k -> k
  | SF _ | SB _ ->
    let t = new_islot ce and set = iset ce v in
    post := (fun fr -> set fr (ig fr t)) :: !post;
    t

let fres ce post v =
  match slot_of ce v with
  | SF k -> k
  | SI _ | SB _ ->
    let t = new_fslot ce and set = fset ce v in
    post := (fun fr -> set fr (fg fr t)) :: !post;
    t

(* An int operand's literal, if a fact gives it one ([compile_region]
   on facts): an int constant compiled earlier in scope, or the iv of a
   loop that runs once. *)
let int_lit ce (v : Value.t) =
  match slot_of ce v with
  | SI k -> (
    match Idtbl.find_opt ce.ranges k with
    | Some (a, b) when a = b -> Some a
    | _ -> None)
  | SF _ | SB _ -> None

(* Compile one scalar op: [core] gets the operand/result registers
   through [pre]/[post]; the conversions run around it. *)
let with_conv (core : code list ref -> code list ref -> code) : code =
  let pre = ref [] and post = ref [] in
  let c = core pre post in
  seq (List.rev_append !pre (c :: List.rev !post))

(* --- scalar op semantics: {!Interp.Scalar.eval} on registers, pinned
   bit for bit by [test_scalar_edges] in test/test_runtime.ml --- *)

let ibin (kind : Op.binop) r x y : code =
  match kind with
  | Op.Add -> fun fr -> is fr r (ig fr x + ig fr y)
  | Op.Sub -> fun fr -> is fr r (ig fr x - ig fr y)
  | Op.Mul -> fun fr -> is fr r (ig fr x * ig fr y)
  | Op.Div ->
    fun fr ->
      let d = ig fr y in
      if d = 0 then Mem.fail "integer division by zero";
      is fr r (ig fr x / d)
  | Op.Rem ->
    fun fr ->
      let d = ig fr y in
      if d = 0 then Mem.fail "integer modulo by zero";
      is fr r (ig fr x mod d)
  | Op.Min ->
    fun fr ->
      let a = ig fr x and b = ig fr y in
      is fr r (if a <= b then a else b)
  | Op.Max ->
    fun fr ->
      let a = ig fr x and b = ig fr y in
      is fr r (if a >= b then a else b)
  | Op.And -> fun fr -> is fr r (ig fr x land ig fr y)
  | Op.Or -> fun fr -> is fr r (ig fr x lor ig fr y)
  | Op.Xor -> fun fr -> is fr r (ig fr x lxor ig fr y)
  | Op.Shl -> fun fr -> is fr r (ig fr x lsl ig fr y)
  | Op.Shr -> fun fr -> is fr r (ig fr x asr ig fr y)

(* Division and remainder by a literal: the zero test is settled at
   compile time. *)
let idiv_lit (kind : Op.binop) r x n : code =
  match kind, n with
  | Op.Div, 0 -> fun _ -> Mem.fail "integer division by zero"
  | Op.Rem, 0 -> fun _ -> Mem.fail "integer modulo by zero"
  | Op.Div, n -> fun fr -> is fr r (ig fr x / n)
  | _, n -> fun fr -> is fr r (ig fr x mod n)

let fbin (kind : Op.binop) r x y : code =
  match kind with
  | Op.Add -> fun fr -> fs fr r (fg fr x +. fg fr y)
  | Op.Sub -> fun fr -> fs fr r (fg fr x -. fg fr y)
  | Op.Mul -> fun fr -> fs fr r (fg fr x *. fg fr y)
  | Op.Div -> fun fr -> fs fr r (fg fr x /. fg fr y)
  | Op.Rem -> fun fr -> fs fr r (Float.rem (fg fr x) (fg fr y))
  | Op.Min -> fun fr -> fs fr r (Float.min (fg fr x) (fg fr y))
  | Op.Max -> fun fr -> fs fr r (Float.max (fg fr x) (fg fr y))
  | Op.And | Op.Or | Op.Xor | Op.Shl | Op.Shr ->
    fun _ -> Mem.fail "bitwise op on float"

let[@inline] b2i b = if b then 1 else 0

let[@inline] itest (pred : Op.cmp_pred) (a : int) (b : int) =
  match pred with
  | Op.Eq -> a = b
  | Op.Ne -> a <> b
  | Op.Lt -> a < b
  | Op.Le -> a <= b
  | Op.Gt -> a > b
  | Op.Ge -> a >= b

let icmp (pred : Op.cmp_pred) r x y : code =
  match pred with
  | Op.Eq -> fun fr -> is fr r (b2i (ig fr x = ig fr y))
  | Op.Ne -> fun fr -> is fr r (b2i (ig fr x <> ig fr y))
  | Op.Lt -> fun fr -> is fr r (b2i (ig fr x < ig fr y))
  | Op.Le -> fun fr -> is fr r (b2i (ig fr x <= ig fr y))
  | Op.Gt -> fun fr -> is fr r (b2i (ig fr x > ig fr y))
  | Op.Ge -> fun fr -> is fr r (b2i (ig fr x >= ig fr y))

let fcmp (pred : Op.cmp_pred) r x y : code =
  match pred with
  | Op.Eq -> fun fr -> is fr r (b2i (fg fr x = fg fr y))
  | Op.Ne -> fun fr -> is fr r (b2i (fg fr x <> fg fr y))
  | Op.Lt -> fun fr -> is fr r (b2i (fg fr x < fg fr y))
  | Op.Le -> fun fr -> is fr r (b2i (fg fr x <= fg fr y))
  | Op.Gt -> fun fr -> is fr r (b2i (fg fr x > fg fr y))
  | Op.Ge -> fun fr -> is fr r (b2i (fg fr x >= fg fr y))

(* One-operand float functions ([Not] and [Pow] are compiled apart). *)
let fmath (fn : Op.math_fn) r x : code =
  match fn with
  | Op.Sqrt -> fun fr -> fs fr r (sqrt (fg fr x))
  | Op.Exp -> fun fr -> fs fr r (exp (fg fr x))
  | Op.Log -> fun fr -> fs fr r (log (fg fr x))
  | Op.Log2 -> fun fr -> fs fr r (Scalar.log2 (fg fr x))
  | Op.Fabs -> fun fr -> fs fr r (Float.abs (fg fr x))
  | Op.Floor -> fun fr -> fs fr r (Float.floor (fg fr x))
  | Op.Neg -> fun fr -> fs fr r (-.fg fr x)
  | Op.Sin -> fun fr -> fs fr r (sin (fg fr x))
  | Op.Cos -> fun fr -> fs fr r (cos (fg fr x))
  | Op.Tanh -> fun fr -> fs fr r (tanh (fg fr x))
  | Op.Erf -> fun fr -> fs fr r (Scalar.erf (fg fr x))
  | Op.Not | Op.Pow -> fun _ -> Mem.fail "math: bad arity"

(* --- checked element access --- *)

(* An index of a checked access: an int register, or the affine form
   [c0 + Σ cs.(t) * reg rs.(t)] of a folded index chain. *)
type index =
  | Reg of int
  | Aff of int * int array * int array

let aff (fr : frame) c0 (cs : int array) (rs : int array) =
  let s = ref c0 in
  for t = 0 to Array.length rs - 1 do
    s := !s + (Array.unsafe_get cs t * ig fr (Array.unsafe_get rs t))
  done;
  !s

let[@inline] ev (fr : frame) = function
  | Reg r -> ig fr r
  | Aff (c0, cs, rs) -> aff fr c0 cs rs

(* Checked row-major offsets, testing in [Mem.lindex]'s order: the rank,
   then each index, outermost first. *)
let[@inline] off0 (b : Mem.buffer) =
  if Array.length b.Mem.dims <> 0 then Mem.rank_mismatch b 0;
  0

let[@inline] off1 (b : Mem.buffer) i =
  let d = b.Mem.dims in
  if Array.length d <> 1 then Mem.rank_mismatch b 1;
  if i < 0 || i >= Array.unsafe_get d 0 then Mem.out_of_bounds b i 0;
  i

let[@inline] off2 (b : Mem.buffer) i j =
  let d = b.Mem.dims in
  if Array.length d <> 2 then Mem.rank_mismatch b 2;
  let d1 = Array.unsafe_get d 1 in
  if i < 0 || i >= Array.unsafe_get d 0 then Mem.out_of_bounds b i 0;
  if j < 0 || j >= d1 then Mem.out_of_bounds b j 1;
  (i * d1) + j

let[@inline] off3 (b : Mem.buffer) i j k =
  let d = b.Mem.dims in
  if Array.length d <> 3 then Mem.rank_mismatch b 3;
  let d1 = Array.unsafe_get d 1 and d2 = Array.unsafe_get d 2 in
  if i < 0 || i >= Array.unsafe_get d 0 then Mem.out_of_bounds b i 0;
  if j < 0 || j >= d1 then Mem.out_of_bounds b j 1;
  if k < 0 || k >= d2 then Mem.out_of_bounds b k 2;
  (((i * d1) + j) * d2) + k

(* Any rank; allocates nothing. *)
let offn (b : Mem.buffer) (fr : frame) (ix : index array) =
  let d = b.Mem.dims and n = Array.length ix in
  if Array.length d <> n then Mem.rank_mismatch b n;
  let off = ref 0 in
  for i = 0 to n - 1 do
    let x = ev fr (Array.unsafe_get ix i) and di = Array.unsafe_get d i in
    if x < 0 || x >= di then Mem.out_of_bounds b x i;
    off := (!off * di) + x
  done;
  !off

(* The checked offset of an access of any rank.  Inlined into the dot
   loop, this match costs less per trip than a closure chosen by rank at
   compile time. *)
let[@inline] offset (b : Mem.buffer) fr (ix : index array) =
  match ix with
  | [||] -> off0 b
  | [| i |] -> off1 b (ev fr i)
  | [| i; j |] -> off2 b (ev fr i) (ev fr j)
  | [| i; j; l |] -> off3 b (ev fr i) (ev fr j) (ev fr l)
  | _ -> offn b fr ix

(* One element at a checked offset [o], between the buffer and the
   register [k]; cross-dtype accesses convert like [Mem.load]/[store]. *)
let[@inline] ld (b : Mem.buffer) o =
  match b.Mem.data with
  | Mem.Fdata a -> a.(o)
  | Mem.Idata a -> float_of_int a.(o)

let[@inline] ldf fr k (b : Mem.buffer) o = fs fr k (ld b o)

let[@inline] ldi fr k (b : Mem.buffer) o =
  match b.Mem.data with
  | Mem.Idata a -> is fr k a.(o)
  | Mem.Fdata a -> is fr k (int_of_float a.(o))

let[@inline] stf fr k (b : Mem.buffer) o =
  match b.Mem.data with
  | Mem.Fdata a -> a.(o) <- fg fr k
  | Mem.Idata a -> a.(o) <- int_of_float (fg fr k)

let[@inline] sti fr k (b : Mem.buffer) o =
  match b.Mem.data with
  | Mem.Idata a -> a.(o) <- ig fr k
  | Mem.Fdata a -> a.(o) <- float_of_int (ig fr k)

(* What a checked access does with the element: load into, or store
   from, a float or int register. *)
type elem_op =
  | Ldf of int
  | Ldi of int
  | Stf of int
  | Sti of int

(* The checked access closure for buffer register [bk] and indices
   [ix]: the sentinel test, then the offset, then the element op — one
   closure per (rank up to 3, element op). *)
let checked_access (sent : Mem.buffer) (op : Op.op) (bufv : Value.t) bk
    (ix : index array) (e : elem_op) : code =
  let[@inline] buf fr =
    let b = Array.unsafe_get fr.bregs bk in
    if b == sent then unbound op bufv else b
  in
  match Array.length ix, e with
  | 0, Ldf k -> fun fr -> let b = buf fr in ldf fr k b (off0 b)
  | 0, Ldi k -> fun fr -> let b = buf fr in ldi fr k b (off0 b)
  | 0, Stf k -> fun fr -> let b = buf fr in stf fr k b (off0 b)
  | 0, Sti k -> fun fr -> let b = buf fr in sti fr k b (off0 b)
  | 1, Ldf k ->
    let i = ix.(0) in
    fun fr -> let b = buf fr in ldf fr k b (off1 b (ev fr i))
  | 1, Ldi k ->
    let i = ix.(0) in
    fun fr -> let b = buf fr in ldi fr k b (off1 b (ev fr i))
  | 1, Stf k ->
    let i = ix.(0) in
    fun fr -> let b = buf fr in stf fr k b (off1 b (ev fr i))
  | 1, Sti k ->
    let i = ix.(0) in
    fun fr -> let b = buf fr in sti fr k b (off1 b (ev fr i))
  | 2, Ldf k ->
    let i = ix.(0) and j = ix.(1) in
    fun fr -> let b = buf fr in ldf fr k b (off2 b (ev fr i) (ev fr j))
  | 2, Ldi k ->
    let i = ix.(0) and j = ix.(1) in
    fun fr -> let b = buf fr in ldi fr k b (off2 b (ev fr i) (ev fr j))
  | 2, Stf k ->
    let i = ix.(0) and j = ix.(1) in
    fun fr -> let b = buf fr in stf fr k b (off2 b (ev fr i) (ev fr j))
  | 2, Sti k ->
    let i = ix.(0) and j = ix.(1) in
    fun fr -> let b = buf fr in sti fr k b (off2 b (ev fr i) (ev fr j))
  | 3, Ldf k ->
    let i = ix.(0) and j = ix.(1) and l = ix.(2) in
    fun fr ->
      let b = buf fr in
      ldf fr k b (off3 b (ev fr i) (ev fr j) (ev fr l))
  | 3, Ldi k ->
    let i = ix.(0) and j = ix.(1) and l = ix.(2) in
    fun fr ->
      let b = buf fr in
      ldi fr k b (off3 b (ev fr i) (ev fr j) (ev fr l))
  | 3, Stf k ->
    let i = ix.(0) and j = ix.(1) and l = ix.(2) in
    fun fr ->
      let b = buf fr in
      stf fr k b (off3 b (ev fr i) (ev fr j) (ev fr l))
  | 3, Sti k ->
    let i = ix.(0) and j = ix.(1) and l = ix.(2) in
    fun fr ->
      let b = buf fr in
      sti fr k b (off3 b (ev fr i) (ev fr j) (ev fr l))
  | _, Ldf k -> fun fr -> let b = buf fr in ldf fr k b (offn b fr ix)
  | _, Ldi k -> fun fr -> let b = buf fr in ldi fr k b (offn b fr ix)
  | _, Stf k -> fun fr -> let b = buf fr in stf fr k b (offn b fr ix)
  | _, Sti k -> fun fr -> let b = buf fr in sti fr k b (offn b fr ix)

(* --- teams --- *)

let new_team size =
  { size
  ; barrier = Barrier.create size
  ; wmutex = Mutex.create ()
  ; wtbl = Hashtbl.create 16
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
  ; lc
  ; glob
  }

(* --- folded index chains ---

   An index op (an int [addi], [subi], [muli] or [shli]) whose one use
   is a later op of the same op list, reading it as a load's or store's
   index, as an int [cmp]'s operand or as another index op's operand,
   folds: it compiles to nothing, and its consumer evaluates the affine
   form of the chain.
   Only ops of one list fold together, so a def outside a loop is never
   recomputed inside it.  Native ints wrap, so the distributed form has
   the chain's bits; the ops cannot fail, and SSA keeps every register
   the form reads unchanged between the def and the use. *)

let max_terms = 4

let is_int (v : Value.t) =
  match v.Value.typ with
  | Types.Scalar d -> not (Types.is_float_dtype d)
  | Types.Memref _ -> false

let index_op (op : Op.op) =
  match op.Op.kind with
  | Op.Binop (Op.Add | Op.Sub | Op.Mul | Op.Shl) ->
    Array.length op.Op.operands = 2
    && Array.length op.Op.results = 1
    && is_int op.Op.operands.(0)
    && is_int op.Op.operands.(1)
    && is_int op.Op.results.(0)
  | _ -> false

let int_cmp (op : Op.op) =
  match op.Op.operands with
  | [| x; y |] -> is_int x && is_int y
  | _ -> false

(* The index ops of a function body that may fold, in one pre-order
   pass (a def comes before its uses): an index op's result starts as
   its list's token; its first use sets 0 if it is an index read in the
   same list (an access index, an int cmp's operand or an index op's
   operand), and any other use sets -1. *)
let fold_plan (body : Op.region) : int Idtbl.t =
  let st = Idtbl.create 16 and lists = ref 0 in
  let rec walk (ops : Op.op list) =
    incr lists;
    let tok = !lists in
    List.iter
      (fun (op : Op.op) ->
        let first =
          match op.Op.kind with
          | Op.Load -> 1
          | Op.Store -> 2
          | Op.Cmp _ when int_cmp op -> 0
          | _ -> if index_op op then 0 else max_int
        in
        Array.iteri
          (fun i (v : Value.t) ->
            match Idtbl.find_opt st v.Value.id with
            | Some s ->
              Idtbl.replace st v.Value.id
                (if s = tok && i >= first then 0 else -1)
            | None -> ())
          op.Op.operands;
        Array.iter (fun (r : Op.region) -> walk r.Op.body) op.Op.regions;
        if index_op op then Idtbl.replace st (Op.result op).Value.id tok)
      ops
  in
  walk body.Op.body;
  st

let form_add f g =
  let add ts (r, c) =
    match List.assoc_opt r ts with
    | None -> (r, c) :: ts
    | Some c' ->
      let ts = List.remove_assoc r ts in
      if c + c' = 0 then ts else (r, c + c') :: ts
  in
  { c0 = f.c0 + g.c0; terms = List.fold_left add f.terms g.terms }

let form_scale f n =
  { c0 = f.c0 * n
  ; terms =
      List.filter_map
        (fun (r, c) -> if c * n = 0 then None else Some (r, c * n))
        f.terms
  }

(* An operand of an index op as a form: a folded op's, a literal, or its
   int register. *)
let operand_form ce (v : Value.t) =
  match Idtbl.find_opt ce.forms v.Value.id with
  | Some (f, _, _) -> Some f
  | None -> (
    match int_lit ce v with
    | Some n -> Some { c0 = n; terms = [] }
    | None -> (
      match slot_of ce v with
      | SI k -> Some { c0 = 0; terms = [ (k, 1) ] }
      | SF _ | SB _ -> None))

(* The form of an index op, if it is affine within [max_terms]. *)
let affine_form ce (op : Op.op) : form option =
  let o = op.Op.operands in
  match operand_form ce o.(0), operand_form ce o.(1) with
  | Some f, Some g -> (
    let lit h = if h.terms = [] then Some h.c0 else None in
    let r =
      match op.Op.kind, lit f, lit g with
      | Op.Binop Op.Add, _, _ -> Some (form_add f g)
      | Op.Binop Op.Sub, _, _ -> Some (form_add f (form_scale g (-1)))
      | Op.Binop Op.Mul, _, Some n -> Some (form_scale f n)
      | Op.Binop Op.Mul, Some n, None -> Some (form_scale g n)
      | Op.Binop Op.Shl, _, Some n when n >= 0 && n <= 62 ->
        Some (form_scale f (1 lsl n))
      | _ -> None
    in
    match r with
    | Some h when List.length h.terms <= max_terms -> r
    | _ -> None)
  | _ -> None

let index_of_form = function
  | { c0 = 0; terms = [ (r, 1) ] } -> Reg r
  | { c0; terms } ->
    Aff
      ( c0
      , Array.of_list (List.map snd terms)
      , Array.of_list (List.map fst terms) )

let form_of_index = function
  | Reg r -> { c0 = 0; terms = [ (r, 1) ] }
  | Aff (c0, cs, rs) ->
    { c0; terms = List.combine (Array.to_list rs) (Array.to_list cs) }

(* An access index: a folded op's form, or an int register. *)
let index ce pre (v : Value.t) : index =
  match Idtbl.find_opt ce.forms v.Value.id with
  | Some (f, _, _) -> index_of_form f
  | None -> Reg (ireg ce pre v)

(* --- compile-time facts and proven accesses ---

   While a function compiles, [ce.ranges] and [ce.dims] hold facts
   about registers, each from its def to the end of the op list that
   holds the def: the value of an int constant; the range of an
   [scf.for], [scf.parallel] or [omp.wsloop] iv whose bounds are
   literals, whose step is a positive literal and whose increment
   cannot wrap; and the dims of an alloc whose every dim is static or a
   literal operand.  SSA writes each such register only at its def,
   which runs before every later op of its list and of the regions
   nested in them.  An access whose buffer has literal dims of its rank
   and whose index ranges lie inside them is proven: it compiles to one
   flat offset into the data array, with no sentinel, rank or bounds
   test.  The array read [a.(o)] keeps OCaml's own check, so memory
   safety never rests on a proof. *)

let add_nowrap a b =
  let s = a + b in
  if (a >= 0) = (b >= 0) && (s >= 0) <> (a >= 0) then None else Some s

let sub_nowrap a b =
  let d = a - b in
  if (a >= 0) <> (b >= 0) && (d >= 0) <> (a >= 0) then None else Some d

let mul_nowrap a b =
  if a = 0 || b = 0 then Some 0
  else if a = min_int || b = min_int || abs a > max_int / abs b then None
  else Some (a * b)

let set_range ce k r =
  Idtbl.replace ce.ranges k r;
  ce.scope <- SI k :: ce.scope

(* Drop the facts set since [mark], an earlier [ce.scope]. *)
let drop_facts ce mark =
  let rec go = function
    | l when l == mark -> ()
    | SI k :: l ->
      Idtbl.remove ce.ranges k;
      go l
    | SB k :: l ->
      Idtbl.remove ce.dims k;
      go l
    | SF _ :: l -> go l
    | [] -> ()
  in
  go ce.scope;
  ce.scope <- mark

(* The values the iv of a loop over [lo, hi) by [step] takes, if all
   three are literals here, [step > 0], the loop runs, and neither the
   increment past the last value nor a worksharing loop's trip count
   [(hi - lo + step - 1) / step] can wrap. *)
let iv_range ce lo hi step =
  match int_lit ce lo, int_lit ce hi, int_lit ce step with
  | Some lo, Some hi, Some step when step > 0 && lo < hi -> (
    match sub_nowrap hi lo, add_nowrap (hi - 1) step with
    | Some span, Some _ when add_nowrap (span - 1) step <> None ->
      Some (lo, lo + ((span - 1) / step * step))
    | _ -> None)
  | _ -> None

(* The dims fact of an alloc's result: every dim literal and positive,
   the element count representable. *)
let alloc_fact ce (v : Value.t) (dims : int option list) =
  match slot_of ce v with
  | SB k when List.for_all (function Some n -> n > 0 | None -> false) dims ->
    let d = Array.of_list (List.map Option.get dims) in
    if Array.fold_left (fun n x -> Option.bind n (mul_nowrap x)) (Some 1) d <> None
    then begin
      Idtbl.replace ce.dims k d;
      ce.scope <- SB k :: ce.scope
    end
  | _ -> ()

(* The range of [c0 + Σ c·reg] over its registers' facts: [None] if a
   register has none, or before a product or sum could wrap. *)
let form_range ce (f : form) =
  List.fold_left
    (fun acc (r, c) ->
      match acc, Idtbl.find_opt ce.ranges r with
      | Some (lo, hi), Some (rlo, rhi) -> (
        match mul_nowrap c rlo, mul_nowrap c rhi with
        | Some x, Some y -> (
          match add_nowrap lo (min x y), add_nowrap hi (max x y) with
          | Some lo, Some hi -> Some (lo, hi)
          | _ -> None)
        | _ -> None)
      | _ -> None)
    (Some (f.c0, f.c0)) f.terms

(* The flat offset of an access proven in bounds: its buffer register
   has literal dims of the access's rank, and each index's range lies
   inside its dim.  The row-major sum wraps like the runtime's ints;
   the true offset is below the element count, so the two agree. *)
let proven_offset ce bk (ix : index array) : form option =
  match Idtbl.find_opt ce.dims bk with
  | Some d when Array.length d = Array.length ix ->
    let inside i x =
      match form_range ce (form_of_index x) with
      | Some (lo, hi) -> lo >= 0 && hi < d.(i)
      | None -> false
    in
    let rec all i = i = Array.length ix || (inside i ix.(i) && all (i + 1)) in
    if not (all 0) then None
    else
      Some
        (Array.fold_left
           (fun (f, i) x ->
             (form_add (form_scale f d.(i)) (form_of_index x), i + 1))
           ({ c0 = 0; terms = [] }, 0)
           ix
         |> fst)
  | _ -> None

(* A proven access: the flat offset [f], then the element op. *)
let proven_access bk (f : form) (e : elem_op) : code =
  let c0 = f.c0 in
  match f.terms, e with
  | [ (r, c) ], Ldf k ->
    fun fr -> ldf fr k (Array.unsafe_get fr.bregs bk) (c0 + (c * ig fr r))
  | [ (r, c) ], Ldi k ->
    fun fr -> ldi fr k (Array.unsafe_get fr.bregs bk) (c0 + (c * ig fr r))
  | [ (r, c) ], Stf k ->
    fun fr -> stf fr k (Array.unsafe_get fr.bregs bk) (c0 + (c * ig fr r))
  | [ (r, c) ], Sti k ->
    fun fr -> sti fr k (Array.unsafe_get fr.bregs bk) (c0 + (c * ig fr r))
  | [ (r, c); (r', c') ], Ldf k ->
    fun fr ->
      ldf fr k (Array.unsafe_get fr.bregs bk)
        (c0 + (c * ig fr r) + (c' * ig fr r'))
  | [ (r, c); (r', c') ], Ldi k ->
    fun fr ->
      ldi fr k (Array.unsafe_get fr.bregs bk)
        (c0 + (c * ig fr r) + (c' * ig fr r'))
  | [ (r, c); (r', c') ], Stf k ->
    fun fr ->
      stf fr k (Array.unsafe_get fr.bregs bk)
        (c0 + (c * ig fr r) + (c' * ig fr r'))
  | [ (r, c); (r', c') ], Sti k ->
    fun fr ->
      sti fr k (Array.unsafe_get fr.bregs bk)
        (c0 + (c * ig fr r) + (c' * ig fr r'))
  | ts, e -> (
    let cs = Array.of_list (List.map snd ts)
    and rs = Array.of_list (List.map fst ts) in
    match e with
    | Ldf k -> fun fr -> ldf fr k (Array.unsafe_get fr.bregs bk) (aff fr c0 cs rs)
    | Ldi k -> fun fr -> ldi fr k (Array.unsafe_get fr.bregs bk) (aff fr c0 cs rs)
    | Stf k -> fun fr -> stf fr k (Array.unsafe_get fr.bregs bk) (aff fr c0 cs rs)
    | Sti k -> fun fr -> sti fr k (Array.unsafe_get fr.bregs bk) (aff fr c0 cs rs))

(* --- the fused dot loop --- *)

(* A float load of the dot loop: its op and buffer value (for the
   unbound error), buffer register, indices, and its flat offset if it
   is proven in bounds. *)
type access =
  { aop : Op.op
  ; abuf : Value.t
  ; bk : int
  ; ix : index array
  ; flat : form option
  }

(* A float load with no conversion before it, as the dot loop runs it. *)
let load_access ce (l : Op.op) : access option =
  match l.Op.kind, l.Op.results with
  | Op.Load, [| r |] -> begin
    let bufv = l.Op.operands.(0) and pre = ref [] in
    let ix =
      Array.map (index ce pre)
        (Array.sub l.Op.operands 1 (Array.length l.Op.operands - 1))
    in
    match slot_of ce r, slot_of ce bufv, !pre with
    | SF _, SB bk, [] ->
      Some { aop = l; abuf = bufv; bk; ix; flat = proven_offset ce bk ix }
    | _ -> None
  end
  | _ -> None

(* The guard [pred x y] of a guarded dot loop's trips. *)
type guard = (Op.cmp_pred * index * index) option

(* [acc + x * y] over an [scf.for], the loop inside one closure with the
   sum in a local float: each trip writes the iv, tests the guard, then
   runs both loads' checks in the unfused order, and combines in the
   IR's operand order (it decides NaN payloads). *)
let dot_checked sent ~iv ~lo ~hi ~step ~init ~acc ~mswap ~aswap
    ~(guard : guard) (a1 : access) (a2 : access) : code =
  let op1 = a1.aop and bv1 = a1.abuf and bk1 = a1.bk and ix1 = a1.ix in
  let op2 = a2.aop and bv2 = a2.abuf and bk2 = a2.bk and ix2 = a2.ix in
  fun fr ->
    let lo = ig fr lo and hi = ig fr hi and step = ig fr step in
    if step <= 0 then Mem.fail "scf.for: non-positive step %d" step;
    let s = ref (fg fr init) in
    let i = ref lo in
    while !i < hi do
      is fr iv !i;
      if
        match guard with
        | None -> true
        | Some (p, g1, g2) -> itest p (ev fr g1) (ev fr g2)
      then begin
        let b = Array.unsafe_get fr.bregs bk1 in
        if b == sent then unbound op1 bv1;
        let x = ld b (offset b fr ix1) in
        let b = Array.unsafe_get fr.bregs bk2 in
        if b == sent then unbound op2 bv2;
        let y = ld b (offset b fr ix2) in
        let p = if mswap then y *. x else x *. y in
        s := if aswap then p +. !s else !s +. p
      end;
      i := !i + step
    done;
    fs fr acc !s

(* A form as its iv's coefficient and the rest, which the loop reads
   once at entry. *)
let split_iv iv (f : form) =
  ( Option.value (List.assoc_opt iv f.terms) ~default:0
  , index_of_form { f with terms = List.remove_assoc iv f.terms } )

(* The dot loop over two proven accesses: each offset starts at its
   value for iv = lo and advances by a constant stride per trip, as do
   the guard's operands; no trip writes the iv or runs a check. *)
let dot_proven ~iv ~lo ~hi ~step ~init ~acc ~mswap ~aswap ~(guard : guard)
    bk1 f1 bk2 f2 : code =
  let c1, r1 = split_iv iv f1 and c2, r2 = split_iv iv f2 in
  let guard =
    Option.map
      (fun (p, x, y) ->
        (p, split_iv iv (form_of_index x), split_iv iv (form_of_index y)))
      guard
  in
  fun fr ->
    let lo = ig fr lo and hi = ig fr hi and step = ig fr step in
    if step <= 0 then Mem.fail "scf.for: non-positive step %d" step;
    let b1 = Array.unsafe_get fr.bregs bk1
    and b2 = Array.unsafe_get fr.bregs bk2 in
    let o1 = ref (ev fr r1 + (c1 * lo)) and d1 = c1 * step in
    let o2 = ref (ev fr r2 + (c2 * lo)) and d2 = c2 * step in
    let s = ref (fg fr init) in
    let i = ref lo in
    (match guard with
     | None ->
       while !i < hi do
         let x = ld b1 !o1 and y = ld b2 !o2 in
         let p = if mswap then y *. x else x *. y in
         s := if aswap then p +. !s else !s +. p;
         o1 := !o1 + d1;
         o2 := !o2 + d2;
         i := !i + step
       done
     | Some (pred, (gc1, gr1), (gc2, gr2)) ->
       let g1 = ref (ev fr gr1 + (gc1 * lo)) and e1 = gc1 * step in
       let g2 = ref (ev fr gr2 + (gc2 * lo)) and e2 = gc2 * step in
       while !i < hi do
         if itest pred !g1 !g2 then begin
           let x = ld b1 !o1 and y = ld b2 !o2 in
           let p = if mswap then y *. x else x *. y in
           s := if aswap then p +. !s else !s +. p
         end;
         g1 := !g1 + e1;
         g2 := !g2 + e2;
         o1 := !o1 + d1;
         o2 := !o2 + d2;
         i := !i + step
       done);
    fs fr acc !s

(* --- compilation --- *)

(* The bounds of an [scf.parallel] or [omp.wsloop], read once per
   entry. *)
let par_bounds ce pre op =
  let nd = Op.par_dims op in
  let get f = Array.init nd (fun i -> ireg ce pre (f op i)) in
  (get Op.par_lo, get Op.par_hi, get Op.par_step)

let par_ivs ce op what =
  Array.map
    (fun v ->
      match slot_of ce v with
      | SI k -> k
      | SF _ | SB _ -> raise (Unsupported (what ^ ": non-integer iv")))
    op.Op.regions.(0).Op.rargs

(* The facts of an op list's defs end with the list. *)
let rec compile_region (ce : cenv) (ops : Op.op list) : code =
  let mark = ce.scope in
  let c = seq (List.map (compile_op ce) ops) in
  drop_facts ce mark;
  c

and compile_op (ce : cenv) (op : Op.op) : code =
  let o = op.Op.operands in
  match op.Op.kind with
  | Op.Module | Op.Func _ ->
    fun _ -> Mem.fail "cannot execute module/func as a statement"
  | Op.Yield | Op.Dealloc -> nop
  | Op.Condition -> fun _ -> Mem.fail "scf.condition outside while handling"
  | Op.Constant c -> compile_constant ce op c
  | Op.Binop kind when index_op op -> compile_index ce op kind
  | Op.Binop kind -> compile_binop ce op kind
  | Op.Cmp pred ->
    with_conv (fun pre post ->
        let r = ires ce post (Op.result op) in
        if Scalar.is_float_value o.(0) then begin
          let x = freg ce pre o.(0) in
          fcmp pred r x (freg ce pre o.(1))
        end
        else begin
          let x = index ce pre o.(0) in
          match x, index ce pre o.(1) with
          | Reg x, Reg y -> icmp pred r x y
          | x, y -> fun fr -> is fr r (b2i (itest pred (ev fr x) (ev fr y)))
        end)
  | Op.Select -> compile_select ce op
  | Op.Cast d ->
    with_conv (fun pre post ->
        let res = Op.result op in
        match d with
        | Types.F32 ->
          let x = freg ce pre o.(0) and r = fres ce post res in
          fun fr -> fs fr r (Scalar.f32 (fg fr x))
        | Types.F64 ->
          let x = freg ce pre o.(0) and r = fres ce post res in
          fun fr -> fs fr r (fg fr x)
        | Types.I1 ->
          let x = treg ce pre o.(0) and r = ires ce post res in
          fun fr -> is fr r (b2i (ig fr x <> 0))
        | Types.I32 | Types.I64 | Types.Index ->
          let x = treg ce pre o.(0) and r = ires ce post res in
          fun fr -> is fr r (ig fr x))
  | Op.Math Op.Not ->
    with_conv (fun pre post ->
        let x = ireg ce pre o.(0) and r = ires ce post (Op.result op) in
        fun fr -> is fr r (b2i (ig fr x = 0)))
  | Op.Math Op.Pow ->
    with_conv (fun pre post ->
        let x = freg ce pre o.(0) in
        let y = freg ce pre o.(1) and r = fres ce post (Op.result op) in
        fun fr -> fs fr r (Float.pow (fg fr x) (fg fr y)))
  | Op.Math fn ->
    with_conv (fun pre post ->
        let x = freg ce pre o.(0) in
        fmath fn (fres ce post (Op.result op)) x)
  | Op.Alloc | Op.Alloca -> begin
    match (Op.result op).Value.typ with
    | Types.Memref { elem; shape; _ } ->
      with_conv (fun pre _ ->
          let next_dyn = ref 0 in
          (* each dim's getter, and its literal if it has one here *)
          let dims =
            List.map
              (fun d ->
                match d with
                | Some n -> ((fun (_ : frame) -> n), Some n)
                | None ->
                  let k = !next_dyn in
                  incr next_dyn;
                  if k < Array.length o then begin
                    let r = ireg ce pre o.(k) in
                    ((fun fr -> ig fr r), int_lit ce o.(k))
                  end
                  else ((fun _ -> Mem.fail "alloc: missing dynamic size"), None))
              shape
          in
          let dimfs = Array.of_list (List.map fst dims) in
          let set = bset ce (Op.result op) in
          alloc_fact ce (Op.result op) (List.map snd dims);
          fun fr ->
            set fr (Mem.alloc_buffer elem (Array.map (fun g -> g fr) dimfs)))
    | Types.Scalar _ -> fun _ -> Mem.fail "alloc of non-memref"
  end
  | Op.Load -> compile_load ce op
  | Op.Store -> compile_store ce op
  | Op.Copy ->
    let s = bget ce op o.(0) in
    let d = bget ce op o.(1) in
    fun fr -> Mem.copy ~src:(s fr) ~dst:(d fr)
  | Op.Dim i ->
    let b = bget ce op o.(0) in
    let set = iset ce (Op.result op) in
    fun fr -> set fr (b fr).Mem.dims.(i)
  | Op.For -> compile_for ce op
  | Op.While -> compile_while ce op
  | Op.If -> begin
    (* a branch ends by moving its yielded values into the results *)
    let branch (r : Op.region) =
      let c = compile_region ce r.Op.body in
      if Array.length op.Op.results = 0 then c
      else seq [ c; compile_moves ce op (Op.yielded r) op.Op.results ]
    in
    let t = branch op.Op.regions.(0) in
    let e =
      if Array.length op.Op.regions > 1 then branch op.Op.regions.(1)
      else nop
    in
    match int_lit ce o.(0) with
    | Some n -> if n <> 0 then t else e
    | None ->
      with_conv (fun pre _ ->
          let c = ireg ce pre o.(0) in
          if e == nop then fun fr -> (if ig fr c <> 0 then t fr)
          else fun fr -> if ig fr c <> 0 then t fr else e fr)
  end
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
    if Array.length o = 1 then begin
      let g = rv_get ce op o.(0) in
      fun fr -> raise (Ret (Some (g fr)))
    end
    else fun _ -> raise (Ret None)
  | Op.Call name -> compile_call ce op name

(* An index op the plan lets fold, with an affine form, compiles to
   nothing.  Any other runs as its own closure, after those of the
   folded ops it reads: they cannot fail, and the registers they read
   are unchanged since their place in the list. *)
and compile_index ce op kind : code =
  let id = (Op.result op).Value.id in
  match Idtbl.find_opt ce.folds id with
  | Some 0 -> begin
    match affine_form ce op with
    | Some f ->
      Idtbl.replace ce.forms id (f, kind, op);
      nop
    | None -> compute_index ce op kind
  end
  | _ -> compute_index ce op kind

and compute_index ce op kind : code =
  let defs =
    Array.to_list op.Op.operands
    |> List.filter_map (fun (v : Value.t) ->
        Idtbl.find_opt ce.forms v.Value.id
        |> Option.map (fun (_, k, d) -> compute_index ce d k))
  in
  seq (defs @ [ compile_binop ce op kind ])

and compile_binop ce op kind : code =
  let o = op.Op.operands in
  with_conv (fun pre post ->
      if Scalar.is_float_value o.(0) then begin
        let x = freg ce pre o.(0) in
        let y = freg ce pre o.(1) in
        fbin kind (fres ce post (Op.result op)) x y
      end
      else begin
        let x = ireg ce pre o.(0) in
        match kind, int_lit ce o.(1) with
        | (Op.Div | Op.Rem), Some n ->
          idiv_lit kind (ires ce post (Op.result op)) x n
        | _ ->
          let y = ireg ce pre o.(1) in
          ibin kind (ires ce post (Op.result op)) x y
      end)

(* An int constant's literal is a fact for the ops after it. *)
and compile_constant ce op (c : Op.const) : code =
  let v = Op.result op in
  match c, slot_of ce v with
  | Op.Cint (n, _), SI k ->
    set_range ce k (n, n);
    fun fr -> is fr k n
  | Op.Cint (n, _), (SF _ | SB _) ->
    let set = iset ce v in
    fun fr -> set fr n
  | Op.Cfloat _, s -> begin
    let x = Mem.as_float (Scalar.const c) in
    match s with
    | SF k -> fun fr -> fs fr k x
    | SI _ | SB _ ->
      let set = fset ce v in
      fun fr -> set fr x
  end

(* Buffers keep the sentinel-checked read of the chosen operand only. *)
and compile_select ce op : code =
  let o = op.Op.operands in
  with_conv (fun pre _ ->
      let c = ireg ce pre o.(0) in
      match slot_of ce (Op.result op) with
      | SF r ->
        let x = freg ce pre o.(1) in
        let y = freg ce pre o.(2) in
        fun fr -> fs fr r (if ig fr c <> 0 then fg fr x else fg fr y)
      | SI r ->
        let x = ireg ce pre o.(1) in
        let y = ireg ce pre o.(2) in
        fun fr -> is fr r (if ig fr c <> 0 then ig fr x else ig fr y)
      | SB r ->
        let x = bget ce op o.(1) and y = bget ce op o.(2) in
        fun fr -> fr.bregs.(r) <- (if ig fr c <> 0 then x fr else y fr))

(* Register moves [dsts.(i) <- srcs.(i)] for carried values.  All
   sources are read before any destination is written — a parallel
   copy, so [scf.yield %b, %a] over iter_args [%a, %b] swaps them;
   temporaries are used only when a source is another pair's
   destination. *)
and compile_moves ce op (srcs : Value.t array) (dsts : Value.t array) : code =
  let pairs =
    Array.to_list (Array.map2 (fun s d -> (slot_of ce s, slot_of ce d)) srcs dsts)
    |> List.filter (fun (a, b) -> a <> b)
  in
  let move = function
    | SI x, SI y -> fun fr -> is fr y (ig fr x)
    | SF x, SF y -> fun fr -> fs fr y (fg fr x)
    | _ ->
      raise
        (Unsupported (Op.loc_string op ^ ": carried value of another register kind"))
  in
  if not (List.exists (fun (a, _) -> List.exists (fun (_, b) -> a = b) pairs) pairs)
  then seq (List.map move pairs)
  else begin
    let temps =
      List.map
        (fun (a, b) ->
          let t = match a with SF _ -> SF (new_fslot ce) | _ -> SI (new_islot ce) in
          ((a, t), (t, b)))
        pairs
    in
    seq (List.map (fun (p, _) -> move p) temps @ List.map (fun (_, p) -> move p) temps)
  end

(* An [scf.for]: bounds read once; iter_args start as the inits and take
   the yielded values after each iteration.  The results share the
   iter_args' registers (a result is only read after the loop, where its
   iter_arg is dead), so a zero-trip loop returns its inits with no
   extra move. *)
and compile_for ce op : code =
  let iv =
    match slot_of ce (Op.for_iv op) with
    | SI k -> k
    | SF _ | SB _ -> raise (Unsupported "scf.for: non-integer iv")
  in
  let args = Op.for_iter_args op in
  Array.iteri
    (fun k (r : Value.t) -> Hashtbl.replace ce.slots r.Value.id (slot_of ce args.(k)))
    op.Op.results;
  with_conv (fun pre _ ->
      let lo = ireg ce pre (Op.for_lo op) in
      let hi = ireg ce pre (Op.for_hi op) in
      let step = ireg ce pre (Op.for_step op) in
      let init = compile_moves ce op (Op.for_inits op) args in
      let region = op.Op.regions.(0) in
      let mark = ce.scope and proven = ce.cm.proven in
      Option.iter (set_range ce iv)
        (iv_range ce (Op.for_lo op) (Op.for_hi op) (Op.for_step op));
      (* the body first: a nested loop's results take their registers
         while it compiles, before this yield reads them *)
      let body = compile_region ce region.Op.body in
      let body = seq [ body; compile_moves ce op (Op.yielded region) args ] in
      let dot = compile_dot ce op ~iv ~lo ~hi ~step in
      drop_facts ce mark;
      match dot with
      | Some (dot, n) ->
        (* the fused loop replaces the body's two loads *)
        ce.cm.proven <- proven + n;
        dot
      | None ->
        fun fr ->
          let lo = ig fr lo and hi = ig fr hi and step = ig fr step in
          if step <= 0 then Mem.fail "scf.for: non-positive step %d" step;
          init fr;
          let i = ref lo in
          while !i < hi do
            is fr iv !i;
            body fr;
            i := !i + step
          done)

(* The fused dot loop and the number of its proven loads, if [op] has
   one float iter_arg and its body is, besides folded index ops, one of
   - two float loads, a [mulf] of the two loaded values, an [addf] of
     the iter_arg and the product, and the yield of the sum;
   - an int [cmp] and an [scf.if] on it whose then-region is the above
     (yielding the sum to the if) and whose else-region yields the
     iter_arg, then the yield of the if's result.
   The loop runs proven if both loads are. *)
and compile_dot ce op ~iv ~lo ~hi ~step : (code * int) option =
  let same (a : Value.t) (b : Value.t) = a.Value.id = b.Value.id in
  let fslot v = match slot_of ce v with SF k -> Some k | SI _ | SB _ -> None in
  (* [Some swapped] if [o] is the float binop [k] of [a] and [b] *)
  let order (o : Op.op) k a b =
    match o.Op.kind, o.Op.operands, o.Op.results with
    | Op.Binop k', [| x; y |], [| r |] when k' = k && fslot r <> None ->
      if same x a && same y b then Some false
      else if same x b && same y a then Some true
      else None
    | _ -> None
  in
  let yields v (o : Op.op) =
    match o.Op.kind, o.Op.operands with
    | Op.Yield, [| w |] -> same v w
    | _ -> false
  in
  let body (r : Op.region) =
    List.filter
      (fun o -> not (index_op o && Idtbl.mem ce.forms (Op.result o).Value.id))
      r.Op.body
  in
  (* [acc + load * load] over iter_arg [it], yielding the sum *)
  let mac it = function
    | [ l1; l2; m; a; y ] -> (
      match load_access ce l1, load_access ce l2 with
      | Some a1, Some a2 -> (
        match order m Op.Mul (Op.result l1) (Op.result l2) with
        | Some mswap -> (
          match order a Op.Add it (Op.result m) with
          | Some aswap when yields (Op.result a) y -> Some (a1, a2, mswap, aswap)
          | _ -> None)
        | None -> None)
      | _ -> None)
    | _ -> None
  in
  let mentions k (a : access) =
    Array.exists (function Reg r -> r = k | Aff (_, _, rs) -> Array.mem k rs) a.ix
  in
  let shape it =
    match body op.Op.regions.(0) with
    | [ ({ Op.kind = Op.Cmp pred; _ } as c); ({ Op.kind = Op.If; _ } as f); y ]
      when int_cmp c
           && Array.length f.Op.regions = 2
           && same f.Op.operands.(0) (Op.result c)
           && yields (Op.result f) y
           && (match body f.Op.regions.(1) with [ e ] -> yields it e | _ -> false)
      -> (
      let pre = ref [] in
      let g1 = index ce pre c.Op.operands.(0) in
      let g2 = index ce pre c.Op.operands.(1) in
      match !pre, slot_of ce (Op.result c), mac it (body f.Op.regions.(0)) with
      | [], SI ck, Some ((a1, a2, _, _) as m)
        when not (mentions ck a1 || mentions ck a2) ->
        (* the loads must not read the guard's register, which the
           fused loop does not write *)
        Some (Some (pred, g1, g2), m)
      | _ -> None)
    | ops -> Option.map (fun m -> (None, m)) (mac it ops)
  in
  match Op.for_iter_args op with
  | [| it |] -> (
    match shape it, fslot it, fslot (Op.for_inits op).(0) with
    | Some (guard, (a1, a2, mswap, aswap)), Some acc, Some init ->
      (match guard with
       | None -> ce.cm.dots <- ce.cm.dots + 1
       | Some _ -> ce.cm.guarded_dots <- ce.cm.guarded_dots + 1);
      Some
        (match a1.flat, a2.flat with
         | Some f1, Some f2 ->
           ( dot_proven ~iv ~lo ~hi ~step ~init ~acc ~mswap ~aswap ~guard a1.bk
               f1 a2.bk f2
           , 2 )
         | _ ->
           ( dot_checked ce.cm.sentinel ~iv ~lo ~hi ~step ~init ~acc ~mswap
               ~aswap ~guard a1 a2
           , 0 ))
    | _ -> None)
  | _ -> None

and compile_while ce op : code =
  let cond, c =
    match List.rev op.Op.regions.(0).Op.body with
    | ({ Op.kind = Op.Condition; _ } as cop) :: rest ->
      let ops = compile_region ce (List.rev rest) in
      let pre = ref [] in
      let c = ireg ce pre cop.Op.operands.(0) in
      (seq (ops :: List.rev !pre), c)
    | _ -> ((fun _ -> Mem.fail "while cond region missing scf.condition"), 0)
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
      cond fr;
      if ig fr c <> 0 then body fr else continue_ := false
    done

and compile_load ce op : code =
  let bufv = op.Op.operands.(0) in
  let idxv = Array.sub op.Op.operands 1 (Array.length op.Op.operands - 1) in
  match slot_of ce (Op.result op) with
  | SF k -> compile_checked ce op bufv idxv (Ldf k)
  | SI k -> compile_checked ce op bufv idxv (Ldi k)
  | SB _ -> fun _ -> Mem.fail "load of buffer value"

and compile_store ce op : code =
  let bufv = op.Op.operands.(1) in
  let idxv = Array.sub op.Op.operands 2 (Array.length op.Op.operands - 2) in
  match slot_of ce op.Op.operands.(0) with
  | SF k -> compile_checked ce op bufv idxv (Stf k)
  | SI k -> compile_checked ce op bufv idxv (Sti k)
  | SB _ -> fun _ -> Mem.fail "cannot store a buffer into a buffer"

and compile_checked ce op bufv idxv (e : elem_op) : code =
  with_conv (fun pre _ ->
      let ix = Array.map (index ce pre) idxv in
      match slot_of ce bufv with
      | SB bk -> (
        match proven_offset ce bk ix with
        | Some f ->
          ce.cm.proven <- ce.cm.proven + 1;
          proven_access bk f e
        | None -> checked_access ce.cm.sentinel op bufv bk ix e)
      | SI _ | SF _ ->
        let bg = bget ce op bufv in
        fun fr -> ignore (bg fr))

(* [scf.parallel] without barriers: iterations in the interpreter's
   enumeration order (dim 0 fastest).  GPU threads are not an OpenMP
   team, so no worksharing chunking applies — every nested wsloop sees
   the launch context of the enclosing omp construct, as in the
   interpreter. *)
and compile_serial_parallel ce op : code =
  let nd = Op.par_dims op in
  let ivslots = par_ivs ce op "parallel" in
  let pre = ref [] in
  let log, hig, stg = par_bounds ce pre op in
  let body = par_body ce op ivslots in
  let run fr =
    let lo = Array.map (ig fr) log in
    let hi = Array.map (ig fr) hig in
    let step = Array.map (ig fr) stg in
    Mem.check_par_steps step;
    let rec go d =
      if d < 0 then body fr
      else begin
        let v = ref lo.(d) in
        while !v < hi.(d) do
          is fr ivslots.(d) !v;
          go (d - 1);
          v := !v + step.(d)
        done
      end
    in
    go (nd - 1)
  in
  seq (List.rev_append !pre [ run ])

(* The body of an [scf.parallel] or [omp.wsloop], under its ivs'
   range facts. *)
and par_body ce op ivslots : code =
  let mark = ce.scope in
  Array.iteri
    (fun d k ->
      Option.iter (set_range ce k)
        (iv_range ce (Op.par_lo op d) (Op.par_hi op d) (Op.par_step op d)))
    ivslots;
  let body = compile_region ce op.Op.regions.(0).Op.body in
  drop_facts ce mark;
  body

(* A top-level team launch.  The frames (and the barrier) live in the
   compiled function's persistent [tstate]; a launch validates it (same
   size, not poisoned, large enough register files), blits the master's
   registers into the team frames, and posts a per-op cached job
   closure to the pool — in the steady state nothing is allocated. *)
and compile_omp_parallel ce op : code =
  let body = compile_region ce op.Op.regions.(0).Op.body in
  let sent = ce.cm.sentinel in
  let jobcache : (tstate * (int -> unit)) option ref = ref None in
  fun fr ->
    match fr.lc with
    | Some _ ->
      (* Nested team: a team of one on this thread, as OpenMP runs a
         nested region with nested parallelism off — its wsloops cover
         their whole range and its barriers hold trivially. *)
      body { fr with lc = Some (new_lc (new_team 1) 0) }
    | None ->
      let g = fr.glob in
      let size = g.cfg.domains in
      g.stats.launches <- g.stats.launches + 1;
      let ni = Array.length fr.iregs
      and nf = Array.length fr.fregs
      and nb = Array.length fr.bregs in
      let ts =
        match g.ts with
        | Some t
          when t.tsize = size
               && (not (Barrier.is_poisoned t.tteam.barrier))
               && Array.length t.tframes.(0).iregs >= ni
               && Array.length t.tframes.(0).fregs >= nf
               && Array.length t.tframes.(0).bregs >= nb -> t
        | _ ->
          let team = new_team size in
          let frames =
            Array.init size (fun rank ->
                { iregs = Array.make (pad ni) 0
                ; fregs = Array.make (pad nf) 0.0
                ; bregs = Array.make (pad nb) sent
                ; lc = Some (new_lc team rank)
                ; glob = g
                })
          in
          ignore (Atomic.fetch_and_add g.frames size);
          let t = { tsize = size; tteam = team; tframes = frames; tphases = 0 } in
          g.ts <- Some t;
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
         if size = 1 then job 0 else Pool.run (Pool.get ~domains:size) job
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
  let ivslots = par_ivs ce op "wsloop" in
  let body = par_body ce op ivslots in
  let oid = op.Op.oid in
  let pre = ref [] in
  let log, hig, stg = par_bounds ce pre op in
  let run fr =
    let lo = Array.map (ig fr) log in
    let hi = Array.map (ig fr) hig in
    let step = Array.map (ig fr) stg in
    Mem.check_par_steps step;
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
        fun a b ->
          for p = a to b - 1 do
            is fr iv0 (l0 + (p * s0));
            body fr
          done
      end
      else begin
        (* one past each iv's last value *)
        let lim = Array.init nd (fun d -> lo.(d) + (counts.(d) * step.(d))) in
        fun a b ->
          if a < b then begin
            (* delinearize the first position once, then advance the ivs
               like an odometer: bump dim 0, carry into the next dim
               when one wraps *)
            let rem = ref a in
            for d = 0 to nd - 1 do
              is fr ivslots.(d) (lo.(d) + (!rem mod counts.(d) * step.(d)));
              rem := !rem / counts.(d)
            done;
            body fr;
            for _ = a + 1 to b - 1 do
              let d = ref 0 in
              while
                let k = ivslots.(!d) in
                let v = ig fr k + step.(!d) in
                if v < lim.(!d) then begin
                  is fr k v;
                  false
                end
                else begin
                  is fr k lo.(!d);
                  incr d;
                  true
                end
              do
                ()
              done;
              body fr
            done
          end
      end
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
  in
  seq (List.rev_append !pre [ run ])

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
        ; folds = fold_plan f.Op.regions.(0)
        ; forms = Idtbl.create 16
        ; ranges = Idtbl.create 16
        ; dims = Idtbl.create 8
        ; scope = []
        }
      in
      cf.params <- Array.map (slot_of ce) f.Op.regions.(0).Op.rargs;
      let body = compile_region ce f.Op.regions.(0).Op.body in
      cf.ni <- ce.ni;
      cf.nf <- ce.nf;
      cf.nb <- ce.nb;
      cf.body <- body;
      Some cf
  end

(* --- public API --- *)

type decisions =
  { proven : int
  ; dots : int
  ; guarded_dots : int
  }

type compiled =
  { entry : cfunc
  ; sentinel : Mem.buffer
  ; decisions : decisions
  ; glob : glob
  ; mutable eframe : frame option (* persistent entry frame *)
  }

let decisions (c : compiled) = c.decisions

let compile (modul : Op.op) (name : string) : compiled =
  let cm =
    { modul
    ; cfuncs = Hashtbl.create 8
    ; sentinel = Mem.alloc_buffer Types.Index [| 0 |]
    ; proven = 0
    ; dots = 0
    ; guarded_dots = 0
    }
  in
  match get_cfunc cm name with
  | None -> Mem.fail "no function @%s in module" name
  | Some entry ->
    { entry
    ; sentinel = cm.sentinel
    ; decisions =
        { proven = cm.proven; dots = cm.dots; guarded_dots = cm.guarded_dots }
    ; glob =
        { cfg =
            { domains = 4
            ; schedule = Schedule.Static
            ; chunk = None
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

let run ?(domains = 4) ?(schedule = Schedule.Static) ?chunk ?fault
    ?(timeout_ms = 0) (c : compiled)
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

let run_module ?domains ?schedule ?chunk ?fault ?timeout_ms modul name args =
  run ?domains ?schedule ?chunk ?fault ?timeout_ms (compile modul name) args
