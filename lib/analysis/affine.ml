(* Affine forms over SSA values, used to reason about memory addresses
   around barriers (Sec. III-A of the paper).

   An expression is a linear combination [sum coeff_i * v_i + const].  The
   variables are SSA values; the emptiness/injectivity reasoning below
   additionally classifies each variable as thread-dependent (a thread
   induction variable of the block-parallel loop under analysis) or
   thread-invariant (equal across the threads of a block at a given
   synchronization point). *)

open Ir

module VM = Value.Map

type expr =
  { terms : int VM.t (* coeff per variable; coeff never 0 *)
  ; const : int
  }

let const n = { terms = VM.empty; const = n }
let var v = { terms = VM.singleton v 1; const = 0 }

let add a b =
  { terms =
      VM.union (fun _ c1 c2 -> if c1 + c2 = 0 then None else Some (c1 + c2))
        a.terms b.terms
  ; const = a.const + b.const
  }

let neg a = { terms = VM.map (fun c -> -c) a.terms; const = -a.const }
let sub a b = add a (neg b)

let scale k a =
  if k = 0 then const 0
  else { terms = VM.map (fun c -> k * c) a.terms; const = k * a.const }

let equal a b = a.const = b.const && VM.equal Int.equal a.terms b.terms

let coeff a v = match VM.find_opt v a.terms with Some c -> c | None -> 0

let is_const a = VM.is_empty a.terms

let variables a = VM.fold (fun v _ acc -> v :: acc) a.terms []

(* Derive the affine form of an SSA value by walking its def chain.
   [classify] decides how to treat a leaf value:
   - [`Sym]     : usable as an affine variable (thread iv or invariant)
   - [`Expand]  : look through the defining op (pure integer arithmetic)
   - [`Opaque]  : not expressible — derivation fails.

   The walk expands through Constant, Add/Sub/Mul-by-const, and
   index-preserving casts. *)
let rec of_value (info : Info.t)
    ~(classify : Value.t -> [ `Sym | `Expand | `Opaque ]) (v : Value.t) :
  expr option =
  match classify v with
  | `Opaque -> None
  | `Sym -> Some (var v)
  | `Expand -> begin
    match Info.defining_op info v with
    | None -> Some (var v)
    | Some op -> begin
      match op.kind with
      | Op.Constant (Op.Cint (n, _)) -> Some (const n)
      | Op.Binop Op.Add -> binary info ~classify op add
      | Op.Binop Op.Sub -> binary info ~classify op sub
      | Op.Binop Op.Mul -> begin
        match
          ( of_value info ~classify op.operands.(0)
          , of_value info ~classify op.operands.(1) )
        with
        | Some a, Some b when is_const a -> Some (scale a.const b)
        | Some a, Some b when is_const b -> Some (scale b.const a)
        | _ -> None
      end
      | Op.Cast (Types.Index | Types.I32 | Types.I64) ->
        if
          match op.operands.(0).typ with
          | Types.Scalar d -> Types.is_int_dtype d
          | Types.Memref _ -> false
        then of_value info ~classify op.operands.(0)
        else None
      | _ -> None
    end
  end

and binary info ~classify (op : Op.op) f =
  match
    ( of_value info ~classify op.operands.(0)
    , of_value info ~classify op.operands.(1) )
  with
  | Some a, Some b -> Some (f a b)
  | _ -> None

(* Per-dimension verdict when comparing one index dimension of two
   accesses across two (possibly different) threads t1, t2:

   - [Disjoint]: the two index expressions can never be equal, so the
     whole accesses cannot conflict.
   - [Forces s]: equality of this dimension implies t1.v = t2.v for every
     thread iv v in s.
   - [Maybe]: the dimension may be equal for distinct threads.

   With a = f(t1) + s and b = g(t2) + s' (f, g over thread ivs; s, s'
   thread-invariant at the synchronization point):

   - no thread ivs on either side: equal iff s = s'; a nonzero constant
     difference proves Disjoint, identical forms are always equal and
     force nothing (Forces of the empty set), otherwise Maybe.
   - identical coefficients on every thread iv and s - s' = 0: equality
     forces f(t1) = f(t2); if f depends on exactly one iv with nonzero
     coefficient this forces that iv equal (Forces), the paper's
     injectivity argument (Fig. 5).  Multiple ivs may compensate each
     other, so Maybe.
   - anything else (shifted by a constant, different coefficients,
     unknown symbols): Maybe — this is exactly the "offset by 1" case the
     paper gives as requiring the barrier. *)
type dim_verdict =
  | Disjoint
  | Forces of Value.Set.t
  | Maybe

(* Multi-iv injectivity over a bounded box: f(t) = sum c_i * v_i with each
   v_i ranging over [0, B_i).  Writing the terms in ascending |c|, f is
   injective when every coefficient dominates the largest value the
   smaller terms can jointly reach:

     |c_k| > sum_{i<k} |c_i| * (B_i - 1)

   (the mixed-radix positional argument; linearized indices like
   [ty * BX + tx] with B_tx <= BX satisfy it).  Equality of two such
   forms across threads then forces every iv equal. *)
let box_injective ~(extent : Value.t -> int option) (terms : int VM.t) : bool
    =
  let with_extents =
    VM.fold
      (fun v c acc ->
        match acc with
        | None -> None
        | Some l -> begin
          match extent v with
          | Some b when b >= 1 -> Some ((abs c, b) :: l)
          | _ -> None
        end)
      terms (Some [])
  in
  match with_extents with
  | None -> false
  | Some l ->
    let sorted = List.sort (fun (c1, _) (c2, _) -> compare c1 c2) l in
    let reach = ref 0 in
    List.for_all
      (fun (c, b) ->
        let ok = c > !reach in
        reach := !reach + (c * (b - 1));
        ok)
      sorted

let compare_dim ~(tids : Value.Set.t) ?extent (a : expr) (b : expr) :
  dim_verdict =
  let split e =
    let tid, inv = VM.partition (fun v _ -> Value.Set.mem v tids) e.terms in
    (tid, { terms = inv; const = e.const })
  in
  let tid_a, inv_a = split a in
  let tid_b, inv_b = split b in
  let inv_diff = sub inv_a inv_b in
  if VM.is_empty tid_a && VM.is_empty tid_b then begin
    if not (is_const inv_diff) then Maybe
    else if inv_diff.const <> 0 then Disjoint
    else Forces Value.Set.empty
  end
  else if VM.equal Int.equal tid_a tid_b && is_const inv_diff
          && inv_diff.const = 0 then begin
    if VM.cardinal tid_a = 1 then
      Forces (Value.Set.singleton (fst (VM.choose tid_a)))
    else begin
      (* several ivs may compensate each other — unless the iv ranges are
         known and the coefficients are mixed-radix injective *)
      match extent with
      | Some extent when box_injective ~extent tid_a ->
        Forces (VM.fold (fun v _ s -> Value.Set.add v s) tid_a Value.Set.empty)
      | _ -> Maybe
    end
  end
  else Maybe
