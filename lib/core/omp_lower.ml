(* Lowering of barrier-free parallel loops to the OpenMP dialect, plus the
   block-parallelism optimizations of Sec. IV-D:

   - each parallel loop becomes [omp.parallel { omp.wsloop { body } }];
   - collapse: when a grid worksharing loop immediately wraps the thread
     parallel loop (no shared-memory allocation between), the two collapse
     into one worksharing loop over the combined space;
   - fusion (Fig. 10): adjacent [omp.parallel] regions merge, separated by
     an [omp.barrier], paying thread-team startup once;
   - hoisting (Fig. 11): an [omp.parallel] that is the whole body of a
     serial for moves outside it, again paying startup once;
   - inner serialization ("PolygeistInnerSer"): nested parallel regions
     (block-level parallelism under grid-level) are rewritten into serial
     loops, trading nested-team overhead and false sharing for locality.

   Our omp.wsloop carries NO implicit end-of-loop barrier; every needed
   join is an explicit [omp.barrier], as in Fig. 10. *)

open Ir

exception Unsupported of string

type inner_mode =
  | Inner_parallel (* nested omp regions: "PolygeistInnerPar" *)
  | Inner_serial (* serialize nested regions: "PolygeistInnerSer" *)

type options =
  { inner : inner_mode
  ; openmpopt : bool
        (* the paper's "openmpopt" ablation: grid+block collapse, Fig. 10
           fusion and Fig. 11 hoisting, on or off together *)
  }

let default_options = { inner = Inner_serial; openmpopt = true }

let inner_par_options = { default_options with inner = Inner_parallel }

(* --- step 1: parallel -> omp.parallel { omp.wsloop } --- *)

let lower_parallel (op : Op.op) : Op.op =
  let n = Op.par_dims op in
  let region = op.regions.(0) in
  let ws =
    Op.mk Op.OmpWsloop ~operands:op.operands
      ~regions:[| Op.region ~args:region.rargs region.body |]
  in
  Op.mk Op.OmpParallel ~regions:[| Op.region [ ws ] |]
    ~attrs:[ ("dims", Op.Aint n) ]

(* [in_carry]: some enclosing op carries values through yields, which
   an OpenMP region cannot sit inside (the verifier already rejects a
   parallel loop there). *)
let rec lower_all ~in_carry (op : Op.op) : Op.op list =
  let inner = in_carry || Op.carries_values op in
  Array.iter
    (fun (r : Op.region) ->
      r.body <- List.concat_map (lower_all ~in_carry:inner) r.body)
    op.regions;
  match op.kind with
  | Op.Parallel _ ->
    if Op.contains_barrier op then
      invalid_arg "omp lowering requires barrier-free parallel loops";
    if in_carry then
      raise (Unsupported "parallel loop inside a value-carrying scf.if/scf.for");
    [ lower_parallel op ]
  | _ -> [ op ]

(* --- inner serialization --- *)

(* Rewrite an [omp.parallel { omp.wsloop { body } }] nested inside another
   omp.parallel into a serial loop nest. *)
let serialize_one (op : Op.op) : Op.op list =
  match op.regions.(0).body with
  | [ ({ Op.kind = Op.OmpWsloop; _ } as ws) ] ->
    let n = Op.par_dims ws in
    let ivs = ws.Op.regions.(0).rargs in
    let body = ws.Op.regions.(0).body in
    (* build a serial For nest, innermost holding the body *)
    let rec build dim (subst : Clone.subst) : Op.op list =
      if dim >= n then Clone.clone_ops subst body
      else
        [ Builder.for_ ~lo:(Op.par_lo ws dim) ~hi:(Op.par_hi ws dim)
            ~step:(Op.par_step ws dim) (fun iv ->
              Clone.add_subst subst ~from:ivs.(dim) ~to_:iv;
              build (dim + 1) subst)
        ]
    in
    build 0 (Clone.create_subst ())
  | _ -> [ op ] (* fused region: keep *)

let serialize_nested (m : Op.op) : int =
  let count = ref 0 in
  let rec visit ~(in_par : bool) (op : Op.op) : Op.op list =
    let inner_in_par = in_par || op.kind = Op.OmpParallel in
    Array.iter
      (fun (r : Op.region) ->
        r.body <- List.concat_map (visit ~in_par:inner_in_par) r.body)
      op.regions;
    match op.kind with
    | Op.OmpParallel when in_par ->
      incr count;
      serialize_one op
    | _ -> [ op ]
  in
  (match visit ~in_par:false m with [ _ ] -> () | _ -> ());
  !count

(* --- collapse --- *)

(* omp.parallel { omp.wsloop G { pures...; omp.parallel { omp.wsloop B
   { body } } } }  ==>  omp.parallel { omp.wsloop (G@B) { pures; body } }.
   Legal when nothing with memory effects sits between the two loops — in
   particular no shared-memory allocation — and no pure op there may
   trap: in the collapsed loop it runs only when B's range is not
   empty. *)
let collapse (m : Op.op) : int =
  let count = ref 0 in
  (* built on the first division between two loops, which few programs
     have *)
  let info = lazy (Analysis.Info.build m) in
  let literal v = Analysis.Info.int_literal (Lazy.force info) v in
  let rec visit (op : Op.op) : Op.op list =
    Array.iter
      (fun (r : Op.region) -> r.body <- List.concat_map visit r.body)
      op.regions;
    match op.kind with
    | Op.OmpParallel -> begin
      match op.regions.(0).body with
      | [ ({ Op.kind = Op.OmpWsloop; _ } as g) ] -> begin
        (* split the grid loop body into pures + a sole inner parallel *)
        let rec split pures = function
          | [ ({ Op.kind = Op.OmpParallel; _ } as ip) ] ->
            Some (List.rev pures, ip)
          | p :: rest
            when Op.is_pure p && not (Interp.Scalar.may_trap ~literal p) ->
            split (p :: pures) rest
          | _ -> None
        in
        match split [] g.Op.regions.(0).body with
        | Some (pures, ip) -> begin
          match ip.Op.regions.(0).body with
          | [ ({ Op.kind = Op.OmpWsloop; _ } as b) ] ->
            let ng = Op.par_dims g and nb = Op.par_dims b in
            let gops = g.Op.operands and bops = b.Op.operands in
            let operands =
              Array.concat
                [ Array.sub gops 0 ng; Array.sub bops 0 nb (* lbs *)
                ; Array.sub gops ng ng; Array.sub bops nb nb (* ubs *)
                ; Array.sub gops (2 * ng) ng; Array.sub bops (2 * nb) nb
                ]
            in
            let args =
              Array.append g.Op.regions.(0).rargs b.Op.regions.(0).rargs
            in
            (* the inner-loop bounds must be defined outside the grid loop
               (they are SSA operands of b, possibly computed by pures —
               then collapse is not legal without hoisting; bail) *)
            let defined_by_pures =
              List.concat_map
                (fun (p : Op.op) -> Array.to_list p.results)
                pures
              |> Value.Set.of_list
            in
            let bound_ok =
              Array.for_all
                (fun (v : Value.t) ->
                  (not (Value.Set.mem v defined_by_pures))
                  && not
                       (Array.exists (Value.equal v) g.Op.regions.(0).rargs))
                b.Op.operands
            in
            if not bound_ok then [ op ]
            else begin
              incr count;
              let ws =
                Op.mk Op.OmpWsloop ~operands
                  ~regions:
                    [| Op.region ~args (pures @ b.Op.regions.(0).body) |]
              in
              [ Op.mk Op.OmpParallel
                  ~regions:[| Op.region [ ws ] |]
                  ~attrs:[ ("dims", Op.Aint (ng + nb)) ]
              ]
            end
          | _ -> [ op ]
        end
        | None -> [ op ]
      end
      | _ -> [ op ]
    end
    | _ -> [ op ]
  in
  (match visit m with [ _ ] -> () | _ -> ());
  !count

(* --- fusion (Fig. 10) --- *)

(* Ops that may hoist above an omp.parallel run: pure scalar ops and fresh
   allocations (the caches produced by barrier fission sit between the
   fissioned loops). *)
let movable (op : Op.op) =
  Op.is_pure op
  || match op.kind with Op.Alloc | Op.Alloca -> true | _ -> false

(* In every region body: hoist movable ops out of runs of omp.parallel
   ops, then merge each run into one region with omp.barrier
   separators. *)
let fuse (m : Op.op) : int =
  let count = ref 0 in
  let rec fuse_body (ops : Op.op list) : Op.op list =
    match ops with
    | [] -> []
    | ({ Op.kind = Op.OmpParallel; _ } as first) :: rest ->
      (* accumulate the run *)
      let rec take_run pures pars = function
        | ({ Op.kind = Op.OmpParallel; _ } as p) :: tl ->
          take_run pures (p :: pars) tl
        | (p : Op.op) :: tl when movable p ->
          (* a movable op between parallels: shift it before the run *)
          take_run (p :: pures) pars tl
        | tl -> (List.rev pures, List.rev pars, tl)
      in
      let pures, pars, tl = take_run [] [ first ] rest in
      if List.length pars <= 1 then
        (* no fusion opportunity; restore original order *)
        (first :: List.rev pures) @ fuse_body tl
      else begin
        count := !count + List.length pars - 1;
        let merged_body =
          List.concat
            (List.mapi
               (fun i (p : Op.op) ->
                 let body = p.Op.regions.(0).Op.body in
                 if i = 0 then body else Builder.omp_barrier () :: body)
               pars)
        in
        let fused =
          Op.mk Op.OmpParallel ~regions:[| Op.region merged_body |]
            ~attrs:first.Op.attrs
        in
        pures @ [ fused ] @ fuse_body tl
      end
    | op :: rest -> op :: fuse_body rest
  in
  let rec visit (op : Op.op) =
    Array.iter
      (fun (r : Op.region) ->
        r.body <- fuse_body r.body;
        List.iter visit r.body)
      op.regions
  in
  visit m;
  !count

(* --- hoisting (Fig. 11) --- *)

(* for { pures...; omp.parallel { X } }   ==>
   omp.parallel { for { pures; X; omp.barrier } }

   Pure ops execute redundantly in every thread, which is legal; the
   barrier joins the team between iterations. *)
let hoist (m : Op.op) : int =
  let count = ref 0 in
  let rec visit (op : Op.op) : Op.op list =
    Array.iter
      (fun (r : Op.region) -> r.body <- List.concat_map visit r.body)
      op.regions;
    match op.kind with
    | Op.For -> begin
      let body = op.regions.(0).body in
      let rec split pures = function
        | [ ({ Op.kind = Op.OmpParallel; _ } as p) ] ->
          Some (List.rev pures, p)
        | (x : Op.op) :: rest when Op.is_pure x -> split (x :: pures) rest
        | _ -> None
      in
      match split [] body with
      | Some (pures, p) ->
        incr count;
        let inner_body =
          pures @ p.Op.regions.(0).Op.body @ [ Builder.omp_barrier () ]
        in
        let new_for =
          Op.mk Op.For ~operands:op.operands
            ~regions:[| Op.region ~args:op.regions.(0).rargs inner_body |]
        in
        [ Op.mk Op.OmpParallel
            ~regions:[| Op.region [ new_for ] |]
            ~attrs:p.Op.attrs
        ]
      | None -> [ op ]
    end
    | _ -> [ op ]
  in
  (match visit m with [ _ ] -> () | _ -> ());
  !count

(* --- statistics + driver --- *)

type report =
  { serialized : int
  ; collapsed : int
  ; fused : int
  ; hoisted : int
  }

let run ?(options = default_options) (m : Op.op) : report =
  (match lower_all ~in_carry:false m with [ _ ] -> () | _ -> ());
  let opt pass = if options.openmpopt then pass m else 0 in
  let collapsed = opt collapse in
  let serialized =
    match options.inner with
    | Inner_serial -> serialize_nested m
    | Inner_parallel -> 0
  in
  let fused = opt fuse in
  let hoisted = opt hoist in
  (* hoisting can expose new fusion opportunities and vice versa *)
  let fused = fused + opt fuse in
  { serialized; collapsed; fused; hoisted }
