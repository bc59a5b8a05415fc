(* Static cross-thread data-race check, built on the {!Mhp} interval
   analysis.

   Two accesses race when they can touch the same address from two
   different threads with at least one write and no barrier on any path
   between them.  The candidate pairs — accesses that may share a
   dynamic barrier-interval instance — come from {!Mhp.conflicts},
   which pairs every access-bearing leaf with its own accesses (the
   same statement executed by several threads) and with everything
   reachable forward of it before the next barrier, and annotates each
   pair with the static intervals of its two sides.

   Conflicts are then classified:

   - [Definite]: both bases have the same known origin, every index
     dimension is fully affine and either identically thread-invariant
     or forced equal by the injectivity argument, and after accounting
     for forced/pinned/unit thread ivs some thread iv remains free — so
     two distinct threads provably collide.  Reported as an error.
   - [Possible]: the conservative conflict test fires but the analysis
     lost precision (unknown base, non-affine index, thread-dependent
     guard, ...).  Suppressed by default to keep the checker quiet on
     the benchmark suite; [~report_possible:true] surfaces them as
     warnings.
   - No race: the same affine argument, with the static extents of the
     thread ivs, forces every thread iv equal — the two accesses meet
     only within one thread (e.g. a lane index [tx + BX * (ty + tz)]
     over a 1-D block).  Not reported.

   Each racing op pair yields ONE diagnostic carrying its strongest
   classification, the interval pair, and — through {!findings} — the
   source ops the repair search feeds to
   {!Mhp.separation_points}. *)

open Ir

type strength =
  | Definite
  | Possible

(* Static extent of a thread iv of [par] ([Some hi] when bounds are the
   constants [0, hi)), feeding the mixed-radix injectivity argument. *)
let tid_extent (ctx : Effects.ctx) (par : Op.op) (v : Value.t) : int option =
  let n = Op.par_dims par in
  let res = ref None in
  let cint = Info.int_literal ctx.info in
  for i = 0 to n - 1 do
    if Value.equal par.Op.regions.(0).rargs.(i) v then begin
      match cint (Op.par_lo par i), cint (Op.par_hi par i) with
      | Some 0, Some hi when hi > 0 -> res := Some hi
      | _ -> ()
    end
  done;
  !res

let classify (ctx : Effects.ctx) ~(taint : Value.t -> bool)
    ~(extent : Value.t -> int option) (a : Effects.access) (ga : bool)
    (b : Effects.access) (gb : bool) : strength option =
  let open Effects in
  let same_known_origin =
    match a.base, b.base with
    | Some ba, Some bb -> begin
      match origin ctx.info ba, origin ctx.info bb with
      | Ounknown, _ | _, Ounknown -> false
      | oa, ob -> oa = ob
    end
    | _ -> false
  in
  (* The affine comparison treats every non-tid variable as having the
     same value in both executions.  That only holds for thread-uniform
     values (parameters, block ids, lock-step serial ivs) — a
     thread-dependent variable (e.g. a load result) in an index keeps a
     conflict merely possible. *)
  let vars_ok e =
    List.for_all
      (fun v -> Value.Set.mem v ctx.tids || not (taint v))
      (Affine.variables e)
  in
  let tid_free e =
    List.for_all
      (fun v -> not (Value.Set.mem v ctx.tids))
      (Affine.variables e)
  in
  (* The thread ivs the indices force equal, with the unit-extent ones,
     when every dimension is affine over thread-uniform values and
     either identical and thread-invariant or forcing; [None] when the
     analysis cannot tell. *)
  let forced =
    if a.shifted || b.shifted || not same_known_origin then None
    else begin
      match a.idx, b.idx with
      | Some da, Some db when List.length da = List.length db ->
        List.fold_left2
          (fun acc xa xb ->
            match acc, xa, xb with
            | Some f, Some ea, Some eb when vars_ok ea && vars_ok eb ->
              if Affine.equal ea eb && tid_free ea then Some f
              else begin
                match Affine.compare_dim ~tids:ctx.tids ~extent ea eb with
                | Affine.Forces s -> Some (Value.Set.union f s)
                | Affine.Disjoint | Affine.Maybe -> None
              end
            | _ -> None)
          (Some (unit_tids ctx)) da db
      | _ -> None
    end
  in
  match forced with
  | Some f when Value.Set.subset ctx.tids f -> None (* one thread only *)
  | Some f
    when (not ga) && (not gb)
         && not
              (Value.Set.subset ctx.tids
                 (Value.Set.union f (Effects.same_pins a.pinned b.pinned))) ->
    (* some thread iv remains free: two distinct threads collide *)
    Some Definite
  | _ -> Some Possible

(* A reported race with the handles the repair search needs: the two
   source ops (write side first, as in the diagnostic) and whether the
   pairing crossed a loop back-edge. *)
type finding =
  { f_diag : Diag.t
  ; f_strength : strength
  ; f_a : Op.op option (* the write side *)
  ; f_b : Op.op option
  ; f_shifted : bool
  }

let findings ?(report_possible = false) (mhp : Mhp.t) : finding list =
  let ctx = Mhp.ctx mhp in
  let taint = Mhp.taint mhp in
  let extent = tid_extent ctx (Mhp.par mhp) in
  (* one finding per op pair, keeping the strongest classification (an
     early Possible pairing must not mask a later Definite one) *)
  let best : (int * int, strength * Mhp.conflict) Hashtbl.t =
    Hashtbl.create 64
  in
  let order = ref [] in
  List.iter
    (fun (c : Mhp.conflict) ->
      let oid (x : Effects.access) =
        match x.Effects.src with Some o -> o.Op.oid | None -> -1
      in
      let key =
        (min (oid c.Mhp.cf_a) (oid c.Mhp.cf_b),
         max (oid c.Mhp.cf_a) (oid c.Mhp.cf_b))
      in
      match
        classify ctx ~taint ~extent c.Mhp.cf_a c.Mhp.cf_ga c.Mhp.cf_b
          c.Mhp.cf_gb
      with
      | None -> ()
      | Some strength -> begin
        match Hashtbl.find_opt best key with
        | None ->
          order := key :: !order;
          Hashtbl.replace best key (strength, c)
        | Some (Possible, _) when strength = Definite ->
          Hashtbl.replace best key (strength, c)
        | Some _ -> ()
      end)
    (Mhp.conflicts mhp);
  List.filter_map
    (fun key ->
      let strength, (c : Mhp.conflict) = Hashtbl.find best key in
      if strength = Possible && not report_possible then None
      else begin
        let a = c.Mhp.cf_a and b = c.Mhp.cf_b in
        let p, q =
          if a.Effects.acc_kind = Effects.Write then (a, b) else (b, a)
        in
        let loc_of (x : Effects.access) =
          Option.bind x.Effects.src (fun o -> o.Op.loc)
        in
        let base_name =
          match p.Effects.base with
          | Some v -> Value.to_string v
          | None -> "<unknown>"
        in
        let kindstr = function
          | Effects.Write -> "write"
          | Effects.Read -> "read"
        in
        let sev, adj =
          match strength with
          | Definite -> (Diag.Error, "")
          | Possible -> (Diag.Warning, "possible ")
        in
        let msg =
          Printf.sprintf
            "%scross-thread data race on %s: %s conflicts with a %s by \
             another thread, with no intervening barrier"
            adj base_name (kindstr p.Effects.acc_kind)
            (kindstr q.Effects.acc_kind)
        in
        let notes =
          match p.Effects.src, q.Effects.src with
          | Some x, Some y when x.Op.oid = y.Op.oid ->
            [ Diag.note
                "both accesses come from the same statement, executed by \
                 multiple threads"
            ]
          | _ ->
            [ Diag.note ?loc:(loc_of q)
                (Printf.sprintf "conflicting %s is here"
                   (kindstr q.Effects.acc_kind))
            ]
        in
        let intervals =
          (* report in (write, other) order to match the message *)
          if p == a then c.Mhp.cf_intervals
          else begin
            let i, j = c.Mhp.cf_intervals in
            (j, i)
          end
        in
        Some
          { f_diag = Diag.mk ?loc:(loc_of p) ~notes ~intervals sev "race" msg
          ; f_strength = strength
          ; f_a = p.Effects.src
          ; f_b = q.Effects.src
          ; f_shifted = c.Mhp.cf_shifted
          }
      end)
    (List.rev !order)

let check_mhp ?report_possible (mhp : Mhp.t) : Diag.t list =
  List.map (fun f -> f.f_diag) (findings ?report_possible mhp)

let check ?report_possible (ctx : Effects.ctx) (par : Op.op) : Diag.t list =
  check_mhp ?report_possible (Mhp.analyze ctx par)
