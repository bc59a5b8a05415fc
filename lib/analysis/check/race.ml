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

   Whether two accesses can meet across threads is decided once, by
   {!Effects.meet}, for this check and for the passes alike: a pair
   whose addresses force every thread iv equal (e.g. a lane index
   [tx + BX * (ty + tz)] over a 1-D block) meets only within one thread,
   so {!Mhp.conflicts} never pairs it.  This module keeps the policy
   that classifies the remaining pairs:

   - [Definite]: the meet is exact on a base of known origin, no side is
     shifted or under a thread-dependent guard, and every index
     variable is thread-uniform or a thread iv — two distinct threads
     provably collide.  Reported as an error.
   - [Possible]: the analysis lost precision (unknown base, non-affine
     index, thread-dependent guard, ...).  Suppressed by default to keep
     the checker quiet on the benchmark suite; [~report_possible:true]
     surfaces them as warnings.

   Each racing op pair yields ONE diagnostic carrying its strongest
   classification, the interval pair, and — through {!findings} — the
   source ops the repair search feeds to
   {!Mhp.separation_points}. *)

open Ir

type strength =
  | Definite
  | Possible

(* The affine comparison treats every variable but the thread ivs as
   having the same value in both executions.  That only holds for
   thread-uniform values (parameters, block ids, lock-step serial ivs):
   a thread-dependent variable in an index keeps a conflict merely
   possible. *)
let classify (ctx : Effects.ctx) ~(taint : Value.t -> bool)
    (a : Effects.access) (ga : bool) (b : Effects.access) (gb : bool) :
  strength =
  let open Effects in
  let known_origin =
    match a.base with
    | Some v -> origin ctx.info v <> Ounknown
    | None -> false
  in
  let uniform (x : access) =
    Option.value ~default:[] x.idx
    |> List.concat_map (Option.fold ~none:[] ~some:Affine.variables)
    |> List.for_all (fun v -> Value.Set.mem v ctx.tids || not (taint v))
  in
  match meet ctx a b with
  | Forced { exact = true; _ }
    when known_origin && (not (a.shifted || b.shifted)) && (not (ga || gb))
         && uniform a && uniform b ->
    Definite
  | Never | Forced _ -> Possible

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
      let strength =
        classify ctx ~taint c.Mhp.cf_a c.Mhp.cf_ga c.Mhp.cf_b c.Mhp.cf_gb
      in
      match Hashtbl.find_opt best key with
      | None ->
        order := key :: !order;
        Hashtbl.replace best key (strength, c)
      | Some (Possible, _) when strength = Definite ->
        Hashtbl.replace best key (strength, c)
      | Some _ -> ())
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
