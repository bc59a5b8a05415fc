(* Analysis-layer tests: affine derivation, the per-dimension cross-thread
   verdicts (validated by brute force over small domains), barrier
   interval sets, call effect summaries, and aliasing. *)

open Ir
open Analysis

(* --- affine expression algebra --- *)

let v1 = Value.fresh ~name:"a" (Types.Scalar Types.Index)
let v2 = Value.fresh ~name:"b" (Types.Scalar Types.Index)

let test_affine_algebra () =
  let open Affine in
  let e = add (scale 3 (var v1)) (add (var v2) (const 5)) in
  Alcotest.(check int) "coeff a" 3 (coeff e v1);
  Alcotest.(check int) "coeff b" 1 (coeff e v2);
  Alcotest.(check int) "const" 5 e.const;
  let z = sub e e in
  Alcotest.(check bool) "x - x = 0" true (is_const z && z.const = 0);
  Alcotest.(check bool) "equal reflexive" true (equal e e);
  Alcotest.(check bool) "scale 0" true (is_const (scale 0 e))

(* Brute-force validation of [compare_dim]: enumerate two affine
   expressions over one thread iv (domain 0..7) plus one shared symbol
   (domain 0..3), and check the verdict against exhaustive evaluation. *)
let test_compare_dim_brute_force =
  QCheck.Test.make ~name:"compare_dim agrees with brute force" ~count:500
    QCheck.(
      tup4
        (pair (int_range (-3) 3) (int_range (-3) 3)) (* tid coeffs *)
        (pair (int_range (-2) 2) (int_range (-2) 2)) (* sym coeffs *)
        (pair (int_range (-4) 4) (int_range (-4) 4)) (* consts *)
        unit)
    (fun ((ca, cb), (sa, sb), (ka, kb), ()) ->
      let tid = Value.fresh ~name:"t" (Types.Scalar Types.Index) in
      let sym = Value.fresh ~name:"s" (Types.Scalar Types.Index) in
      let open Affine in
      let mk c s k = add (scale c (var tid)) (add (scale s (var sym)) (const k)) in
      let ea = mk ca sa ka and eb = mk cb sb kb in
      let tids = Value.Set.singleton tid in
      let verdict = compare_dim ~tids ea eb in
      (* brute force: can the two expressions be equal with t1 <> t2 under
         some shared symbol value?  and does equality force t1 = t2? *)
      let eval c s k t sv = (c * t) + (s * sv) + k in
      let can_equal_diff = ref false in
      let equal_forces_t = ref true in
      for sv = 0 to 3 do
        for t1 = 0 to 7 do
          for t2 = 0 to 7 do
            if eval ca sa ka t1 sv = eval cb sb kb t2 sv then begin
              if t1 <> t2 then can_equal_diff := true;
              if t1 <> t2 then equal_forces_t := false
            end
          done
        done
      done;
      match verdict with
      | Disjoint ->
        (* claims never equal under ANY valuation: check none found (also
           with equal threads) *)
        let any_equal = ref false in
        for sv = 0 to 3 do
          for t = 0 to 7 do
            if eval ca sa ka t sv = eval cb sb kb t sv then any_equal := true
          done
        done;
        (* Disjoint must at least rule out the cross-thread case *)
        (not !can_equal_diff) && not !any_equal
      | Forces s when Value.Set.mem tid s ->
        (* claims cross-thread equality impossible *)
        !equal_forces_t
      | Forces _ | Maybe -> true (* conservative answers are always sound *))

(* Brute-force validation of the pair decision [Effects.meet] over two
   thread ivs with literal extents 1..4, a serial-loop iv [s] (0..3) and
   guard pins to [c] or to [s + c]: when the accesses do not conflict
   across threads, no two distinct threads reach the same address; when
   the meet is exact, any two distinct threads that run the accesses in
   one iteration and agree on the forced ivs do, and with constant pins
   and an iv left free two such threads exist.  A wrap-around copy
   ({!Effects.shift_access}) runs in another iteration, so its [s]
   ranges apart from the other access's. *)
let test_meet_brute_force =
  QCheck.Test.make ~name:"meet agrees with brute force over two thread ivs"
    ~count:2000 QCheck.(int_bound 0x3FFFFFFF)
    (fun seed ->
      let rs = Random.State.make [| seed |] in
      let pick l = List.nth l (Random.State.int rs (List.length l)) in
      let index name = Value.fresh ~name (Types.Scalar Types.Index) in
      let tx = index "tx" and ty = index "ty" and sym = index "s" in
      let base =
        Value.fresh ~name:"buf"
          (Types.Memref
             { elem = Types.F32; shape = [ None ]; space = Types.Global })
      in
      let ex = 1 + Random.State.int rs 4 and ey = 1 + Random.State.int rs 4 in
      (* a dimension [cx*tx + cy*ty + cs*s + k]; the other access's is
         the same, shifted by one, or drawn afresh *)
      let dim () =
        (pick [ -1; 0; 1; 2; 4 ], pick [ 0; 1; 2; 4; 8 ], pick [ 0; 1 ],
         pick [ -1; 0; 1 ])
      in
      let da = List.init (1 + Random.State.int rs 2) (fun _ -> dim ()) in
      let db =
        List.map
          (fun ((cx, cy, cs, k) as d) ->
            match Random.State.int rs 3 with
            | 0 -> d
            | 1 -> (cx, cy, cs, k + pick [ -1; 1 ])
            | _ -> dim ())
          da
      in
      (* a pin holds its iv at [c], or at [s + c] *)
      let pin n =
        match Random.State.int rs 3 with
        | 0 -> None
        | 1 -> Some (0, Random.State.int rs n)
        | _ -> Some (1, pick [ -1; 0; 1 ])
      in
      let pa = (pin ex, pin ey) and pb = (pin ex, pin ey) in
      let wrapped = Random.State.bool rs in
      let expr (cx, cy, cs, k) =
        Affine.(
          add (scale cx (var tx))
            (add (scale cy (var ty)) (add (scale cs (var sym)) (const k))))
      in
      let access dims (px, py) kind =
        let pin iv p pins =
          match p with
          | Some (cs, c) ->
            Value.Map.add iv Affine.(add (scale cs (var sym)) (const c)) pins
          | None -> pins
        in
        let pins = pin tx px (pin ty py Value.Map.empty) in
        Effects.mk_access ~base ~idx:(List.map (fun d -> Some (expr d)) dims)
          ~pinned:pins ~livs:(Value.Set.singleton sym) kind
      in
      let a = access da pa Effects.Write in
      let b = access db pb Effects.Read in
      let b = if wrapped then Effects.shift_access b else b in
      let ctx =
        { Effects.info = Info.build (Cudafe.Codegen.compile "void f() {}")
        ; modul = None
        ; summaries = Effects.new_summaries ()
        ; par = None
        ; tids = Value.Set.of_list [ tx; ty ]
        ; extents = Value.Map.add tx ex (Value.Map.singleton ty ey)
        }
      in
      let eval (cx, cy, cs, k) x y s = (cx * x) + (cy * y) + (cs * s) + k in
      let runs (px, py) x y s =
        let holds v =
          Option.fold ~none:true ~some:(fun (cs, c) -> v = (cs * s) + c)
        in
        holds x px && holds y py
      in
      let exact_ivs =
        match Effects.meet ctx a b with
        | Effects.Forced { ivs; exact = true } when not wrapped -> Some ivs
        | Effects.Forced _ | Effects.Never -> None
      in
      let agree ivs x1 y1 x2 y2 =
        ((not (Value.Set.mem tx ivs)) || x1 = x2)
        && ((not (Value.Set.mem ty ivs)) || y1 = y2)
      in
      let collide = ref false and inexact = ref false in
      for s1 = 0 to 3 do
        for s2 = 0 to 3 do
          if wrapped || s1 = s2 then
            for x1 = 0 to ex - 1 do
              for y1 = 0 to ey - 1 do
                for x2 = 0 to ex - 1 do
                  for y2 = 0 to ey - 1 do
                    if
                      (x1, y1) <> (x2, y2)
                      && runs pa x1 y1 s1 && runs pb x2 y2 s2
                    then begin
                      let same =
                        List.for_all2
                          (fun d1 d2 -> eval d1 x1 y1 s1 = eval d2 x2 y2 s2)
                          da db
                      in
                      if same then collide := true;
                      match exact_ivs with
                      | Some ivs when agree ivs x1 y1 x2 y2 && not same ->
                        inexact := true
                      | _ -> ()
                    end
                  done
                done
              done
            done
        done
      done;
      (* with constant pins, an exact meet that leaves an iv free is a
         collision of two distinct threads; pins that move with [s] can
         keep the accesses apart in every iteration, which the meet
         does not see *)
      let fixed_pins =
        List.for_all
          (function Some (cs, _) -> cs = 0 | None -> true)
          [ fst pa; snd pa; fst pb; snd pb ]
      in
      let exact_free =
        match exact_ivs with
        | Some ivs -> not (Value.Set.subset ctx.Effects.tids ivs)
        | None -> false
      in
      (Effects.cross_thread_conflict ctx a b || not !collide)
      && (not !inexact)
      && ((not (exact_free && fixed_pins)) || !collide))

(* --- effects / barrier intervals on a concrete kernel --- *)

let build_kernel src =
  let m = Cudafe.Codegen.compile src in
  Core.Cpuify.cleanup m;
  m

let find_block_par m =
  let found = ref None in
  Op.iter
    (fun o -> if o.Op.kind = Op.Parallel Op.Block then found := Some o)
    m;
  Option.get !found

let find_barriers m =
  let acc = ref [] in
  Op.iter (fun o -> if o.Op.kind = Op.Barrier then acc := o :: !acc) m;
  List.rev !acc

let test_barrier_intervals_stop_at_barriers () =
  let m =
    build_kernel
      {|
__global__ void k(float* a, float* b, float* c) {
  int t = threadIdx.x;
  a[t] = 1.0f;
  __syncthreads();
  b[t] = 2.0f;
  __syncthreads();
  c[t] = 3.0f;
}
void launch(float* a, float* b, float* c) { k<<<1, 8>>>(a, b, c); }
|}
  in
  let par = find_block_par m in
  let info = Info.build m in
  let ctx = Effects.make_ctx ~modul:m ~par info in
  match find_barriers m with
  | [ b1; b2 ] ->
    let before1, after1 = Effects.barrier_intervals ctx ~par b1 in
    let bases accs =
      List.filter_map (fun (a : Effects.access) -> a.Effects.base) accs
      |> List.map (fun (v : Value.t) -> Option.value ~default:"?" v.Value.name)
      |> List.sort_uniq compare
    in
    Alcotest.(check (list string)) "before b1 touches a" [ "a" ] (bases before1);
    Alcotest.(check (list string)) "after b1 stops at b2" [ "b" ] (bases after1);
    let before2, after2 = Effects.barrier_intervals ctx ~par b2 in
    Alcotest.(check (list string)) "before b2" [ "b" ] (bases before2);
    Alcotest.(check (list string)) "after b2" [ "c" ] (bases after2)
  | l -> Alcotest.failf "expected 2 barriers, got %d" (List.length l)

let test_loop_wrap_included () =
  (* the interval of an in-loop barrier must include the loop entry path:
     the pre-loop write to s2 is visible before the in-loop barrier *)
  let m =
    build_kernel
      {|
__global__ void k(float* s2) {
  int t = threadIdx.x;
  s2[t] = 1.0f;
  for (int i = 0; i < 2; i++) {
    __syncthreads();
  }
}
void launch(float* s2) { k<<<1, 8>>>(s2); }
|}
  in
  let par = find_block_par m in
  let info = Info.build m in
  let ctx = Effects.make_ctx ~modul:m ~par info in
  match find_barriers m with
  | [ b ] ->
    let before, _ = Effects.barrier_intervals ctx ~par b in
    Alcotest.(check bool) "pre-loop write visible" true
      (List.exists
         (fun (a : Effects.access) -> a.Effects.acc_kind = Effects.Write)
         before)
  | l -> Alcotest.failf "expected 1 barrier, got %d" (List.length l)

let test_wrap_around_shifted () =
  (* a write AFTER the in-loop barrier reaches the barrier's before-set
     through the wrap-around path of the next iteration, marked
     [shifted] and with the iv-dependent affine info dropped (the iv is
     not comparable across the iteration boundary) *)
  let m =
    build_kernel
      {|
__global__ void k(float* a) {
  int t = threadIdx.x;
  for (int i = 0; i < 4; i++) {
    __syncthreads();
    a[t + i] = 1.0f;
  }
}
void launch(float* a) { k<<<1, 8>>>(a); }
|}
  in
  let par = find_block_par m in
  let info = Info.build m in
  let ctx = Effects.make_ctx ~modul:m ~par info in
  match find_barriers m with
  | [ b ] ->
    let before, after = Effects.barrier_intervals ctx ~par b in
    let wrapped =
      List.filter
        (fun (a : Effects.access) ->
          a.Effects.shifted && a.Effects.acc_kind = Effects.Write)
        before
    in
    Alcotest.(check bool) "wrap-around write reaches the before set" true
      (wrapped <> []);
    Alcotest.(check bool) "wrapped access drops iv-dependent affine info"
      true
      (List.for_all
         (fun (a : Effects.access) ->
           match a.Effects.idx with
           | Some dims -> List.for_all (fun d -> d = None) dims
           | None -> true)
         wrapped);
    Alcotest.(check bool) "same-iteration write in the after set not shifted"
      true
      (List.exists
         (fun (a : Effects.access) ->
           a.Effects.acc_kind = Effects.Write && not a.Effects.shifted)
         after)
  | l -> Alcotest.failf "expected 1 barrier, got %d" (List.length l)

(* --- call summaries --- *)

let test_call_summaries () =
  let src =
    {|
__device__ float reader(float* p, int n) {
  float s = 0.0f;
  for (int i = 0; i < n; i++) s += p[i];
  return s;
}
__device__ void writer(float* q, float v) { q[0] = v; }
__device__ float chained(float* p, float* q, int n) {
  float s = reader(p, n);
  writer(q, s);
  return s;
}
void dummy(float* p, float* q, int n) {
  float x = chained(p, q, n);
  q[1] = x;
}
|}
  in
  let m = Cudafe.Codegen.compile src in
  let tbl = Effects.new_summaries () in
  let reader_sum = Effects.summarize m tbl "reader" in
  Alcotest.(check bool) "reader only reads param 0" true
    (List.for_all
       (fun (it : Effects.summary_item) ->
         it.Effects.s_kind = Effects.Read && it.Effects.s_param = Some 0)
       reader_sum
     && reader_sum <> []);
  let chained_sum = Effects.summarize m tbl "chained" in
  Alcotest.(check bool) "chained reads p and writes q" true
    (List.exists
       (fun (it : Effects.summary_item) ->
         it.Effects.s_kind = Effects.Read && it.Effects.s_param = Some 0)
       chained_sum
     && List.exists
          (fun (it : Effects.summary_item) ->
            it.Effects.s_kind = Effects.Write && it.Effects.s_param = Some 1)
          chained_sum)

(* --- aliasing --- *)

let test_alias_rules () =
  let src =
    {|
void f(float* p, float* q, int n) {
  float* a = (float*)malloc(n * sizeof(float));
  float* b = (float*)malloc(n * sizeof(float));
  a[0] = p[0];
  b[0] = q[0];
  free(a);
  free(b);
}
|}
  in
  let m = Cudafe.Codegen.compile src in
  let info = Info.build m in
  let f = Option.get (Op.find_func m "f") in
  let params = f.Op.regions.(0).rargs in
  let allocs = ref [] in
  Op.iter
    (fun o -> if o.Op.kind = Op.Alloc then allocs := Op.result o :: !allocs)
    m;
  (match !allocs with
   | [ b; a ] ->
     Alcotest.(check bool) "distinct allocs don't alias" false
       (Effects.bases_may_alias info a b);
     Alcotest.(check bool) "alloc vs param don't alias" false
       (Effects.bases_may_alias info a params.(0));
     Alcotest.(check bool) "distinct params assumed noalias" false
       (Effects.bases_may_alias info params.(0) params.(1));
     Alcotest.(check bool) "same base aliases" true
       (Effects.bases_may_alias info a a)
   | l -> Alcotest.failf "expected 2 allocs, got %d" (List.length l));
  (* Info utilities *)
  let par_of v = Info.defining_op info v in
  Alcotest.(check bool) "param has no defining op" true
    (par_of params.(0) = None)

let test_alias_corner_cases () =
  let src =
    {|
void f(float* p, int n) {
  float* a = (float*)malloc(n * sizeof(float));
  a[0] = p[0];
  free(a);
}
|}
  in
  let m = Cudafe.Codegen.compile src in
  let f = Option.get (Op.find_func m "f") in
  let params = f.Op.regions.(0).rargs in
  let alloc = ref None in
  Op.iter
    (fun o -> if o.Op.kind = Op.Alloc then alloc := Some (Op.result o))
    m;
  let a = Option.get !alloc in
  (* graft a cast of the allocation and an opaque (select-defined) base
     into the function, then rebuild the index: origin must chase the
     cast and give up on the select *)
  let mk_memref name =
    Value.fresh ~name
      (Types.Memref { elem = Types.F32; shape = [ None ]; space = Types.Global })
  in
  let c = mk_memref "cast" in
  let castop = Op.mk (Op.Cast Types.F32) ~operands:[| a |] ~results:[| c |] in
  let cond = Value.fresh ~name:"c" (Types.Scalar Types.I1) in
  let s = mk_memref "sel" in
  let selop =
    Op.mk Op.Select ~operands:[| cond; a; c |] ~results:[| s |]
  in
  f.Op.regions.(0).body <- f.Op.regions.(0).body @ [ castop; selop ];
  let info = Info.build m in
  Alcotest.(check bool) "cast of alloc aliases the alloc" true
    (Effects.bases_may_alias info c a);
  Alcotest.(check bool) "cast of alloc still noalias with a param" false
    (Effects.bases_may_alias info c params.(0));
  Alcotest.(check bool) "select-defined base may alias a param" true
    (Effects.bases_may_alias info s params.(0));
  Alcotest.(check bool) "select-defined base may alias the alloc" true
    (Effects.bases_may_alias info s a);
  (* values with no defining op anywhere behave like distinct parameters *)
  let x1 = mk_memref "x1" and x2 = mk_memref "x2" in
  Alcotest.(check bool) "distinct externals assumed noalias" false
    (Effects.bases_may_alias info x1 x2);
  Alcotest.(check bool) "an external aliases itself" true
    (Effects.bases_may_alias info x1 x1)

let tests =
  [ Alcotest.test_case "affine algebra" `Quick test_affine_algebra
  ; QCheck_alcotest.to_alcotest test_compare_dim_brute_force
  ; QCheck_alcotest.to_alcotest test_meet_brute_force
  ; Alcotest.test_case "barrier intervals stop at barriers" `Quick
      test_barrier_intervals_stop_at_barriers
  ; Alcotest.test_case "loop entry path included" `Quick
      test_loop_wrap_included
  ; Alcotest.test_case "wrap-around accesses are shifted" `Quick
      test_wrap_around_shifted
  ; Alcotest.test_case "call summaries" `Quick test_call_summaries
  ; Alcotest.test_case "alias rules" `Quick test_alias_rules
  ; Alcotest.test_case "alias corner cases" `Quick test_alias_corner_cases
  ]
