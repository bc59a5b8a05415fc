(* Frontend tests: lexer, parser, return elimination, codegen structure. *)

open Ir

let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let compile_ok src =
  let m = Cudafe.Codegen.compile src in
  (match Verifier.verify_result m with
   | Ok () -> ()
   | Error e ->
     Alcotest.failf "generated IR does not verify: %s\n%s" e
       (Printer.op_to_string m));
  m

let fig1_src =
  {|
__device__ float sum(float* data, int n) {
  float total = 0.0f;
  for (int i = 0; i < n; i++) total += data[i];
  return total;
}
__global__ void normalize(float* out, float* in, int n) {
  int tid = blockIdx.x * blockDim.x + threadIdx.x;
  float val = sum(in, n);
  if (tid < n)
    out[tid] = in[tid] / val;
}
void launch(float* d_out, float* d_in, int n) {
  normalize<<<(n + 31) / 32, 32>>>(d_out, d_in, n);
}
|}

let test_lexer_launch_tokens () =
  let toks = Cudafe.Lexer.tokenize "k<<<a, b>>>(x);" in
  let kinds =
    Array.to_list toks
    |> List.map (fun (t : Cudafe.Lexer.postoken) ->
        Cudafe.Lexer.token_to_string t.tok)
  in
  Alcotest.(check (list string))
    "tokens"
    [ "k"; "<<<"; "a"; ","; "b"; ">>>"; "("; "x"; ")"; ";"; "<eof>" ]
    kinds

let test_parse_fig1 () =
  let prog = Cudafe.Parser.parse_program fig1_src in
  Alcotest.(check int) "3 functions" 3 (List.length prog);
  let k = List.nth prog 1 in
  Alcotest.(check string) "kernel name" "normalize" k.Cudafe.Ast.fn_name;
  Alcotest.(check bool)
    "kernel qualifier" true
    (k.Cudafe.Ast.fn_qual = Cudafe.Ast.Q_global)

let test_codegen_fig1_structure () =
  let m = compile_ok fig1_src in
  let s = Printer.op_to_string m in
  List.iter
    (fun frag ->
      if not (contains s frag) then
        Alcotest.failf "missing %S in:\n%s" frag s)
    [ "func.func @launch"; "func.func @sum"; "scf.parallel<grid>"
    ; "scf.parallel<block>"; "func.call @sum" ];
  (* the kernel is inlined at the launch site, not emitted standalone *)
  if contains s "func.func @normalize" then
    Alcotest.fail "kernel should be inlined, not emitted"

let test_precedence () =
  (* 2 + 3 * 4 == 14, (2 + 3) * 4 == 20 *)
  let src =
    {|
int f() { return 2 + 3 * 4; }
int g() { return (2 + 3) * 4; }
|}
  in
  let m = compile_ok src in
  let r, _ = Interp.Eval.run m "f" [] in
  Alcotest.(check int) "f" 14 (Interp.Mem.as_int (Option.get r));
  let r, _ = Interp.Eval.run m "g" [] in
  Alcotest.(check int) "g" 20 (Interp.Mem.as_int (Option.get r))

let test_early_return_elimination () =
  let src =
    {|
int f(int x) {
  if (x < 0) return -1;
  int y = x * 2;
  if (y > 10) return 10;
  return y;
}
|}
  in
  let m = compile_ok src in
  let run n =
    let r, _ = Interp.Eval.run m "f" [ Interp.Mem.Int n ] in
    Interp.Mem.as_int (Option.get r)
  in
  Alcotest.(check int) "negative" (-1) (run (-5));
  Alcotest.(check int) "clamped" 10 (run 7);
  Alcotest.(check int) "normal" 6 (run 3)

let test_return_in_loop () =
  let src =
    {|
int find(int* a, int n, int key) {
  for (int i = 0; i < n; i++) {
    if (a[i] == key) return i;
  }
  return -1;
}
|}
  in
  let m = compile_ok src in
  let buf = Interp.Mem.of_int_array [| 5; 7; 9; 11 |] in
  let run key =
    let r, _ =
      Interp.Eval.run m "find"
        [ Interp.Mem.Buf buf; Interp.Mem.Int 4; Interp.Mem.Int key ]
    in
    Interp.Mem.as_int (Option.get r)
  in
  Alcotest.(check int) "found" 2 (run 9);
  Alcotest.(check int) "missing" (-1) (run 8)

let test_shortcircuit_guard () =
  (* i < n && a[i] > 0 must not read a[i] when i >= n *)
  let src =
    {|
int f(int* a, int n, int i) {
  if (i < n && a[i] > 0) return 1;
  return 0;
}
|}
  in
  let m = compile_ok src in
  let buf = Interp.Mem.of_int_array [| 3 |] in
  let run i =
    let r, _ =
      Interp.Eval.run m "f"
        [ Interp.Mem.Buf buf; Interp.Mem.Int 1; Interp.Mem.Int i ]
    in
    Interp.Mem.as_int (Option.get r)
  in
  Alcotest.(check int) "in range" 1 (run 0);
  (* out of range must not fault *)
  Alcotest.(check int) "out of range" 0 (run 5)

let test_ternary_and_casts () =
  let src =
    {|
float f(int x) {
  float y = x > 2 ? 1.5f : 0.5f;
  return y + (float)(x / 2);
}
|}
  in
  let m = compile_ok src in
  let run n =
    let r, _ = Interp.Eval.run m "f" [ Interp.Mem.Int n ] in
    Interp.Mem.as_float (Option.get r)
  in
  Alcotest.(check (float 1e-6)) "x=5" 3.5 (run 5);
  Alcotest.(check (float 1e-6)) "x=1" 0.5 (run 1)

let test_while_and_do_while () =
  let src =
    {|
int collatz_steps(int n) {
  int steps = 0;
  while (n != 1) {
    if (n % 2 == 0) n = n / 2;
    else n = 3 * n + 1;
    steps = steps + 1;
  }
  return steps;
}
int do_once(int n) {
  int c = 0;
  do { c = c + 1; } while (c < n);
  return c;
}
|}
  in
  let m = compile_ok src in
  let run f n =
    let r, _ = Interp.Eval.run m f [ Interp.Mem.Int n ] in
    Interp.Mem.as_int (Option.get r)
  in
  Alcotest.(check int) "collatz 6" 8 (run "collatz_steps" 6);
  Alcotest.(check int) "do-while executes once" 1 (run "do_once" 0);
  Alcotest.(check int) "do-while loops" 5 (run "do_once" 5)

let test_parse_errors_are_positioned () =
  match Cudafe.Parser.parse_program "int f( { return 0; }" with
  | exception Cudafe.Parser.Error msg ->
    Alcotest.(check bool) "mentions line" true (contains msg "line 1")
  | _ -> Alcotest.fail "expected parse error"

let test_malloc_free () =
  let src =
    {|
float f(int n) {
  float* a = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++) a[i] = (float)i;
  float s = 0.0f;
  for (int i = 0; i < n; i++) s += a[i];
  free(a);
  return s;
}
|}
  in
  let m = compile_ok src in
  let r, _ = Interp.Eval.run m "f" [ Interp.Mem.Int 5 ] in
  Alcotest.(check (float 1e-6)) "sum" 10.0 (Interp.Mem.as_float (Option.get r))

(* One declaration statement with several declarators declares each in
   the enclosing scope; in a [for] initializer, in the loop's scope,
   where a declarator may shadow an outer name until the loop ends. *)
let test_multi_declarators () =
  let src =
    {|
float f(int n) {
  float a = 0.5f, b = 0.25f;
  int j = 7;
  for (int i = 0, j = n; i < j; i++) { a = a + b; }
  return a + b + j;
}
|}
  in
  let m = compile_ok src in
  let r, _ = Interp.Eval.run m "f" [ Interp.Mem.Int 2 ] in
  Alcotest.(check (float 0.0)) "a + b + j" 8.25 (Interp.Mem.as_float (Option.get r))

let tests =
  [ Alcotest.test_case "lexer launch tokens" `Quick test_lexer_launch_tokens
  ; Alcotest.test_case "parse fig1" `Quick test_parse_fig1
  ; Alcotest.test_case "codegen fig1 structure" `Quick
      test_codegen_fig1_structure
  ; Alcotest.test_case "precedence" `Quick test_precedence
  ; Alcotest.test_case "early return elimination" `Quick
      test_early_return_elimination
  ; Alcotest.test_case "return in loop" `Quick test_return_in_loop
  ; Alcotest.test_case "short-circuit guard" `Quick test_shortcircuit_guard
  ; Alcotest.test_case "ternary and casts" `Quick test_ternary_and_casts
  ; Alcotest.test_case "while and do-while" `Quick test_while_and_do_while
  ; Alcotest.test_case "positioned parse errors" `Quick
      test_parse_errors_are_positioned
  ; Alcotest.test_case "malloc/free" `Quick test_malloc_free
  ; Alcotest.test_case "multi-declarator scope" `Quick test_multi_declarators
  ]

(* appended: warp-primitive emulation tests *)
let warp_reduce_src =
  {|
__global__ void warp_sum(float* out, float* in) {
  int t = threadIdx.x;
  float v = in[blockIdx.x * 32 + t];
  for (int d = 16; d > 0; d = d / 2) {
    v += __shfl_down_sync(0xffffffff, v, d);
  }
  __syncwarp();
  if (t == 0) out[blockIdx.x] = v;
}
void launch(float* out, float* in, int nblocks) {
  warp_sum<<<nblocks, 32>>>(out, in);
}
|}

let run_warp m =
  let nblocks = 2 in
  let inp =
    Interp.Mem.of_float_array
      (Array.init (nblocks * 32) (fun i -> float_of_int (i mod 5)))
  in
  let out = Interp.Mem.of_float_array (Array.make nblocks 0.0) in
  let _ =
    Interp.Eval.run m "launch"
      [ Interp.Mem.Buf out; Interp.Mem.Buf inp; Interp.Mem.Int nblocks ]
  in
  Interp.Mem.float_contents out

let test_warp_shuffle_reduction () =
  let m = compile_ok warp_reduce_src in
  let got = run_warp m in
  for b = 0 to 1 do
    let expect = ref 0.0 in
    for t = 0 to 31 do
      expect := !expect +. float_of_int (((b * 32) + t) mod 5)
    done;
    Alcotest.(check (float 1e-4)) (Printf.sprintf "block %d" b) !expect got.(b)
  done

let test_warp_shuffle_xor () =
  let src =
    {|
__global__ void bfly(float* data) {
  int t = threadIdx.x;
  float v = data[t];
  v += __shfl_xor_sync(0xffffffff, v, 1);
  data[t] = v;
}
void launch(float* data) { bfly<<<1, 32>>>(data); }
|}
  in
  let m = compile_ok src in
  let buf = Interp.Mem.of_float_array (Array.init 32 float_of_int) in
  let _ = Interp.Eval.run m "launch" [ Interp.Mem.Buf buf ] in
  let got = Interp.Mem.float_contents buf in
  for t = 0 to 31 do
    Alcotest.(check (float 1e-6))
      (Printf.sprintf "lane %d" t)
      (float_of_int (t + (t lxor 1)))
      got.(t)
  done

let tests =
  tests
  @ [ Alcotest.test_case "warp shuffle reduction" `Quick
        test_warp_shuffle_reduction
    ; Alcotest.test_case "warp shuffle xor butterfly" `Quick
        test_warp_shuffle_xor
    ]
