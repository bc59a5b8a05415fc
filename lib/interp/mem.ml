(* Runtime memory: buffers backing memrefs, and runtime scalar values. *)

open Ir

type data =
  | Fdata of float array
  | Idata of int array

type buffer =
  { elem : Types.dtype
  ; dims : int array
  ; data : data
  ; bufid : int
  }

type rv =
  | Int of int (* all integer dtypes; I1 is 0/1 *)
  | Flt of float
  | Buf of buffer

exception Runtime_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

(* Atomic so the parallel runtime may allocate from worker domains
   (per-iteration scratch allocs inside worksharing loops). *)
let buf_counter = Atomic.make 0
let next_bufid () = Atomic.fetch_and_add buf_counter 1 + 1

let alloc_buffer elem dims =
  let size = Array.fold_left ( * ) 1 dims in
  let data =
    if Types.is_float_dtype elem then Fdata (Array.make size 0.0)
    else Idata (Array.make size 0)
  in
  { elem; dims; data; bufid = next_bufid () }

let size (b : buffer) = Array.fold_left ( * ) 1 b.dims

let rank_mismatch (b : buffer) n =
  fail "buffer #%d: rank mismatch (%d indices for rank %d)" b.bufid n
    (Array.length b.dims)

let out_of_bounds (b : buffer) ix d =
  fail "buffer #%d: index %d out of bounds [0,%d) in dim %d" b.bufid ix
    b.dims.(d) d

let check_par_steps (steps : int array) =
  Array.iteri
    (fun d s ->
      if s <= 0 then fail "parallel: non-positive step %d in dim %d" s d)
    steps

(* Row-major linearization with bounds checking. *)
let linear_index (b : buffer) (idxs : int array) =
  let n = Array.length b.dims in
  if Array.length idxs <> n then rank_mismatch b (Array.length idxs);
  let off = ref 0 in
  for i = 0 to n - 1 do
    let ix = idxs.(i) in
    if ix < 0 || ix >= b.dims.(i) then out_of_bounds b ix i;
    off := (!off * b.dims.(i)) + ix
  done;
  !off

(* Typed linear accessors: loads and stores that go straight to the
   backing array without boxing an [rv].  [lindex] performs the same
   bounds checking as [load]/[store]. *)
let lindex = linear_index

let get_f (b : buffer) (i : int) : float =
  match b.data with
  | Fdata a -> a.(i)
  | Idata a -> float_of_int a.(i)

let set_f (b : buffer) (i : int) (v : float) : unit =
  match b.data with
  | Fdata a -> a.(i) <- v
  | Idata a -> a.(i) <- int_of_float v

let set_i (b : buffer) (i : int) (v : int) : unit =
  match b.data with
  | Idata a -> a.(i) <- v
  | Fdata a -> a.(i) <- float_of_int v

let load (b : buffer) idxs : rv =
  let i = linear_index b idxs in
  match b.data with
  | Fdata a -> Flt a.(i)
  | Idata a -> Int a.(i)

let store (b : buffer) idxs (v : rv) =
  let i = linear_index b idxs in
  match b.data, v with
  | Fdata a, Flt f -> a.(i) <- f
  | Fdata a, Int n -> a.(i) <- float_of_int n
  | Idata a, Int n -> a.(i) <- n
  | Idata a, Flt f -> a.(i) <- int_of_float f
  | _, Buf _ -> fail "cannot store a buffer into a buffer"

let copy ~(src : buffer) ~(dst : buffer) =
  if size src <> size dst then fail "copy: size mismatch";
  match src.data, dst.data with
  | Fdata s, Fdata d -> Array.blit s 0 d 0 (Array.length s)
  | Idata s, Idata d -> Array.blit s 0 d 0 (Array.length s)
  | _ -> fail "copy: element type mismatch"

let as_int = function
  | Int n -> n
  | Flt f -> fail "expected integer value, got float %g" f
  | Buf _ -> fail "expected integer value, got buffer"

(* Integer view with C-style truncation for floats (used by casts). *)
let as_int_or_trunc = function
  | Int n -> n
  | Flt f -> int_of_float f
  | Buf _ -> fail "expected scalar value, got buffer"

let as_float = function
  | Flt f -> f
  | Int n -> float_of_int n
  | Buf _ -> fail "expected float value, got buffer"

let as_buf = function
  | Buf b -> b
  | Int _ | Flt _ -> fail "expected buffer value"

(* Convenience constructors for tests and drivers. *)
let of_float_array ?(dims = [||]) (a : float array) =
  let dims = if dims = [||] then [| Array.length a |] else dims in
  { elem = Types.F32; dims; data = Fdata a; bufid = next_bufid () }

let of_int_array ?(dims = [||]) (a : int array) =
  let dims = if dims = [||] then [| Array.length a |] else dims in
  { elem = Types.Index; dims; data = Idata a; bufid = next_bufid () }

let float_contents (b : buffer) =
  match b.data with
  | Fdata a -> Array.copy a
  | Idata a -> Array.map float_of_int a

let int_contents (b : buffer) =
  match b.data with
  | Idata a -> Array.copy a
  | Fdata a -> Array.map int_of_float a

(* --- commutative output checksum --- *)

(* splitmix64 finalizer: a cheap full-avalanche 64-bit mixer. *)
let mix64 (z : int64) : int64 =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* Sum of per-element hashes: every element contributes a hash of its
   (buffer position, index, bit pattern), and the contributions are
   combined with integer addition — associative and commutative, so the
   digest is identical no matter which thread touched which element or
   in which order the buffers are walked.  Masked to 52 bits so the
   float conversion is exact. *)
let checksum (bufs : buffer array) : float =
  let total = ref 0L in
  Array.iteri
    (fun bi b ->
      let salt = mix64 (Int64.of_int (bi + 1)) in
      let add i bits =
        let h =
          mix64
            (Int64.logxor bits
               (Int64.add salt (mix64 (Int64.of_int (i + 1)))))
        in
        total := Int64.add !total h
      in
      match b.data with
      | Fdata a -> Array.iteri (fun i x -> add i (Int64.bits_of_float x)) a
      | Idata a -> Array.iteri (fun i x -> add i (Int64.of_int x)) a)
    bufs;
  Int64.to_float (Int64.logand !total 0xF_FFFF_FFFF_FFFFL)
