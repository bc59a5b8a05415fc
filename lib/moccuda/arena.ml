(* Tensor arena for the graph executor: rank-1 F64 buffers pooled by
   element count.  A forward pass grabs its intermediates, reads its
   outputs, then [reset]s — after the first pass every grab is a reuse,
   so warm passes allocate no tensor storage (mirroring the compiled
   engine's zero-allocation warm launches). *)

type t =
  { free : (int, Interp.Mem.buffer Queue.t) Hashtbl.t
  ; mutable held : Interp.Mem.buffer list
  ; mutable allocs : int
  ; mutable reuses : int
  }

let create () : t =
  { free = Hashtbl.create 16; held = []; allocs = 0; reuses = 0 }

let zero (b : Interp.Mem.buffer) =
  for i = 0 to Interp.Mem.size b - 1 do
    Interp.Mem.set_f b i 0.0
  done

(* A zero-filled F64 buffer of [n] elements, owned by the caller until
   the next [reset]. *)
let grab (t : t) (n : int) : Interp.Mem.buffer =
  let q =
    match Hashtbl.find_opt t.free n with
    | Some q -> q
    | None ->
      let q = Queue.create () in
      Hashtbl.replace t.free n q;
      q
  in
  let b =
    if Queue.is_empty q then begin
      t.allocs <- t.allocs + 1;
      Interp.Mem.alloc_buffer Ir.Types.F64 [| n |]
    end
    else begin
      t.reuses <- t.reuses + 1;
      let b = Queue.pop q in
      zero b;
      b
    end
  in
  t.held <- b :: t.held;
  b

(* Return every held buffer to its free list.  Buffers handed out since
   the last reset must not be read afterwards — copy results out first. *)
let reset (t : t) : unit =
  List.iter
    (fun (b : Interp.Mem.buffer) ->
      Queue.push b (Hashtbl.find t.free (Interp.Mem.size b)))
    t.held;
  t.held <- []

let allocs t = t.allocs
let reuses t = t.reuses
