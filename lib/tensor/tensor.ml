(* Dense float tensors in NCHW layout — the data substrate for MocCUDA's
   cuDNN re-implementations. *)

type t =
  { data : float array
  ; shape : int array
  }

let numel (t : t) = Array.length t.data

let create shape =
  let n = Array.fold_left ( * ) 1 shape in
  { data = Array.make n 0.0; shape }

let of_array shape data =
  assert (Array.fold_left ( * ) 1 shape = Array.length data);
  { data; shape }

let init shape f =
  let t = create shape in
  Array.iteri (fun i _ -> t.data.(i) <- f i) t.data;
  t

let rand seed shape =
  let state = ref (seed * 2654435761 land 0x3FFFFFFF) in
  init shape (fun _ ->
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      (float_of_int !state /. 1073741824.0) -. 0.5)

let copy (t : t) = { data = Array.copy t.data; shape = Array.copy t.shape }

(* 4-D accessors (N, C, H, W) *)
let idx4 (t : t) n c h w =
  let sc = t.shape.(1) and sh = t.shape.(2) and sw = t.shape.(3) in
  ((((n * sc) + c) * sh) + h) * sw + w

let get4 t n c h w = t.data.(idx4 t n c h w)
let set4 t n c h w v = t.data.(idx4 t n c h w) <- v

(* 2-D accessors *)
let idx2 (t : t) i j = (i * t.shape.(1)) + j
let get2 t i j = t.data.(idx2 t i j)
let set2 t i j v = t.data.(idx2 t i j) <- v

let map2_inplace f (a : t) (b : t) =
  assert (numel a = numel b);
  Array.iteri (fun i x -> a.data.(i) <- f x b.data.(i)) a.data

let add_inplace a b = map2_inplace ( +. ) a b

let max_abs_diff (a : t) (b : t) =
  assert (numel a = numel b);
  let m = ref 0.0 in
  Array.iteri
    (fun i x -> m := Float.max !m (Float.abs (x -. b.data.(i))))
    a.data;
  !m

let bytes (t : t) = 4 * numel t
