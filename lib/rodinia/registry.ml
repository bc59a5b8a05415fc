(* All Rodinia benchmarks, in the order the paper's figures list them. *)

let all : Bench_def.t list =
  [ Backprop.bench
  ; Bfs.bench
  ; Btree.bench
  ; Cfd.bench
  ; Hotspot.bench
  ; Hotspot3d.bench
  ; Lud.bench
  ; Myocyte.bench
  ; Nw.bench
  ; Particlefilter.bench
  ; Pathfinder.bench
  ; Srad_v1.bench
  ; Srad_v2.bench
  ; Streamcluster.bench
  ]

(* matmul is kept separate: it is the MCUDA comparison (Fig. 12), not part
   of the Rodinia suite figures. *)
let matmul = Matmul.bench

let find name =
  if name = "matmul" then Some matmul
  else List.find_opt (fun (b : Bench_def.t) -> b.name = name) all
