(* moccuda-forward: one op is one warm forward pass of the miniature
   ResNet, every tensor op a transpiled kernel launched through Kmgr.
   Execution comes as many small launches behind cache lookups instead
   of a few large ones.  The ops cycle through the batch sizes of
   [Params.moc_batches], each its own graph over one kernel cache.

   Each op's loss must be bit-identical to the Tensorlib reference. *)

open Tensorlib

type input =
  { images_t : Tensor.t
  ; targets_a : int array
  ; images : Interp.Mem.buffer
  ; targets : Interp.Mem.buffer
  }

type state =
  { cms : Moccuda.Resnet.compiled_mini array (* one per batch size *)
  ; km : Moccuda.Kmgr.t
  ; ar : Moccuda.Arena.t
  }

let model = Moccuda.Resnet.mini_model ~channels:Params.moc_channels
let batches = Array.of_list Params.moc_batches

let make_input (rng : Random.State.t) ~seed (batch : int) : input =
  let images_t = Tensor.rand seed [| batch; 3; Params.moc_hw; Params.moc_hw |] in
  let targets_a = Array.init batch (fun _ -> Random.State.int rng Params.moc_classes) in
  { images_t
  ; targets_a
  ; images = Moccuda.Graph.buffer_of_tensor images_t
  ; targets = Moccuda.Graph.buffer_of_ints targets_a
  }

let forward (st : state) (inputs : input array) (i : int) : float =
  Moccuda.Resnet.run_mini_compiled st.cms.(i) st.km st.ar ~images:inputs.(i).images
    ~targets:inputs.(i).targets

(* Build every graph and run one cold pass of each, which compiles every
   kernel shape. *)
let set_up (inputs : input array) () : state =
  let st =
    { cms =
        Array.map
          (fun batch -> Moccuda.Resnet.mini_compiled model ~batch ~hw:Params.moc_hw)
          batches
    ; km = Moccuda.Kmgr.create ~domains:Params.domains ()
    ; ar = Moccuda.Arena.create ()
    }
  in
  Array.iteri (fun i _ -> ignore (forward st inputs i)) batches;
  st

(* Launch seconds per kernel, summed over its shapes. *)
let kernel_secs (km : Moccuda.Kmgr.t) : (string * float) list =
  List.fold_left
    (fun acc (k : Moccuda.Kmgr.kernel_info) ->
      let name = Report.metric_name k.Moccuda.Kmgr.kname in
      let prev = Option.value ~default:0.0 (List.assoc_opt name acc) in
      (name, prev +. k.Moccuda.Kmgr.ksecs) :: List.remove_assoc name acc)
    [] (Moccuda.Kmgr.kernels km)

let run ~seed ~seconds ~traced : Report.t =
  let rng = Random.State.make [| seed |] in
  let inputs = Array.map (make_input rng ~seed) batches in
  let setup_s, st =
    Report.setups ~n:Params.setup_reps ~setup:(set_up inputs) ~teardown:ignore
  in
  let references =
    Array.map
      (fun inp ->
        Moccuda.Resnet.mini_forward Moccuda.Backends.Moccuda_expert model ~images:inp.images_t
          ~targets:inp.targets_a)
      inputs
  in
  let s = Report.sampler ~traced_run:traced in
  (* Kmgr.stats is the live record: copy it *)
  let stats0 =
    let c = Moccuda.Kmgr.stats st.km in
    { c with Moccuda.Kmgr.launches = c.Moccuda.Kmgr.launches }
  in
  let allocs0 = Moccuda.Arena.allocs st.ar in
  let launch_ms = Hashtbl.create 16 in
  Report.passes s ~seconds (fun () ->
      Array.iter
        (fun i ->
          let before = if Report.next_traced s then kernel_secs st.km else [] in
          let loss, _, was_traced =
            Report.op s (fun op -> Trace.span ~op "kmgr.forward" (fun () -> forward st inputs i))
          in
          Option.iter (fun l -> Report.check s (Suite.same_bits l references.(i))) loss;
          if was_traced then
            List.iter
              (fun (k, after) ->
                let b = Option.value ~default:0.0 (List.assoc_opt k before) in
                Hashtbl.replace launch_ms k
                  (((after -. b) *. 1000.0)
                   +. Option.value ~default:0.0 (Hashtbl.find_opt launch_ms k)))
              (kernel_secs st.km))
        (Report.shuffle rng (Array.init (Array.length batches) Fun.id)));
  let stats = Moccuda.Kmgr.stats st.km in
  let ops = float_of_int s.Report.attempted in
  let per_op a b = float_of_int (a - b) /. ops in
  let compiles = stats.compiles - stats0.compiles in
  let allocs = Moccuda.Arena.allocs st.ar - allocs0 in
  (* warm passes compile nothing and allocate no tensors *)
  let invariants_ok = compiles = 0 && allocs = 0 in
  let layers =
    if not traced then []
    else begin
      let total = Report.traced_total_ms s in
      let forward = Trace.total_ms "kmgr.forward" in
      let launched = Hashtbl.fold (fun _ v a -> a +. v) launch_ms 0.0 in
      (* Kmgr times each launch itself; the rest of a forward pass is
         dispatch: the graph walk, cache lookups with their seal check,
         and the arena *)
      Report.sampler_summary s ~attributed_ms:forward
      @ [ ("kmgr.launch.share", launched /. total)
        ; ("kmgr.dispatch.share", (forward -. launched) /. total)
        ; ("kmgr.launches", per_op stats.launches stats0.launches)
        ; ("kmgr.hits", per_op stats.hits stats0.hits)
        ; ("kmgr.compiles", float_of_int compiles /. ops)
        ; ("arena.allocs", float_of_int allocs /. ops)
        ]
      @ Hashtbl.fold (fun k v acc -> ("kmgr.launch." ^ k ^ ".share", v /. total) :: acc) launch_ms []
    end
  in
  Report.finish s ~checks_ok:invariants_ok ~setup_s ~layers
