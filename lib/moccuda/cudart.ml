(* Emulation of the CUDA runtime surface PyTorch exercises (Sec. V-B):
   device enumeration/properties, memory management, and streams.

   PyTorch's interaction with CUDART is "mostly limited to identifying
   properties of installed GPUs, memory management, and management and
   synchronization of CUDA streams"; MocCUDA reports the property dump of
   a real GeForce RTX 2080 Ti and emulates one device per NUMA domain.
   Streams are serial task queues drained on synchronization — the role
   Apple's Grand Central Dispatch plays in the paper's implementation. *)

open Tensorlib

type device_properties =
  { prop_name : string
  ; total_global_mem : int
  ; shared_mem_per_block : int
  ; warp_size : int
  ; max_threads_per_block : int
  ; max_threads_dim : int * int * int
  ; max_grid_size : int * int * int
  ; multi_processor_count : int
  ; clock_rate_khz : int
  ; compute_capability : int * int
  }

(* The dump MocCUDA ships: an NVIDIA GeForce RTX 2080 Ti. *)
let rtx_2080_ti =
  { prop_name = "NVIDIA GeForce RTX 2080 Ti"
  ; total_global_mem = 11 * 1024 * 1024 * 1024
  ; shared_mem_per_block = 48 * 1024
  ; warp_size = 32
  ; max_threads_per_block = 1024
  ; max_threads_dim = (1024, 1024, 64)
  ; max_grid_size = (2147483647, 65535, 65535)
  ; multi_processor_count = 68
  ; clock_rate_khz = 1545000
  ; compute_capability = (7, 5)
  }

type error =
  | Success
  | Invalid_value
  | Out_of_memory
  | Invalid_device

type stream =
  { stream_id : int
  ; queue : (unit -> unit) Queue.t
  }

(* One emulated device per NUMA domain: the A64FX's four core memory
   groups. *)
let devices = 4

type state =
  { mutable current_device : int
  ; allocations : (int, Tensor.t) Hashtbl.t
  ; mutable next_ptr : int
  ; mutable allocated_bytes : int
  ; streams : (int, stream) Hashtbl.t
  ; mutable next_stream : int
  }

let create () =
  { current_device = 0
  ; allocations = Hashtbl.create 64
  ; next_ptr = 1
  ; allocated_bytes = 0
  ; streams = Hashtbl.create 8
  ; next_stream = 1
  }

let cuda_get_device_count (_ : state) = (Success, devices)

let cuda_get_device_properties (_st : state) d =
  if d < 0 then (Invalid_device, None) else (Success, Some rtx_2080_ti)

(* device memory: "pointers" are integer handles over host tensors *)
let cuda_malloc (st : state) (bytes : int) : error * int =
  if bytes < 0 then (Invalid_value, 0)
  else if st.allocated_bytes + bytes > rtx_2080_ti.total_global_mem then
    (Out_of_memory, 0)
  else begin
    let ptr = st.next_ptr in
    st.next_ptr <- ptr + 1;
    st.allocated_bytes <- st.allocated_bytes + bytes;
    Hashtbl.replace st.allocations ptr
      (Tensor.create [| (bytes + 3) / 4 |]);
    (Success, ptr)
  end

let cuda_free (st : state) (ptr : int) : error =
  match Hashtbl.find_opt st.allocations ptr with
  | None -> Invalid_value
  | Some t ->
    st.allocated_bytes <- st.allocated_bytes - Tensor.bytes t;
    Hashtbl.remove st.allocations ptr;
    Success

let deref (st : state) (ptr : int) : Tensor.t option =
  Hashtbl.find_opt st.allocations ptr

type memcpy_kind =
  | Host_to_device
  | Device_to_host
  | Device_to_device

let cuda_memcpy (st : state) ~(dst : [ `Host of float array | `Device of int ])
    ~(src : [ `Host of float array | `Device of int ]) ~(count : int)
    (_kind : memcpy_kind) : error =
  let floats = count / 4 in
  let read = function
    | `Host a -> Some a
    | `Device p -> Option.map (fun (t : Tensor.t) -> t.Tensor.data) (deref st p)
  in
  match read dst, read src with
  | Some d, Some s when Array.length d >= floats && Array.length s >= floats ->
    Array.blit s 0 d 0 floats;
    Success
  | _ -> Invalid_value

(* streams: serial dispatch queues (the GCD substitute) *)
let cuda_stream_create (st : state) : error * int =
  let id = st.next_stream in
  st.next_stream <- id + 1;
  Hashtbl.replace st.streams id { stream_id = id; queue = Queue.create () };
  (Success, id)

let enqueue (st : state) (id : int) (task : unit -> unit) : error =
  match Hashtbl.find_opt st.streams id with
  | Some s ->
    Queue.push task s.queue;
    Success
  | None -> Invalid_value

let cuda_stream_synchronize (st : state) (id : int) : error =
  match Hashtbl.find_opt st.streams id with
  | Some s ->
    while not (Queue.is_empty s.queue) do
      (Queue.pop s.queue) ()
    done;
    Success
  | None -> Invalid_value

