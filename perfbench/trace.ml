(* Spans recorded from the benchmark side around calls into each layer's
   public functions, held in memory and written as Chrome trace-event
   JSON (Perfetto and chrome://tracing open it) when the run ends.

   Every span of one op carries that op's id.  An op the op loop does not
   trace has id [untraced], and its spans cost one comparison. *)

let now_ns () : int64 = Monotonic_clock.now ()
let ms_of_ns (ns : int64) : float = Int64.to_float ns /. 1e6

let untraced = -1

type event =
  { name : string
  ; op : int
  ; t0 : int64
  ; dur : int64
  }

let events : event list ref = ref []
let totals : (string, int64) Hashtbl.t = Hashtbl.create 64

let record ~name ~op ~t0 ~dur =
  events := { name; op; t0; dur } :: !events;
  let prev = Option.value ~default:0L (Hashtbl.find_opt totals name) in
  Hashtbl.replace totals name (Int64.add prev dur)

(* Run [f] as span [name] of op [op]. *)
let span ~op name f =
  if op = untraced then f ()
  else begin
    let t0 = now_ns () in
    let r = f () in
    record ~name ~op ~t0 ~dur:(Int64.sub (now_ns ()) t0);
    r
  end

(* A span that belongs to no op: the whole workload run. *)
let no_op = -2

(* Sum of the durations of every span named [name], in ms. *)
let total_ms (name : string) : float =
  ms_of_ns (Option.value ~default:0L (Hashtbl.find_opt totals name))

let write (path : string) : unit =
  let evs = List.rev !events in
  let base = List.fold_left (fun m e -> min m e.t0) Int64.max_int evs in
  let us ns = Int64.to_float ns /. 1e3 in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
      List.iteri
        (fun i e ->
          Printf.fprintf oc
            "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
             \"ts\": %.3f, \"dur\": %.3f, \"args\": {%s}}\n"
            (if i = 0 then "" else ",")
            e.name
            (us (Int64.sub e.t0 base))
            (us e.dur)
            (if e.op = no_op then "" else Printf.sprintf "\"op\": %d" e.op))
        evs;
      output_string oc "]}\n")
