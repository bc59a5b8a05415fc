(* What a result needs to be compared with another: the host it ran on,
   the build, and the canary's time before and after the run, which shows
   how far the host's speed was from the reference. *)

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () : float =
  let kb =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> failwith "VmHWM missing from /proc/self/status"
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" Fun.id
          | Some _ -> go ()
        in
        go ())
  in
  float_of_int kb /. 1024.0

(* Sorts of the canary (speed.ml) the stamp times before and after the
   workload: ten readings' worth, to read the host's speed to a few
   percent. *)
let canary_reps = 10

let stamp_json ~(canary_before : float) ~(canary_after : float) : string =
  Printf.sprintf
    "{\"nproc\": %d, \"ocaml\": \"%s\", \"profile\": \"%s\", \
     \"canary_ms_before\": %.3f, \"canary_ms_after\": %.3f}"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version Build_info.profile canary_before canary_after
