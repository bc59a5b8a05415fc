(* The seeded fixtures under test/fixtures/, resolved against the test
   executable's directory (dune copies them beside it), so a suite finds
   them from any working directory. *)

let path (name : string) : string =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) "fixtures")
    name

let read (name : string) : string =
  In_channel.with_open_text (path name) In_channel.input_all
