(* The generic arrival parser: Json_lite.parse_object, the four field
   checks, then Item.make.  The library parses arrival lines with
   Arrival.parse_into alone; this plain composition of the JSON reader
   is the differential oracle the parse_into properties check it
   against (same Ok/Error verdict, bit-equal items). *)

open Dbp_core
open Dbp_serve

let parse line =
  match Json_lite.parse_object line with
  | Error e -> Error e
  | Ok fields -> (
      let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v in
      let* id = Json_lite.int_field fields "id" in
      let* size = Json_lite.num_field fields "size" in
      let* arrival = Json_lite.num_field fields "arrival" in
      let* departure = Json_lite.num_field fields "departure" in
      match Item.make ~id ~size ~arrival ~departure with
      | item -> Ok item
      | exception Invalid_argument msg -> Error msg)
