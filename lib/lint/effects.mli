(** Per-function may-raise summaries, transitively closed over the
    {!Callgraph}.

    A summary maps exception names (canonical: predefined ones bare,
    unit-local ones unit-qualified, ["*"] for a raise whose constructor
    could not be named) to the {!origin} of the potential raise.
    [try]/[match-with-exception] handlers subtract what their patterns
    provably catch.  Unknown callees are assumed total; known-partial
    stdlib functions ([List.hd], [Option.get], [Hashtbl.find],
    [int_of_string], ...) raise per a built-in table.  Bounds-checked
    indexing ([String.get]/[String.sub]/[Array.get]) is deliberately
    treated as total. *)

type origin =
  | Direct of Location.t * string
      (** concrete raise site and a short description *)
  | Via of string  (** one hop down the call chain, by node id *)

(** Fixpoint result over a set of units. *)
type t

val analyze : Callgraph.t list -> t

(** Residual may-raise set of a node id: what escapes after all local
    handlers; empty for a verified-total function. *)
val residual : t -> string -> (string * origin) list

(** Render the call chain from an origin down to its concrete raise
    site, e.g. ["Dbp_serve.Decision.parse -> Dbp_serve.Json_lite.field ->
    call to List.hd (Failure) at lib/serve/json_lite.ml:42"]. *)
val chain : t -> exn:string -> origin -> string
