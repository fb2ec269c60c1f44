(** Resolved def->use extraction over a compilation unit's Typedtree.

    Identifier uses are canonicalised: dune and stdlib module mangling
    ([Dbp_serve__Arrival], [Stdlib__List]) is split back into dotted
    components, [Stdlib.] prefixes are stripped, and module aliases
    ([module U = Unix], chained through [module V = U]) are chased to
    their roots -- the resolution step the purely syntactic rules
    cannot perform.  [open]ed uses arrive already resolved from the
    typechecker. *)

(** One value use: canonical components, the identifier as written in
    the source (for deciding whether the syntactic layer already caught
    it), and its location.  [u_include] marks [include M] module uses
    (components are the bare module path). *)
type use = {
  u_comps : string list;
  u_written : Longident.t;
  u_loc : Location.t;
  u_include : bool;
}

(** One toplevel (possibly nested-module) value binding: canonical node
    id ([Dbp_serve.Decision.parse]), definition location, whether it
    carries a [[@dbp.total]] attribute, the resolved uses in its body,
    and the body itself (consumed by {!Effects}). *)
type def = {
  d_id : string;
  d_loc : Location.t;
  d_total : bool;
  d_uses : use list;
  d_body : Typedtree.expression;
}

type t = {
  g_file : string;  (** source path as given to the driver *)
  g_prefix : string;  (** canonical unit prefix, e.g. [Dbp_serve.Arrival] *)
  g_defs : def list;
  g_floating : use list;
      (** uses outside any named binding: [let () = ...], includes *)
  g_resolve : Path.t -> string list;  (** canonicalise any path *)
  g_exn_name : Path.t -> string;
      (** canonical exception-constructor name; predefined exceptions
          stay bare ([Failure]), unit-local ones are unit-qualified *)
}

(** Build the graph for one unit.  [modname] is the cmt's compilation
    unit name; [file] the driver-relative source path findings should
    carry. *)
val build : file:string -> modname:string -> Typedtree.structure -> t

(** Every use in the unit: floating ones plus each def's. *)
val all_uses : t -> use list

(** Split a mangled name on [__] ([Dbp_serve__Arrival] ->
    [["Dbp_serve"; "Arrival"]]). *)
val demangle : string -> string list

(** Drop a leading [Stdlib.] when something follows it. *)
val strip_stdlib : string list -> string list

(** Dot-join components. *)
val join : string list -> string
