(** Array-backed binary min-heap.

    The event queue of the serve engine's pending departures and of the
    fault-tolerant engine.  When [cmp] is a total order (no two distinct
    pushed elements compare equal — e.g. one that falls back to the
    unique item id), the pop sequence is exactly the [cmp]-sorted
    sequence regardless of push order, so a heap-driven run is
    reproducible and agrees with a pre-sorted list. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> unit -> 'a t

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a option
(** Remove and return the [cmp]-least element. *)

val peek : 'a t -> 'a option

val length : 'a t -> int

val is_empty : 'a t -> bool

(** Flat min-heap over (float key, int payload) pairs, ordered
    lexicographically by (key, payload).

    The keys live in an unboxed [floatarray] and the payloads are
    immediate ints, so no element is ever boxed and the operational
    path allocates nothing beyond the backing arrays.  This is the
    flat engine's departure queue (see {!Event.Flat}): the payload is
    the item's slot, and because payloads are distinct the order is
    total — popping dry yields the sorted sequence exactly like the
    generic heap.  Keys must be finite ([invalid_arg] otherwise): the
    primitive float compares used internally are not NaN-safe. *)
module Flat : sig
  type t

  val create : unit -> t

  val push : t -> key:float -> payload:int -> unit

  val min_key : t -> float
  (** Key of the least element. @raise Invalid_argument if empty. *)

  val min_payload : t -> int
  (** Payload of the least element. @raise Invalid_argument if empty. *)

  val remove_min : t -> unit
  (** Drop the least element. @raise Invalid_argument if empty. *)

  val length : t -> int
  val is_empty : t -> bool
end
