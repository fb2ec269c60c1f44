(** Arrival/departure event streams.

    The online engine consumes an instance as a time-ordered stream of
    events.  At equal times departures are delivered before arrivals: the
    intervals are half-open, so an item departing at t frees its capacity
    to an item arriving at t. *)

type kind = Arrival | Departure

type t = { time : float; kind : kind; item : Item.t }

val of_instance : Instance.t -> t list
(** All events in delivery order: increasing time; at equal times
    departures first; ties broken by item id. *)

(** The event source of the flat engine.

    Arrivals are read by a cursor over the id-sorted item array in
    (arrival, id) order — the array itself when ids already ascend with
    arrivals, otherwise one stable permutation of it.  Departures wait in
    a {!Heap.Flat} keyed by (departure, slot), each pushed as its
    arrival is delivered, so the heap holds only the items active at the
    current time.  The next event is the heap's least departure when its
    time is at most the next arrival's, otherwise that arrival: popping
    dry yields exactly the {!of_instance} order (time, departures first,
    then id) — the tie-break invariant the invariant suite pins. *)
module Flat : sig
  type t

  val of_items : Item.t array -> t
  (** The events of [items], which must be id-ascending
      ({!Instance.to_array} order) for the pop order to equal
      {!of_instance}.  O(n) when ids ascend with arrivals, O(n log n)
      otherwise.  The source reads [items] as it goes: do not mutate it. *)

  val is_empty : t -> bool

  val pop : t -> kind
  (** Deliver the next event and return its kind; {!slot} and {!time}
      then describe it.  @raise Invalid_argument if {!is_empty}. *)

  val slot : t -> int
  (** Position in [items] of the item of the event last popped. *)

  val time : t -> float
  (** Time of the event last popped: its item's arrival or departure. *)
end

val arrivals : t list -> Item.t list
(** The items of the arrival events, in stream order. *)

val kind_to_string : kind -> string

val pp : Format.formatter -> t -> unit
