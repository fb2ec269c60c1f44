(** A problem instance: a list of items (the paper's item list R), with the
    derived quantities the analysis uses throughout — span, total
    time-space demand d(R), the duration ratio mu, and the active-size
    profile S(t). *)

type t

val of_items : Item.t list -> t
(** @raise Invalid_argument if two items share an id. *)

val empty : t
(** The zero-item instance; [of_items []] without the raising type. *)

val items : t -> Item.t list
(** In increasing id order. *)

val to_array : t -> Item.t array
(** {!items} as a fresh array, filled straight from the id map without
    building the list. *)

val length : t -> int
val is_empty : t -> bool

val find : t -> int -> Item.t
(** Lookup by id. @raise Not_found *)

val span : t -> float
(** Measure of the union of the active intervals (paper's span(R)). *)

val span_intervals : t -> Interval.t list
(** The union of active intervals as canonical disjoint intervals; multiple
    intervals mean the instance splits into independent sublists
    (Section 5.2 footnote). *)

val demand : t -> float
(** d(R) = sum of s(r) * l(I(r)). *)

val min_duration : t -> float
(** Delta. @raise Invalid_argument on an empty instance. *)

val max_duration : t -> float

val mu : t -> float
(** max duration / min duration. @raise Invalid_argument on empty. *)

val size_profile : t -> Step_function.t
(** S(t): total size of active items as a step function of t. *)

val active_at : t -> float -> Item.t list
(** Items active at a time, in id order. *)

val arrivals_in_order : t -> Item.t list
(** Items sorted by arrival time (ties by id): the online input order. *)

val critical_times : t -> float list
(** Sorted distinct arrival and departure times.  Every time-varying
    quantity of an instance is constant between consecutive critical
    times. *)

val restrict : t -> (Item.t -> bool) -> t
(** Sub-instance of the items satisfying a predicate. *)

val split_disjoint : t -> t list
(** Split into maximal sub-instances with pairwise disjoint spans, ordered
    by time.  Singleton list if the span is one interval. *)

val shift : float -> t -> t
(** Translate every item in time. *)

val pp : Format.formatter -> t -> unit
