(** A single unit-capacity bin and the items placed in it.

    A bin accumulates items; its *level* at time t is the total size of its
    items active at t and must never exceed the capacity 1.  The bin's
    usage time is the span of its items (paper Section 3.1).  Values are
    persistent: [place] returns a new bin. *)

type t

val capacity : float
(** 1., the unit bin capacity the paper normalises to. *)

val tolerance : float
(** Slack used in feasibility checks ([1e-9]) so that sums of floats such
    as ten items of size 0.1 still fit together. *)

val empty : index:int -> t
(** A fresh bin.  [index] is the opening order used by First Fit. *)

val index : t -> int
val items : t -> Item.t list
val is_empty : t -> bool

val level_profile : t -> Step_function.t
(** The bin level as a function of time. *)

val level_at : t -> float -> float

val fits : t -> Item.t -> bool
(** [fits b r] iff placing [r] in [b] keeps the level within capacity at
    every instant of r's active interval — the clairvoyant admission test
    (uses the already-known departure times of all placed items). *)

val fits_at : t -> at:float -> Item.t -> bool
(** Non-clairvoyant admission test: only checks the level at time [at]
    (the instant of arrival).  With the clairvoyant engine driving
    placements in arrival order the two tests agree; this one exists for
    the non-clairvoyant baselines and for validation. *)

val place : t -> Item.t -> t
(** @raise Invalid_argument if the item does not fit (checks [fits]). *)

val of_placement : index:int -> Item.t list -> t
(** [of_placement ~index placed] is the bin
    [List.fold_left place_unchecked (empty ~index) placed] — including a
    bit-identical level profile — rebuilt in one
    O(k log k + sum of concurrent actives) endpoint sweep instead of
    the fold's O(k^2) incremental profile merges.  [placed] is in
    placement order (oldest first).  This is how the flat engine
    materialises the final packing: it records only each bin's
    placement chain during a run and reconstructs the boxed states
    here. *)

val place_unchecked : t -> Item.t -> t
(** [place] without the [fits] admission re-check, for callers that have
    already validated — the indexed engine checks [fits_at] at the
    arrival instant, which is equivalent here: every already-placed item
    active after the arrival is also active at it, so the level over the
    new item's interval never exceeds its value at the arrival.  An
    unvalidated overflow is caught at the end of a run by
    {!Packing.of_bins}. *)

val usage_time : t -> float
(** Span of the items placed in the bin. *)

val usage_intervals : t -> Interval.t list

val opening_time : t -> float
(** Earliest arrival among placed items. @raise Invalid_argument if empty. *)

val closing_time : t -> float
(** Latest departure among placed items. @raise Invalid_argument if empty. *)

val active_at : t -> float -> bool
(** Whether at least one placed item is active at a time (bin open). *)

val pp : Format.formatter -> t -> unit
