(** Fit indices over the open bins, maintained by the indexed engine.

    A pair of flat segment trees (min-level and max-level) over bin
    indices answer the three classic fit queries without allocating,
    with the exact same float predicate and tie-breaking as the list
    scans of {!Engine.index_of_views} (fitting test
    [level +. size <= capacity +. tolerance]; ties to the
    earliest-opened bin):

    - {!first_fit}: lowest-index open fitting bin — leftmost descent of
      the min tree, O(log n);
    - {!worst_fit}: lowest-level bin if it fits, ties to the lowest
      index — min-attaining descent, O(log n);
    - {!best_fit}: highest-level fitting bin, ties to the lowest index —
      pruned best-first search of the max tree; O(log n) on typical
      workloads, degrading towards O(open bins) only when non-fitting
      bins interleave with an increasing run of fitting levels.

    Both trees are stored as unboxed [floatarray]s (guaranteed flat
    doubles, no per-node boxing), so queries and updates touch raw
    memory only — part of the flat-engine memory layout described in
    DESIGN.md section 13.

    This module only tracks (index, level) pairs; the engine owns the
    bins themselves and calls {!open_bin} / {!set_level} / {!close_bin}
    as levels change.  Indices are append-only: recycling leaf slots
    would break First Fit's lowest-index descent, so a closed bin's leaf
    stays retired for the rest of the run (the engine recycles its *row*
    state instead). *)

type t

val create : unit -> t

val fits_level : float -> float -> bool
(** [fits_level level size] — the shared admission predicate,
    [level +. size <= Bin_state.capacity +. Bin_state.tolerance]. *)

val open_bin : t -> int -> unit
(** Register a fresh bin at level 0.  Indices must be registered in
    increasing order (the engine's opening order). *)

val set_level : t -> int -> float -> unit
(** Record the new level of an open bin. *)

val close_bin : t -> int -> unit
(** Drop a bin from the indices for good (bins never reopen). *)

val first_fit : t -> size:float -> int option
val best_fit : t -> size:float -> int option
val worst_fit : t -> size:float -> int option
