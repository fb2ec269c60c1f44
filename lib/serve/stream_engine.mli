(** The incremental, bounded-memory online packing engine behind
    [dbp serve].

    The batch engines ([Dbp_online.Engine]) hold a whole instance and
    fold its event stream; a daemon cannot — it sees one arrival at a
    time and must run forever.  This engine keeps {e only} live state:

    - a hashtable of {b open} bins (closed bins are evicted the instant
      their last resident departs — index, levels, residents, all of it);
    - a min-heap of pending departures, one entry per {b active} job;
    - a doubly-linked open list in opening (index) order;
    - a {!Dbp_online.Fit_index} over the open bins' levels.

    {b Decisions} go through the algorithm's stepper, handed one
    [Engine.index] built with the engine: [view] is an O(1) probe of the
    bin table, [first_fit], [best_fit] and [worst_fit] are O(log n)
    fit-index queries, and [fold] walks the open list.  Only the
    algorithms that fold (random fit, departure alignment) build a view
    per open bin.

    {b Slots.}  Each open bin holds one leaf slot of the fit index,
    handed out in opening order; a slot-to-bin array maps query results
    back to bin indices.  When the slots run out the index is rebuilt
    over the open bins alone, repacked into slots 0..k-1 in open-list
    order: the capacity stays when at most half the slots were live and
    doubles otherwise.  Repacking keeps slot order equal to bin-index
    order, so the lowest-slot answer is the lowest-index bin — exactly
    the batch engine's first-fit and tie-breaks.  A rebuild costs O(k)
    and buys at least k openings: amortised O(1) per opened bin.

    Resident memory is therefore O(open jobs), independent of how many
    arrivals the process has absorbed: the fit index and slot array are
    sized by the bins open at the last rebuild, never by the bins ever
    opened.  The soak test in [bench serve] streams 10^6 arrivals under
    a hard major-heap ceiling, and the serve tests compare the engine's
    reachable words after 10^4 and 10^5 arrivals.

    Decisions are {b bit-identical} to [Engine.run] on the same arrival
    sequence: views carry the same index/opened_at/level/latest_departure
    the batch engine computes and the fit index sees the same levels
    (level arithmetic mirrored operation-for-operation), departures
    drain before arrivals at equal times with the same (time, id)
    tie-break, and observer callbacks fire in the engine's documented
    order.  The serve differential suites run every portfolio algorithm
    against [Engine.run], and against its view-list oracle twin under
    [Engine.run_reference] at a scale that forces many rebuilds.  A
    view's [latest_departure] is a running maximum kept per bin, so it
    survives the eviction of departed residents.

    Arrivals must be fed in nondecreasing time order ({!arrive} raises
    [Invalid_argument] otherwise — {!Session} rejects out-of-order input
    before it gets here), and active ids must be unique (the session
    rejects duplicates). *)

open Dbp_core
module E := Dbp_online.Engine

type t

type placement = { bin : int; opened : bool }

val create : ?observer:Observer.t -> E.t -> t
(** A fresh engine driving a fresh stepper of the algorithm. *)

val set_observer : t -> Observer.t option -> unit
(** Swap the observer mid-stream (the shedding rung detaches it).
    Observation never influences decisions. *)

val arrive : t -> Item.t -> (placement, E.error) result
(** Drain every departure due at or before the item's arrival instant,
    then put the arrival to the algorithm and apply its decision.
    Structured errors are the algorithm's bugs, exactly as in
    [Engine.run_result].
    @raise Invalid_argument if time runs backwards. *)

val drain_until : t -> float -> unit
(** Process departures due [<= t] without an arrival (final flush). *)

val is_active : t -> int -> bool
(** Is a job with this id currently placed? *)

val digest : t -> string
(** MD5 hex over the live state (counters, open bins in index order,
    levels by bits, resident ids) — the equality token snapshots carry,
    in the spirit of [Resilient.checkpoint].  Fit-index slots are not
    part of it. *)

(** {2 Counters} (monotone except the instantaneous two) *)

val bins_ever : t -> int
val placed : t -> int
val departed : t -> int
val open_bins : t -> int
val open_jobs : t -> int

val index_rebuilds : t -> int
(** Fit-index rebuilds so far (each one a repack of the open bins). *)

val algo_name : t -> string
