(** The online packing engine.

    Events of an instance are delivered in time order (departures before
    arrivals at equal times, see {!Dbp_core.Event}); on each arrival the
    algorithm under test must irrevocably place the item into one of the
    currently open bins or open a new one.  A bin is *open* from the moment
    it receives its first item until all its items have departed, after
    which it is closed for good and never receives again (paper
    Section 5).

    The engine owns the bins and validates every decision: placing into
    a closed bin, an unknown bin, or over capacity raises
    {!Invalid_decision} — an algorithm bug, never a property of the
    input.  An algorithm sees the bins through one query interface,
    {!index}, whichever engine runs it: each algorithm has exactly one
    decision rule.

    Two interchangeable engines implement this contract:

    - {!run_indexed} (the default {!run}): the flat-memory engine — all
      hot per-event state in parallel unboxed arrays (DESIGN.md
      section 13): arrivals read in order from the item array and
      departures from a {!Heap.Flat} of the active items only
      ({!Dbp_core.Event.Flat}), fit queries through {!Fit_index}
      (O(log n)), per-open-bin state in recycled arena rows,
      equal-timestamp departures drained in a batch before the fit
      index is touched again.  An n-event run costs O(n (log n + a))
      where a is the concurrent active count of the touched bin; boxed
      {!Bin_state} values are built only for the final packing.
    - {!run_reference}: the original list-walking engine, frozen as the
      differential-testing oracle; it hands each arrival an
      {!index_of_views} over its open-bin list.
      Theta(n * bins-ever-opened).

    Both must produce bit-identical packings — and byte-identical
    observer streams — for every deterministic algorithm, enforced by
    the qcheck differential and trace-identity suites. *)

open Dbp_core

type bin_view = {
  index : int;  (** opening order, 0-based *)
  opened_at : float;
  level : float;  (** total size of active items at the current instant *)
  latest_departure : float;
      (** The latest departure among every item placed in the bin so
          far, departed or not: a running [Float.max] each engine keeps
          on place. *)
}

type decision = Place of int  (** bin index *) | Open_new

type index = {
  fold : 'a. ('a -> bin_view -> 'a) -> 'a -> 'a;
      (** Fold over the open bins in index (opening) order, one view
          each: O(open bins). *)
  view : int -> bin_view option;
      (** View of one bin; [None] if closed or never opened. *)
  first_fit : Item.t -> decision;
      (** Lowest-index open bin the item fits in. *)
  best_fit : Item.t -> decision;
      (** Highest-level fitting bin, ties to the lowest index. *)
  worst_fit : Item.t -> decision;
      (** Lowest-level open bin if the item fits there. *)
}
(** The open bins as an algorithm sees them.  All fit queries use the
    shared admission predicate of {!Fit_index.fits_level}.  The flat
    engine and [dbp serve]'s stream engine answer [view] in O(1) and the
    fit queries in O(log n) through {!Fit_index}; {!index_of_views}
    answers them by scanning a list. *)

type stepper = {
  decide : now:float -> index:index -> Item.t -> decision;
  notify : item:Item.t -> index:int -> unit;
      (** Called after every successful placement with the final bin index
          (freshly opened or existing), letting stateful algorithms track
          bin ownership, e.g. which category a bin belongs to. *)
  departed : Item.t -> unit;
      (** Called on every departure event (after the bin bookkeeping).
          Lets learning algorithms observe completed jobs — e.g. the
          online-trained duration predictor.  Default: ignore. *)
}

val default_departed : Item.t -> unit
(** The no-op departure hook, for steppers built by hand. *)

type t = { name : string; make : unit -> stepper }
(** An online algorithm: a name for reports and a factory producing a
    fresh, independent stepper per run. *)

val index_of_views : bin_view list -> index
(** The index over a list of open-bin views in index order: [fold] walks
    the list, [view] binary-searches an array built once per call, and
    the fit queries scan.  What {!run_reference} and the engines that
    keep their bins in lists ([Dbp_billing.Billed_engine],
    [Dbp_faults.Resilient]) hand to [decide]. *)

exception Invalid_decision of string
(** Legacy fatal-path exception.  The engines now classify every fatal
    condition as a structured {!error}; [run]/[run_reference]/
    [run_indexed] keep raising [Invalid_decision] with byte-identical
    messages (the compatibility shim the differential suite and older
    callers rely on), while the [_result] variants below return the
    error as data. *)

type error =
  | Overflow of { algo : string; item : Item.t; bin : int; time : float }
      (** The algorithm placed an item that does not fit at the arrival
          instant. *)
  | Unknown_bin of { algo : string; bin : int; time : float }
      (** [Place idx] with an index that was never opened. *)
  | Closed_bin of { algo : string; bin : int; time : float }
      (** [Place idx] into a bin whose items have all departed. *)
  | Unplaced_departure of { algo : string; item_id : int }
      (** A departure event for an item no bin holds — corrupt event
          stream, not an algorithm decision. *)
        (** Structured classification of every way an engine run can go
            fatal.  All four are algorithm (or stream) bugs, never a
            property of a valid instance; the fault-tolerant wrapper in
            [Dbp_faults.Resilient] reuses this type to report them
            without unwinding the whole run. *)

val error_to_string : error -> string
(** Renders exactly the historical [Invalid_decision] message for the
    error. *)

val run_result :
  ?observer:Observer.t -> t -> Instance.t -> (Packing.t, error) result
(** {!run} with the fatal path as data instead of an exception. *)

val run_indexed_result :
  ?observer:Observer.t -> t -> Instance.t -> (Packing.t, error) result

val run_reference_result :
  ?observer:Observer.t -> t -> Instance.t -> (Packing.t, error) result

val run : ?observer:Observer.t -> t -> Instance.t -> Packing.t
(** Feed the instance's event stream through a fresh stepper.  This is
    {!run_indexed}.

    [observer] receives the decision stream as it happens (see
    {!Dbp_core.Observer} for the callback order).  Observation never
    influences the run: with or without one, decisions are identical,
    and both engines emit byte-identical event sequences.
    @raise Invalid_decision on an illegal placement. *)

val run_indexed : ?observer:Observer.t -> t -> Instance.t -> Packing.t
(** The indexed engine (see the module preamble). *)

val run_reference : ?observer:Observer.t -> t -> Instance.t -> Packing.t
(** The frozen list engine: the differential-testing oracle. *)

val run_usage : ?observer:Observer.t -> t -> Instance.t -> float
(** The flat engine's usage fast path: runs the same event loop as
    {!run_indexed} (identical decisions, errors and observer stream)
    but skips materialising the packing, folding each bin's
    [close -. open] span directly — bit-identical to
    [Packing.total_usage_time (run_indexed t inst)] (a bin is open over
    a single interval, so its profile support is exactly that span; the
    equality is pinned by a qcheck property).  This is what the 10^7
    bench rows run: O(bins) floats of output state instead of a
    packing.  Note it also skips {!Packing.of_bins}'s end-of-run
    revalidation — the engine's per-placement checks still run.
    @raise Invalid_decision on an illegal placement. *)

val run_usage_result :
  ?observer:Observer.t -> t -> Instance.t -> (float, error) result
(** {!run_usage} with the fatal path as data. *)

val usage_time : t -> Instance.t -> float
(** [total_usage_time (run t inst)], computed via {!run_usage}. *)
