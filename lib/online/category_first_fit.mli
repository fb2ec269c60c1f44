(** Generic category-based First Fit.

    Both of the paper's clairvoyant strategies (Sections 5.2 and 5.3), the
    combined strategy it leaves as future work, and the size-class Hybrid
    First Fit baseline share one skeleton: a function assigns each item a
    category computable at its arrival (from the known departure time,
    duration or size), and First Fit runs independently within each
    category — a bin only ever holds items of one category. *)

open Dbp_core

val make : name:string -> category:(Item.t -> string) -> Engine.t
(** [make ~name ~category] is the online algorithm that places each item
    with First Fit among the open bins already owning its category, and
    opens a category-tagged bin otherwise.  Each category's scan probes
    only the bins that category owns, through {!Engine.index}'s [view]. *)

val make_per_run :
  name:string -> (unit -> (Item.t -> string) * (Item.t -> unit)) -> Engine.t
(** [make_per_run ~name per_run] is {!make} for a category function
    that learns within a run: each run calls [per_run ()] once for a
    fresh [(category, departed)] pair, where [departed] is the
    stepper's departure hook (it may update what [category] answers
    from then on). *)
