(** Single-pass online-learning classify-by-departure-time First Fit.

    Unlike the two-phase train/deploy pipeline (experiment F1), this
    algorithm starts cold and learns *while packing*: every completed job
    updates the per-class duration predictor (via the engine's departure
    hook), and every arriving job is classified by its predicted
    departure.  Unseen classes fall back to a configurable duration.
    Placement is {!Dbp_online.Category_first_fit}'s, with one fresh
    predictor per run.

    This is the deployable version of the paper's clairvoyant setting:
    no oracle, no offline training pass — just history accumulating
    inside one run. *)

open Dbp_core

val make :
  ?key:(Item.t -> string) ->
  ?fallback:float ->
  rho:float ->
  unit ->
  Dbp_online.Engine.t
(** @param key the job-class key (default: size printed to 2 decimals, a
    template proxy for the built-in workloads).
    @param fallback assumed duration for unseen classes (default 1.).
    @raise Invalid_argument if [rho <= 0]. *)
