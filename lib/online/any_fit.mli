(** The Any Fit family of non-clairvoyant online packing algorithms.

    An Any Fit algorithm opens a new bin only when no currently open bin
    can accommodate the incoming item; the family members differ in which
    fitting bin they pick (paper Section 1 and the prior work it builds
    on: Li et al. 2014/2016, Kamali & Lopez-Ortiz 2015, Tang et al. 2016).
    These are the baselines the clairvoyant strategies are measured
    against:

    - First Fit: earliest-opened fitting bin; competitive ratio in
      [mu + 1, mu + 4] for Non-Clairvoyant MinUsageTime DBP.
    - Best Fit: highest-level fitting bin; unbounded competitive ratio.
    - Worst Fit: lowest-level fitting bin.
    - Next Fit (not Any Fit): keeps a single current bin, opens a new one
      when the current bin cannot take the item; 2 mu + 1 competitive. *)

open Dbp_core

val fits : Engine.bin_view -> Item.t -> bool
(** Capacity test at the arrival instant, with the shared tolerance. *)

(** The classic fits ask the engine's {!Engine.index} fit queries, so
    they run in O(log n) on the flat and stream engines.  The Best/Worst
    Fit preferences are exact level comparisons (no epsilon): an
    epsilon-fuzzy preference is not a total order, so it could not be
    answered by the level-keyed trees of {!Fit_index}, and the fuzz only
    mattered on levels closer than 1e-12 — indistinguishable in any
    reported metric. *)

val first_fit : Engine.t
val best_fit : Engine.t
val worst_fit : Engine.t
val next_fit : Engine.t

val random_fit : seed:int -> Engine.t
(** An Any Fit member that picks uniformly among the fitting open bins
    (deterministic given the seed), found by folding over the index.  Still subject to every Any Fit lower
    bound: randomising the *choice* does not help when the trap is that
    some open bin fits at all. *)

val biased_open : p:float -> seed:int -> Engine.t
(** First Fit that opens a fresh bin with probability [p] even when an
    open bin fits.  NOT an Any Fit algorithm — this is the randomisation
    that matters against the Theorem 3 gadget: the deterministic lower
    bound (1+sqrt 5)/2 does not apply to randomised algorithms, and
    around p = 1/4 this algorithm's expected worst case on the gadget is
    ~1.53 < phi (experiment R1).
    @raise Invalid_argument unless [0 <= p <= 1]. *)
