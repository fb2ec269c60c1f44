(** The serve session: the daemon's entire decision logic, IO-free.

    A session consumes raw input lines and yields {!outcome}s; the
    daemon around it only moves bytes (sockets, files, signals).  That
    split is what makes the four robustness contracts unit-testable —
    the crash-resume property, the ladder, the skip counting all run
    in-process against this module.

    {2 The journal-replay resume model}

    Decision lines map 1:1 to well-formed arrivals, in input order.  So
    the output file {e is} the authoritative journal: to resume after a
    crash, re-feed the {e same input from the start} with the journal
    attached.  For each well-formed arrival the session pulls the next
    journal entry and {e applies} it instead of re-deciding:

    - [Placed] entries are driven through the engine (which must agree
      on the bin — any disagreement is {!Journal_divergence});
    - [Rejected] entries are re-applied as recorded, {e without}
      consulting the admission ladder — rejects depended on runtime
      queue depth, which replay must not need to reproduce.

    Replayed entries emit nothing (their lines are already durable).
    When the journal runs dry the session switches to live processing,
    and the decision stream continues byte-exactly where the crash cut
    it — for {e any} kill point, because a torn final line is truncated
    away by the daemon and its arrival simply replays as the first live
    one.  A {!checkpoint} (from a {!Snapshot.t}) additionally verifies
    the engine's state digest the moment the replay cursor passes it,
    turning "wrong inputs on resume" from silent divergence into a
    structured {!Checkpoint_divergence}.

    Live processing rejects (in this order) arrivals older than the
    engine clock ([out_of_order]), ids still active ([duplicate]), and
    anything at the ladder's top rung ([overload]); everything else goes
    to the algorithm.  Bit-fidelity of resume assumes the depth signal
    is reproduced — trivially true for file/stdin input, where depth is
    always 0. *)

module E := Dbp_online.Engine

type config = {
  algo_name : string;  (** portfolio key, recorded in snapshots *)
  algo : E.t;
  watermarks : Admission.watermarks;
  snapshot_every : int;  (** decision lines between snapshots; 0 = never *)
  coarsen_factor : int;  (** cadence multiplier at the Coarsening rung *)
}

val config :
  ?watermarks:Admission.watermarks ->
  ?snapshot_every:int ->
  ?coarsen_factor:int ->
  name:string ->
  E.t ->
  config
(** Defaults: {!Admission.default}, snapshots every 1000 lines,
    coarsen factor 8.  @raise Invalid_argument on bad watermarks or
    non-positive cadence/factor. *)

type checkpoint = { cursor : int; digest : string }

val checkpoint_of_snapshot : Snapshot.t -> checkpoint

type fatal =
  | Engine_error of E.error
  | Journal_divergence of { seq : int; expected : string; got : string }
      (** Replay disagreed with the journal: wrong input file, wrong
          algorithm, or broken determinism. *)
  | Journal_corrupt of { seq : int; cause : string }
      (** A journal line failed to parse (mid-file corruption; a torn
          {e last} line should have been truncated by the daemon). *)
  | Checkpoint_divergence of {
      cursor : int;
      expected_digest : string;
      actual_digest : string option;
          (** [None]: the journal ran out before [cursor] — snapshot
              and journal are from different runs. *)
    }

val fatal_to_string : fatal -> string

type outcome =
  | Emit of string  (** append this decision line to the output *)
  | Replayed  (** journal entry consumed; already durable, emit nothing *)
  | Skipped of string  (** malformed line skipped + counted; the reason *)
  | Fatal of fatal  (** unrecoverable; stop the stream *)

type t

val create :
  ?metrics:Dbp_obs.Metrics.t ->
  ?metric_labels:(string * string) list ->
  ?observer:Dbp_core.Observer.t ->
  ?span_clock:Dbp_obs.Clock.t ->
  ?journal:(unit -> (Decision.t, string) result option) ->
  ?checkpoint:checkpoint ->
  config ->
  t
(** [journal] pulls parsed decision lines lazily (so resume memory stays
    O(open jobs), not O(journal)); [None] from it ends replay mode.
    [metric_labels] (e.g. [[("shard","2")]]) are prepended to every
    metric this session registers, so sharded sessions sharing one
    registry stay distinguishable on [/metrics].  [span_clock] is the
    clock the session stamps span phases with (see {!feed}); it is
    {e injected} because this module is an R12 decision path and must
    never reach a wall-clock source itself. *)

val feed : t -> ?span:Dbp_obs.Span.ticket -> depth:int -> string -> outcome
(** Process one input line under the given queue depth (drives the
    ladder; pass 0 when there is no queue).  The line is parsed with
    {!Arrival.parse_into} into a scratch the session owns.  With an
    armed [span]
    ticket (and a [span_clock] at {!create}), stamps the [Parse],
    [Admission] and [Engine] phases; the default {!Dbp_obs.Span.null}
    costs one match per stamp site.  Spans never change outcomes,
    counters or emitted bytes. *)

val feed_item :
  t -> ?span:Dbp_obs.Span.ticket -> depth:int -> Dbp_core.Item.t -> outcome
(** {!feed} for a line already parsed elsewhere — the sharded daemon
    parses once on the router thread ([Arrival.parse_into]) and posts
    the item, not the line.  [feed line] is exactly [feed_item] of
    the item [Arrival.parse_into] reads from a well-formed line.  Stamps
    [Admission] and [Engine] ([Parse] belongs to whoever parsed). *)

val feed_skip : t -> ?span:Dbp_obs.Span.ticket -> depth:int -> string -> outcome
(** {!feed} for a line already known to be malformed: counts the line
    and the skip against {e this} session so per-shard skip counters add
    up to the unsharded run's.  Stamps [Admission] only. *)

val finish : t -> (unit, fatal) result
(** End of input: verifies any unconsumed checkpoint/journal suffix
    (either one means resume was given mismatched files). *)

val snapshot_due : t -> bool
(** True when at least the effective cadence (coarsened at rung >=
    Coarsening) of new decision lines is durable since the last
    snapshot.  Never during replay. *)

val take_snapshot : t -> Snapshot.t
(** Cut a snapshot at the current cursor ({e after} the daemon flushed
    the output through it) and reset the cadence clock. *)

(** {2 Introspection} (tests, metrics dumps, bench) *)

val seq : t -> int
val placed : t -> int
val rejected : t -> int
val skipped : t -> int
val replaying : t -> bool
val rung : t -> Admission.rung

val transitions : t -> int * int * int
(** (into Shedding, into Coarsening, into Rejecting) counts. *)

val engine : t -> Stream_engine.t
