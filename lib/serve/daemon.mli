(** The [dbp serve] process shell, and the one serve lifecycle both
    daemons run.

    Everything decision-shaped lives in {!Session}; a daemon moves lines
    between the input (stdin, a file, or a Unix-domain socket server),
    the durable journal, the snapshot files and the metrics sink.  Lint
    rule R9 confines Unix socket/file-descriptor/signal APIs to
    [lib/serve/]; within it, this module owns the process-facing
    plumbing, so every other library stays pure and testable.

    {!run} is the unsharded daemon; {!Shard.run} is the sharded one.
    Both hand their own drive loop to {!lifecycle}, which owns every
    piece they share:
    - opening each journal for the run ([host.open_journal]): snapshot
      checkpoint load and algorithm check, torn-tail truncation, the
      streaming replay reader, the "snapshot cursor > 0 but the journal
      is missing" check, and the truncate-or-append output channel
      (created when absent, so [--resume] before the first run starts
      fresh);
    - cutting snapshots ({!cut_snapshot});
    - the metrics sink: registry, health gauges, build info, span
      recorder, and the dump to a file, stdout or JSON;
    - the Unix-domain listener (stale-socket unlink, bind, cleanup),
      SIGUSR1 (dump between lines), SIGPIPE (ignored, so a write to a
      peer that hung up fails with EPIPE instead of killing the process)
      and, in socket mode, SIGINT/SIGTERM (stop the accept loop cleanly,
      final snapshot included); every previous disposition is restored
      on exit;
    - teardown of everything opened, on every exit path, and the
      translation of [Sys_error]/[Unix_error] into [Error].

    The two drive loops stay separate on purpose: their socket echo
    semantics differ observably (unsharded echoes block and never drop;
    sharded echoes are best-effort and non-blocking).

    Operational behaviour:
    - Decision lines are flushed before any snapshot is cut, preserving
      the invariant snapshot cursor <= durable journal lines.
    - On [resume]: a torn final journal line (the [kill -9] landed
      mid-write) is truncated away, the journal is streamed back through
      the session's replay mode, and only then does live output append.
    - [crash_after] hard-kills the process ([SIGKILL] to self) after
      that many emitted lines — the crash-injection hook the check.sh
      smoke and the property tests use to make "kill at a random point"
      reproducible.
    - [throttle_us] sleeps between arrivals so an external killer can
      reliably land mid-stream. *)

type input =
  | Stdin
  | In_file of string
  | In_socket of string  (** Unix-domain socket path; daemon binds it *)

val version : string
(** The build version advertised by the [dbp_serve_build_info] gauge
    (and the CLI's [--version]). *)

type config = {
  input : input;
  output : string;  (** decision/journal path; ["-"] = stdout (no resume) *)
  snapshot_path : string option;
  resume : bool;
  metrics_out : string option;
      (** [Some "-"] = stdout; [.json] suffix switches format *)
  trace_out : string option;  (** JSONL decision trace (shed under load) *)
  span_sample : int;
      (** sample every N-th arrival into a latency span (0 = off);
          deterministic, seq-keyed — see {!Dbp_obs.Span} *)
  span_out : string option;  (** JSONL span log (needs [span_sample]) *)
  span_ring : int;  (** in-memory span ring capacity *)
  throttle_us : int;
  crash_after : int option;
  max_arrivals : int option;  (** stop after this many input lines *)
  log : string -> unit;  (** operator chatter; the CLI points it at stderr *)
}

val default_config : config
(** stdin -> stdout, no snapshots, no resume, silent log. *)

type stats = {
  lines : int;
  emitted : int;  (** decision lines written by {e this} process *)
  placed : int;
  rejected : int;
  skipped : int;
  replayed : int;  (** journal entries consumed during resume *)
  snapshots : int;
  resumed_from : string option;  (** description of the snapshot used *)
}

val run : config -> Session.config -> (stats, string) result
(** Run to end-of-input (or a fatal).  [Error] is a rendered
    {!Session.fatal}, snapshot-load failure, or configuration defect;
    the CLI prints it and exits non-zero. *)

(** {2 The serve lifecycle} *)

type journal = {
  out : out_channel;  (** live decision lines append here *)
  replay : (unit -> (Decision.t, string) result option) option;
      (** the surviving journal, one parsed entry per pull, for
          {!Session.create}'s [journal]; [None] when not resuming or
          nothing was written yet *)
  checkpoint : Session.checkpoint option;
  resumed_from : string option;  (** description of the snapshot used *)
  snapshot : string option;  (** where {!cut_snapshot} writes *)
  mutable snapshots : int;  (** snapshots cut this run *)
}

type source =
  | Channel of in_channel  (** stdin or the input file *)
  | Socket of { listener : Unix.file_descr; stop : bool ref }
      (** a bound, listening Unix-domain socket; [stop] turns true on
          SIGINT/SIGTERM *)

type host = {
  registry : Dbp_obs.Metrics.t option;
      (** present with [metrics_out] (or when asked for) *)
  health : Dbp_obs.Health.t option;
  spans : Dbp_obs.Span.t;
  poll : unit -> unit;
      (** dump the metrics if SIGUSR1 arrived since the last poll; call
          it between lines *)
  refresh : unit -> unit;
      (** bring every gauge up to date (the loop's own, health, spans)
          before the registry is rendered *)
  open_journal :
    ?shard:int -> ?snapshot:string -> string -> (journal, string) result;
      (** [open_journal ?shard ?snapshot path] opens [path] as a journal
          of this run (see the preamble); errors name the file, and the
          shard when given *)
  defer : (unit -> unit) -> unit;
      (** register a teardown action.  Actions run newest first once
          the run ends, however it ends, so one registered after a
          journal was opened (joining the domains that write it, say)
          runs before that journal closes. *)
}

type loop = {
  drive : source -> (stats, string) result;
      (** run the input to its end, then finish the sessions *)
  gauges : unit -> unit;  (** the loop's own gauges, set at dump time *)
}

val lifecycle :
  config ->
  Session.config ->
  ?registry:bool ->
  shards:int ->
  (host -> (loop, string) result) ->
  (stats, string) result
(** [lifecycle cfg scfg ~shards setup] builds the metrics sink, calls
    [setup] (which opens its journals and sessions through the host),
    drives the configured input through the returned loop, dumps the
    metrics after a clean finish, and tears everything down.
    [registry] forces a metrics registry without [metrics_out]. *)

val complete_lines : Buffer.t -> Bytes.t -> int -> string list
(** Socket framing: [complete_lines pending buf n] appends the [n]
    bytes just read into [buf] to [pending] and returns the complete
    lines, keeping the unterminated tail in [pending] for the next
    read. *)

val cut_snapshot : journal -> Session.t -> unit
(** Flush the journal, save the session's snapshot to its path, count
    it; a no-op for a journal without a snapshot path. *)
