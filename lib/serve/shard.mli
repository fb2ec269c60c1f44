(** The sharded [dbp serve] daemon: shard-by-tenant scale-out over
    resident domains (DESIGN.md section 16).

    It runs inside {!Daemon.lifecycle}, like the unsharded daemon: the
    lifecycle opens every journal segment (snapshot checkpoint, torn
    tail, replay reader, append/create output), cuts the snapshots,
    owns the metrics sink, the listener socket and the signals, and
    tears everything down.  This module adds only what sharding needs:
    the router thread, the shard residents, the sequencer that merges
    their results, its own multi-client socket loop and the HTTP
    metrics listener.

    {2 Architecture}

    One router thread (the caller) reads input lines, parses each once
    with the zero-allocation path ([Arrival.parse_into]), routes it by
    tenant key ({!Router}), and posts the parsed item to one of [N]
    shard {e residents} — long-lived domains from the [Dbp_par.Pool]
    resident-mailbox mode, each owning a full unsharded stack: its own
    {!Session}, journal {e segment} ([output ^ ".shardK"]), snapshot
    file ([snapshot ^ ".shardK"]) and admission ladder fed by its own
    mailbox depth.  Shards share nothing; the only cross-domain traffic
    is the mailbox in and a result collector out.

    {2 Merge determinism}

    Every input line gets a global index at ingest; shards return one
    result per line; the main thread releases results strictly in that
    order into the {e merged} stream ([output]): each decision line with
    a [{"shard":K,] label spliced in.  The segments are the
    authoritative journals; the merged file is derived and rebuilt every
    run — on [--resume] each segment is opened through
    [Daemon.host.open_journal] (digest-verified against its snapshot,
    torn tail truncated) and replays through its shard's session, and
    replayed entries re-emit their merged lines, so the rebuilt merged
    file is byte-identical to an uninterrupted run's.

    Determinism contract: with the same input, routes and shard count,
    segment [K] is byte-identical to an unsharded run over the
    router-filtered input for shard [K] (the bench asserts this).
    Changing the shard count or routes between run and resume is caught
    as journal/checkpoint divergence, not silently absorbed.

    {2 Ingest and metrics}

    Socket mode accepts {e multiple} concurrent clients ([select]-driven,
    non-blocking); a full shard mailbox blocks the router thread, which
    stops reading — per-client read backpressure, surfaced to the ladder
    as mailbox depth.  Decision echoes to clients are best-effort
    non-blocking: a client that stops reading loses echoes, never wedges
    the daemon.  With [metrics_port] set, a loopback HTTP/1.0 listener
    serves [/metrics] (Prometheus exposition: per-shard session series
    plus [dbp_pool_*] mailbox gauges) and [/healthz]. *)

type config = {
  base : Daemon.config;
      (** input/output/resume/snapshot/throttle/crash/budget/log — same
          meanings as unsharded, except [output] must be a file (the
          segment paths derive from it) and [crash_after] counts merged
          lines.  [trace_out] is ignored (logged).  [span_sample]/
          [span_out]/[span_ring] enable the per-arrival span pipeline:
          tickets are armed at ingest (gidx-keyed sampling), stamped
          Parse/Route on the router thread, Mailbox/Admission/Engine/
          Journal on the shard domain, Merge at sequencer release, and
          committed in merge order on the main thread
          ([dbp_serve_phase_seconds{phase,shard}] on [/metrics]). *)
  shards : int;
  routes : (string * int) list;
      (** tenant → shard pins (from [Router.parse_overrides]); win over
          the hash *)
  metrics_port : int option;  (** loopback HTTP listener; [0] = pick *)
}

val segment_path : string -> int -> string
(** [segment_path output k] = [output ^ ".shard" ^ k] — shard [k]'s
    journal segment. *)

val run : config -> Session.config -> (Daemon.stats, string) result
(** Run to end-of-input (or fatal/signal).  Counter semantics in the
    returned stats: [emitted] counts {e live} merged lines, [replayed]
    journal entries re-applied on resume, [skipped]/[placed]/[rejected]
    sum over shards. *)
