(** The [dbp serve] input line format: one job arrival per line,

    {[ {"id":17,"size":0.25,"arrival":3,"departure":7.5,"tenant":"t1"} ]}

    One grammar, one parser: {!parse_into} scans a line in place into a
    reusable {!scratch}, with the [tenant] field captured as a slice so
    routing ({!shard_for}) allocates nothing either.  Every reader of
    arrival lines uses it — the unsharded session, the sharded router
    thread and [dbp analyze] — each with its own scratch.

    The grammar is that of a flat {!Json_lite.parse_object} object with
    [id]/[size]/[arrival]/[departure] required ([id] integral) and
    unknown fields ignored, validated by [Item.make]: sizes outside
    (0, 1], non-finite times and non-positive durations are rejected
    with the smart constructor's own message.  The test suite keeps that
    composition as a differential oracle (same Ok/Error verdict on
    arbitrary bytes, bit-equal items).

    The parser is the lenient half of the malformed-input contract, in
    the spirit of [Dbp_workload.Trace.of_string_lenient]: it is
    {e total} — any byte string yields [Ok] or [Error reason], never an
    exception — so a daemon can skip and count bad lines instead of
    dying mid-stream.

    {!render} is the exact inverse: floats print with enough digits to
    re-parse bit-identically ({!Json_lite.fmt_num}), which [dbp gen
    --jsonl] relies on to produce streams that replay exactly. *)

open Dbp_core

val render : ?tenant:string -> Item.t -> string
(** One line (no trailing newline); parsing it back yields an item
    equal to the input field-for-field.  With [?tenant], appends a
    [,"tenant":"..."] field (escaped). *)

(** {2 Parsing} *)

type scratch
(** Reusable parse destination: the parsed item plus the tenant slice of
    the last line fed to {!parse_into}.  One scratch per reader (session,
    router thread); not thread-safe. *)

val scratch : unit -> scratch

val parse_into : scratch -> string -> (unit, string) result
(** Parse one line into [scratch].  Never raises.  A [tenant] field of
    any type is accepted; only a string one is captured for routing.
    On [Error] the scratch contents are unspecified. *)

val item : scratch -> Item.t
(** The item of the last successful {!parse_into}. *)

val tenant : scratch -> string
(** The tenant of the last successful {!parse_into}:
    [Router.default_tenant] when the line had no [tenant] field (or a
    non-string one), else the decoded string value.  Allocates only
    when a tenant is present. *)

val shard_for : Router.t -> scratch -> int
(** Route the last parsed line.  Allocation-free on the hot path (no
    escapes in the tenant, no override table). *)
