open Dbp_core
module E = Dbp_online.Engine
module M = Dbp_obs.Metrics
module Sp = Dbp_obs.Span

type config = {
  algo_name : string;
  algo : E.t;
  watermarks : Admission.watermarks;
  snapshot_every : int;
  coarsen_factor : int;
}

let config ?(watermarks = Admission.default) ?(snapshot_every = 1000)
    ?(coarsen_factor = 8) ~name algo =
  Admission.validate watermarks;
  if snapshot_every < 0 then
    invalid_arg "Session.config: snapshot_every must be >= 0";
  if coarsen_factor < 1 then
    invalid_arg "Session.config: coarsen_factor must be >= 1";
  { algo_name = name; algo; watermarks; snapshot_every; coarsen_factor }

type checkpoint = { cursor : int; digest : string }

let checkpoint_of_snapshot (s : Snapshot.t) =
  { cursor = s.Snapshot.cursor; digest = s.Snapshot.engine_digest }

type fatal =
  | Engine_error of E.error
  | Journal_divergence of { seq : int; expected : string; got : string }
  | Journal_corrupt of { seq : int; cause : string }
  | Checkpoint_divergence of {
      cursor : int;
      expected_digest : string;
      actual_digest : string option;
    }

let fatal_to_string = function
  | Engine_error e -> E.error_to_string e
  | Journal_divergence { seq; expected; got } ->
      Printf.sprintf
        "resume replay diverged from the journal at seq %d: journal says %s, \
         replay produced %s (wrong input file or algorithm?)"
        seq expected got
  | Journal_corrupt { seq; cause } ->
      Printf.sprintf "journal line %d unreadable: %s" seq cause
  | Checkpoint_divergence { cursor; expected_digest; actual_digest } -> (
      match actual_digest with
      | Some d ->
          Printf.sprintf
            "replayed state digest %s disagrees with snapshot %s at cursor %d \
             (different input, algorithm or serve version?)"
            d expected_digest cursor
      | None ->
          Printf.sprintf
            "journal ended before the snapshot cursor %d (expected digest \
             %s): snapshot and journal are from different runs"
            cursor expected_digest)

type outcome =
  | Emit of string
  | Replayed
  | Skipped of string
  | Fatal of fatal

(* Pre-registered metric handles; None when the session runs unmetered
   (the soak path), so the hot loop pays one match, not a registry
   lookup. *)
type meters = {
  m_lines : M.counter;
  m_skipped : M.counter;
  m_placed : M.counter;
  m_rej_overload : M.counter;
  m_rej_order : M.counter;
  m_rej_dup : M.counter;
  m_trans : M.counter array;  (* indexed by Admission.rung_index *)
  m_snapshots : M.counter;
  g_depth : M.gauge;
  g_rung : M.gauge;
  g_open_jobs : M.gauge;
  g_open_bins : M.gauge;
}

let meters_of ?(labels = []) registry =
  let c name help =
    match labels with
    | [] -> M.counter registry ~help name
    | _ -> M.counter registry ~help ~labels name
  in
  let g name help =
    match labels with
    | [] -> M.gauge registry ~help name
    | _ -> M.gauge registry ~help ~labels name
  in
  let rej reason =
    M.counter registry ~help:"Arrivals turned away, by reason."
      ~labels:(labels @ [ ("reason", reason) ])
      "dbp_serve_rejected_total"
  in
  let trans rung =
    M.counter registry
      ~help:"Degradation-ladder rung entries, by rung reached."
      ~labels:(labels @ [ ("rung", rung) ])
      "dbp_serve_rung_transitions_total"
  in
  {
    m_lines = c "dbp_serve_lines_total" "Input lines consumed.";
    m_skipped = c "dbp_serve_skipped_lines_total" "Malformed lines skipped.";
    m_placed = c "dbp_serve_placed_total" "Arrivals placed into bins.";
    m_rej_overload = rej "overload";
    m_rej_order = rej "out_of_order";
    m_rej_dup = rej "duplicate";
    m_trans =
      Array.of_list
        (List.map trans [ "normal"; "shedding"; "coarsening"; "rejecting" ]);
    m_snapshots = c "dbp_serve_snapshots_total" "Snapshots cut.";
    g_depth = g "dbp_serve_queue_depth" "Arrivals buffered behind the current one.";
    g_rung = g "dbp_serve_rung" "Current ladder rung (0..3).";
    g_open_jobs = g "dbp_serve_open_jobs" "Jobs currently placed.";
    g_open_bins = g "dbp_serve_open_bins" "Bins currently open.";
  }

type t = {
  cfg : config;
  engine : Stream_engine.t;
  base_observer : Observer.t option;
  meters : meters option;
  span_clock : Dbp_obs.Clock.t option;
      (* injected, never Clock.monotonic from here: this module is an
         R12 decision path and must not reach a wall-clock source *)
  render_buf : Buffer.t;  (* reused for every emitted decision line *)
  scratch : Arrival.scratch;  (* [feed]'s parse destination *)
  mutable journal : (unit -> (Decision.t, string) result option) option;
  mutable checkpoint : checkpoint option;
  mutable seq : int;
  mutable placed : int;
  mutable rejected : int;
  mutable skipped : int;
  mutable expected_time : float;  (* last admitted arrival instant *)
  mutable rung : Admission.rung;
  mutable shed_t : int;
  mutable coarsen_t : int;
  mutable reject_t : int;
  mutable last_snapshot_seq : int;
}

let create ?metrics ?metric_labels ?observer ?span_clock ?journal ?checkpoint
    cfg =
  {
    cfg;
    engine = Stream_engine.create ?observer cfg.algo;
    base_observer = observer;
    meters = Option.map (meters_of ?labels:metric_labels) metrics;
    span_clock;
    render_buf = Buffer.create 96;
    scratch = Arrival.scratch ();
    journal;
    checkpoint;
    seq = 0;
    placed = 0;
    rejected = 0;
    skipped = 0;
    expected_time = Float.neg_infinity;
    rung = Admission.Normal;
    shed_t = 0;
    coarsen_t = 0;
    reject_t = 0;
    last_snapshot_seq = 0;
  }

let metered t f = match t.meters with Some m -> f m | None -> ()

(* Stamp a span phase iff a clock was injected and the ticket is armed;
   one match + one length test on the unsampled hot path. *)
let span_mark t span phase =
  match t.span_clock with Some c -> Sp.mark c span phase | None -> ()

let update_rung t ~depth =
  let rung = Admission.rung_for t.cfg.watermarks ~depth in
  metered t (fun m ->
      M.set m.g_depth (float_of_int depth);
      M.set m.g_rung (float_of_int (Admission.rung_index rung)));
  if Admission.rung_index rung <> Admission.rung_index t.rung then begin
    (match rung with
    | Admission.Shedding -> t.shed_t <- t.shed_t + 1
    | Admission.Coarsening -> t.coarsen_t <- t.coarsen_t + 1
    | Admission.Rejecting -> t.reject_t <- t.reject_t + 1
    | Admission.Normal -> ());
    metered t (fun m -> M.inc m.m_trans.(Admission.rung_index rung));
    (* Shedding detaches tracing — the one per-event cost that serves no
       placement.  Recovery to Normal reattaches it. *)
    Stream_engine.set_observer t.engine
      (if Admission.rung_index rung >= 1 then None else t.base_observer);
    t.rung <- rung
  end

(* Verify a pending checkpoint the moment the cursor is the current seq. *)
let check_now t =
  match t.checkpoint with
  | Some { cursor; digest } when cursor = t.seq ->
      let actual = Stream_engine.digest t.engine in
      if String.equal actual digest then begin
        t.checkpoint <- None;
        None
      end
      else
        Some
          (Checkpoint_divergence
             {
               cursor;
               expected_digest = digest;
               actual_digest = Some actual;
             })
  | _ -> None

let emit_gauges t =
  metered t (fun m ->
      M.set m.g_open_jobs (float_of_int (Stream_engine.open_jobs t.engine));
      M.set m.g_open_bins (float_of_int (Stream_engine.open_bins t.engine)))

(* Render through the session's reusable buffer: same bytes as
   [Decision.render] (pinned by a differential test on [render_into])
   without the Printf intermediates on the per-decision hot path. *)
let emit t decision =
  Buffer.clear t.render_buf;
  Decision.render_into t.render_buf decision;
  Emit (Buffer.contents t.render_buf)

let reject t item reason =
  let seq = t.seq in
  t.seq <- seq + 1;
  t.rejected <- t.rejected + 1;
  metered t (fun m ->
      M.inc
        (match reason with
        | Decision.Overload -> m.m_rej_overload
        | Decision.Out_of_order -> m.m_rej_order
        | Decision.Duplicate -> m.m_rej_dup));
  emit t
    (Decision.Rejected
       { seq; job = Item.id item; reason; time = Item.arrival item })

let live t item =
  let now = Item.arrival item in
  if now < t.expected_time then reject t item Decision.Out_of_order
  else if Stream_engine.is_active t.engine (Item.id item) then
    reject t item Decision.Duplicate
  else if t.rung = Admission.Rejecting then reject t item Decision.Overload
  else
    match Stream_engine.arrive t.engine item with
    | Error e -> Fatal (Engine_error e)
    | Ok { Stream_engine.bin; opened } ->
        let seq = t.seq in
        t.seq <- seq + 1;
        t.placed <- t.placed + 1;
        t.expected_time <- now;
        metered t (fun m -> M.inc m.m_placed);
        emit_gauges t;
        emit t
          (Decision.Placed { seq; job = Item.id item; bin; opened; time = now })

(* Apply one journal entry to this arrival instead of re-deciding. *)
let replay t pull item =
  match pull () with
  | None ->
      (* Journal drained: from here on the stream is live.  A pending
         checkpoint past this point can never be satisfied. *)
      t.journal <- None;
      t.last_snapshot_seq <- t.seq;
      (match t.checkpoint with
      | Some { cursor; digest } when cursor > t.seq ->
          Fatal
            (Checkpoint_divergence
               { cursor; expected_digest = digest; actual_digest = None })
      | _ -> live t item)
  | Some (Error cause) -> Fatal (Journal_corrupt { seq = t.seq; cause })
  | Some (Ok entry) -> (
      let entry_seq = Decision.seq entry in
      if entry_seq <> t.seq then
        Fatal
          (Journal_divergence
             {
               seq = t.seq;
               expected = Printf.sprintf "seq %d" t.seq;
               got = Decision.render entry;
             })
      else
        match entry with
        | Decision.Rejected { job; _ } ->
            if job <> Item.id item then
              Fatal
                (Journal_divergence
                   {
                     seq = t.seq;
                     expected = Decision.render entry;
                     got = Printf.sprintf "arrival of job %d" (Item.id item);
                   })
            else begin
              t.seq <- t.seq + 1;
              t.rejected <- t.rejected + 1;
              Replayed
            end
        | Decision.Placed { job; bin; _ } -> (
            if job <> Item.id item then
              Fatal
                (Journal_divergence
                   {
                     seq = t.seq;
                     expected = Decision.render entry;
                     got = Printf.sprintf "arrival of job %d" (Item.id item);
                   })
            else
              match Stream_engine.arrive t.engine item with
              | Error e -> Fatal (Engine_error e)
              | Ok { Stream_engine.bin = got_bin; opened = _ } ->
                  if got_bin <> bin then
                    Fatal
                      (Journal_divergence
                         {
                           seq = t.seq;
                           expected = Decision.render entry;
                           got = Printf.sprintf "placement into bin %d" got_bin;
                         })
                  else begin
                    t.seq <- t.seq + 1;
                    t.placed <- t.placed + 1;
                    t.expected_time <- Item.arrival item;
                    Replayed
                  end))

(* One input line was consumed: count it, drive the ladder, and settle
   any checkpoint whose cursor we just reached. *)
let pre t ~depth =
  metered t (fun m -> M.inc m.m_lines);
  update_rung t ~depth;
  check_now t

(* The [~span] parameters below are plain (not optional) on purpose:
   passing a value to an optional argument boxes it in [Some] — two
   minor words on every call — which the span bench's zero-alloc gate
   on the disabled path would catch.  The public [feed*] wrappers keep
   the [?span] ergonomics; hot loops that already hold a ticket (or
   {!Sp.null}) go through these without allocating. *)

let skip_line t ~span ~depth reason =
  match pre t ~depth with
  | Some fatal -> Fatal fatal
  | None ->
      span_mark t span Sp.Admission;
      t.skipped <- t.skipped + 1;
      metered t (fun m -> M.inc m.m_skipped);
      Skipped reason

let item_line t ~span ~depth item =
  match pre t ~depth with
  | Some fatal -> Fatal fatal
  | None ->
      span_mark t span Sp.Admission;
      let outcome =
        match t.journal with
        | Some pull ->
            let outcome = replay t pull item in
            (* Replay never snapshots; keep the cadence clock pinned
               to the replay frontier. *)
            if Option.is_some t.journal then t.last_snapshot_seq <- t.seq;
            outcome
        | None -> live t item
      in
      span_mark t span Sp.Engine;
      outcome

let feed_skip t ?(span = Sp.null) ~depth reason = skip_line t ~span ~depth reason
let feed_item t ?(span = Sp.null) ~depth item = item_line t ~span ~depth item

let feed t ?(span = Sp.null) ~depth line =
  (* Parsing touches only the session's own scratch, so hoisting it
     above [pre] (which [item_line] and [skip_line] run) is
     unobservable: same outcomes, same counters. *)
  match Arrival.parse_into t.scratch line with
  | Error reason ->
      span_mark t span Sp.Parse;
      skip_line t ~span ~depth reason
  | Ok () ->
      span_mark t span Sp.Parse;
      item_line t ~span ~depth (Arrival.item t.scratch)

let finish t =
  match check_now t with
  | Some fatal -> Error fatal
  | None -> (
      match t.checkpoint with
      | Some { cursor; digest } ->
          Error
            (Checkpoint_divergence
               { cursor; expected_digest = digest; actual_digest = None })
      | None -> (
          match t.journal with
          | Some pull -> (
              match pull () with
              | Some entry ->
                  Error
                    (Journal_divergence
                       {
                         seq = t.seq;
                         expected =
                           (match entry with
                           | Ok e -> Decision.render e
                           | Error cause -> "unreadable line: " ^ cause);
                         got = "end of input";
                       })
              | None ->
                  t.journal <- None;
                  Ok ())
          | None -> Ok ()))

let effective_cadence t =
  if Admission.rung_index t.rung >= Admission.rung_index Admission.Coarsening
  then t.cfg.snapshot_every * t.cfg.coarsen_factor
  else t.cfg.snapshot_every

let snapshot_due t =
  t.cfg.snapshot_every > 0
  && Option.is_none t.journal
  && t.seq - t.last_snapshot_seq >= effective_cadence t

let take_snapshot t =
  t.last_snapshot_seq <- t.seq;
  metered t (fun m -> M.inc m.m_snapshots);
  {
    Snapshot.algo = t.cfg.algo_name;
    cursor = t.seq;
    placed = t.placed;
    rejected = t.rejected;
    skipped = t.skipped;
    bins_ever = Stream_engine.bins_ever t.engine;
    shed_transitions = t.shed_t;
    coarsen_transitions = t.coarsen_t;
    reject_transitions = t.reject_t;
    engine_digest = Stream_engine.digest t.engine;
  }

let seq t = t.seq
let placed t = t.placed
let rejected t = t.rejected
let skipped t = t.skipped
let replaying t = Option.is_some t.journal
let rung t = t.rung
let transitions t = (t.shed_t, t.coarsen_t, t.reject_t)
let engine t = t.engine
