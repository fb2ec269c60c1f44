(* The sharded serve orchestrator (see the interface for the
   architecture), run inside Daemon.lifecycle.  R9-exempt like the rest
   of lib/serve/; everything decision-shaped stays in Session,
   everything routing-shaped in Router, and the only concurrency
   primitive is the resident mailbox from Dbp_par.Pool. *)

open Dbp_core
module M = Dbp_obs.Metrics
module Sp = Dbp_obs.Span
module Pool = Dbp_par.Pool

type config = {
  base : Daemon.config;
  shards : int;
  routes : (string * int) list;
  metrics_port : int option;
}

(* ---- messages --------------------------------------------------------- *)

(* Every input line gets a global index [gidx] and exactly one result,
   well-formed or not — the sequencer releases merged lines strictly in
   gidx order, so a gap would stall the stream.  Items cross domains as
   immutable records; the line string itself never does. *)

(* [span] is the arrival's latency-span ticket (Span.null when the
   arrival is unsampled): armed at ingest, stamped by the worker, handed
   back through the result so the sequencer commits it in merge order.
   Strict hand-off — the ticket is never visible to two domains at
   once. *)
type msg =
  | M_item of
      { gidx : int; client : int; depth : int; item : Item.t; span : Sp.ticket }
  | M_skip of
      { gidx : int; client : int; depth : int; reason : string;
        span : Sp.ticket }

type res = {
  r_gidx : int;
  r_client : int;
  r_merged : string option;  (* full merged line, shard label included *)
  r_live : bool;  (* decided by this run (false for replay re-emits) *)
  r_echo : string option;  (* decision line for the socket client *)
  r_fatal : string option;
  r_span : Sp.ticket;
}

(* ---- per-shard worker state (owned by the resident domain) ------------ *)

type worker = {
  w_idx : int;
  w_session : Session.t;
  w_clock : Dbp_obs.Clock.t;  (* span stamps on the resident domain *)
  w_journal : Daemon.journal;
  w_last_pull : (Decision.t, string) result option ref;
      (* journal entry most recently consumed by replay *)
  w_prefix : string;  (* "{\"shard\":K," *)
  w_buf : Buffer.t;
  mutable w_replayed : int;
  mutable w_failed : bool;
}

(* Merged line = shard label spliced into the decision object:
   {"shard":K, + <decision line minus its leading brace>. *)
let merged_line w line =
  Buffer.clear w.w_buf;
  Buffer.add_string w.w_buf w.w_prefix;
  Buffer.add_substring w.w_buf line 1 (String.length line - 1);
  Buffer.contents w.w_buf

(* Hand the sequencer this message's one result; a fatal one also
   fails the worker. *)
let push collector w ~gidx ~client ~span ?merged ?(live = false) ?echo ?fatal
    () =
  if Option.is_some fatal then w.w_failed <- true;
  Pool.Collector.push collector
    { r_gidx = gidx; r_client = client; r_merged = merged; r_live = live;
      r_echo = echo; r_fatal = fatal; r_span = span }

(* The resident handler: feed the shard's session, append to its
   segment, hand the sequencer one result per message.  After a fatal
   the worker keeps consuming (and acknowledging) messages so the poster
   never blocks on a full mailbox while the main loop is aborting. *)
let handle collector w msg =
  match msg with
  | (M_item { gidx; client; span; _ } | M_skip { gidx; client; span; _ })
    when w.w_failed ->
      push collector w ~gidx ~client ~span ()
  | M_skip { gidx; client; depth; reason; span } -> (
      Sp.mark w.w_clock span Sp.Mailbox;
      Sp.set_shard span w.w_idx;
      match Session.feed_skip w.w_session ~span ~depth reason with
      | Session.Skipped _ -> push collector w ~gidx ~client ~span ()
      | Session.Fatal f ->
          push collector w ~gidx ~client ~span
            ~fatal:(Session.fatal_to_string f) ()
      | Session.Emit _ | Session.Replayed ->
          (* feed_skip never emits or replays; treat drift as fatal. *)
          push collector w ~gidx ~client ~span
            ~fatal:"shard: feed_skip returned a decision outcome" ())
  | M_item { gidx; client; depth; item; span } -> (
      Sp.mark w.w_clock span Sp.Mailbox;
      Sp.set_shard span w.w_idx;
      match Session.feed_item w.w_session ~span ~depth item with
      | Session.Emit line ->
          let seg = w.w_journal.Daemon.out in
          output_string seg line;
          output_char seg '\n';
          Sp.mark w.w_clock span Sp.Journal;
          if Session.snapshot_due w.w_session then
            Daemon.cut_snapshot w.w_journal w.w_session;
          push collector w ~gidx ~client ~span ~merged:(merged_line w line)
            ~live:true ~echo:line ()
      | Session.Replayed ->
          w.w_replayed <- w.w_replayed + 1;
          (* Reconstruct the merged line from the journal entry replay
             just consumed, so a resumed run rebuilds the merged stream
             byte-identically to an uninterrupted one. *)
          let merged =
            match !(w.w_last_pull) with
            | Some (Ok entry) -> Some (merged_line w (Decision.render entry))
            | Some (Error _) | None -> None
          in
          push collector w ~gidx ~client ~span ?merged ()
      | Session.Fatal f ->
          push collector w ~gidx ~client ~span
            ~fatal:(Session.fatal_to_string f) ()
      | Session.Skipped _ ->
          (* feed_item takes a parsed item; it cannot skip. *)
          push collector w ~gidx ~client ~span
            ~fatal:"shard: feed_item skipped a parsed item" ())

(* ---- paths ------------------------------------------------------------ *)

let segment_path output i = output ^ ".shard" ^ string_of_int i

let shard_snapshot_path snapshot_path i =
  Option.map (fun p -> p ^ ".shard" ^ string_of_int i) snapshot_path

(* ---- the run ---------------------------------------------------------- *)

let run cfg scfg =
  let b = cfg.base in
  let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v in
  let* () =
    if cfg.shards < 1 then Error "serve: --shards must be >= 1" else Ok ()
  in
  let* () =
    if String.equal b.Daemon.output "-" then
      Error "serve: sharded mode needs --output FILE (journal segments \
             derive from it)"
    else Ok ()
  in
  let* router =
    match Router.create ~overrides:cfg.routes ~shards:cfg.shards () with
    | r -> Ok r
    | exception Invalid_argument msg -> Error ("serve: " ^ msg)
  in
  if Option.is_some b.Daemon.trace_out then
    b.Daemon.log "serve: --trace-out is ignored in sharded mode";
  Daemon.lifecycle b scfg
    ~registry:(Option.is_some cfg.metrics_port)
    ~shards:cfg.shards
  @@ fun host ->
  let registry = host.Daemon.registry and spans = host.Daemon.spans in
  let span_clock = if Sp.enabled spans then Some (Sp.clock spans) else None in
  (* Per-shard journals and sessions, all built on the main thread
     before any domain exists. *)
  let build_shard i =
    let* j =
      host.Daemon.open_journal ~shard:i
        ?snapshot:(shard_snapshot_path b.Daemon.snapshot_path i)
        (segment_path b.Daemon.output i)
    in
    let last_pull = ref None in
    let journal =
      Option.map
        (fun pull () ->
          let e = pull () in
          last_pull := e;
          e)
        j.Daemon.replay
    in
    let session =
      Session.create ?metrics:registry
        ~metric_labels:[ ("shard", string_of_int i) ]
        ?span_clock ?journal ?checkpoint:j.Daemon.checkpoint scfg
    in
    Ok
      {
        w_idx = i;
        w_session = session;
        w_clock = Sp.clock spans;
        w_journal = j;
        w_last_pull = last_pull;
        w_prefix = Printf.sprintf "{\"shard\":%d," i;
        w_buf = Buffer.create 96;
        w_replayed = 0;
        w_failed = false;
      }
  in
  let* workers =
    let rec go i acc =
      if i >= cfg.shards then Ok (Array.of_list (List.rev acc))
      else
        let* w = build_shard i in
        go (i + 1) (w :: acc)
    in
    go 0 []
  in
  let resumed_from =
    let parts =
      Array.to_list workers
      |> List.filter_map (fun w ->
             Option.map
               (Printf.sprintf "shard%d: %s" w.w_idx)
               w.w_journal.Daemon.resumed_from)
    in
    if parts = [] then None else Some (String.concat "; " parts)
  in
  (* The merged stream is derived, not authoritative: rebuild it from
     scratch every run (a resume replays every segment, so the rebuilt
     file is byte-identical to the uninterrupted run's). *)
  let merged_oc = open_out_bin b.Daemon.output in
  host.Daemon.defer (fun () -> close_out merged_oc);
  let http =
    Option.map (fun port -> Http_listener.create ~port ()) cfg.metrics_port
  in
  Option.iter
    (fun l ->
      host.Daemon.defer (fun () -> Http_listener.close l);
      b.Daemon.log
        (Printf.sprintf "serve: metrics on http://127.0.0.1:%d/metrics"
           (Http_listener.port l)))
    http;
  let collector = Pool.Collector.create () in
  let residents =
    Array.map (fun w -> Pool.Resident.spawn (handle collector w)) workers
  in
  (* Joined before any journal closes: the residents write the segments,
     and are idle only once closed. *)
  host.Daemon.defer (fun () ->
      Array.iter
        (fun r -> try Pool.Resident.close r with Pool.Resident_error _ -> ())
        residents);
  (* Per-shard mailbox gauges (the "pool" of a sharded daemon), set at
     scrape/dump time from the resident counters. *)
  let pool_gauges =
    match registry with
    | None -> []
    | Some m ->
        List.concat_map
          (fun i ->
            let r = residents.(i) in
            let g name help =
              M.gauge m ~labels:[ ("shard", string_of_int i) ] ~help name
            in
            [
              ( g "dbp_pool_mailbox_depth"
                  "Messages mailed to the shard resident, not yet taken.",
                fun () -> Pool.Resident.depth r );
              ( g "dbp_pool_posted"
                  "Messages mailed to the shard resident, lifetime.",
                fun () -> Pool.Resident.posted r );
              ( g "dbp_pool_processed"
                  "Messages the shard resident has processed, lifetime.",
                fun () -> Pool.Resident.processed r );
            ])
          (List.init cfg.shards Fun.id)
  in
  let update_pool_gauges () =
    List.iter (fun (g, read) -> M.set g (float_of_int (read ()))) pool_gauges
  in
  let respond (req : Http.request) =
    if not (String.equal req.Http.meth "GET") then
      Http.response ~status:405 "Method Not Allowed\n"
    else
      match req.Http.path with
      | "/healthz" ->
          Option.iter Dbp_obs.Health.tick host.Daemon.health;
          Http.response ~status:200
            (Printf.sprintf "ok shards=%d\n" cfg.shards)
      | "/metrics" -> (
          match registry with
          | Some m ->
              host.Daemon.refresh ();
              Http.metrics_response (M.to_prometheus m)
          | None -> Http.response ~status:404 "metrics registry disabled\n")
      | _ -> Http.response ~status:404 "Not Found\n"
  in
  (* ---- sequencer state, owned by the main thread -------------------- *)
  let pending : (int, res) Hashtbl.t = Hashtbl.create 256 in
  let next_out = ref 0 in
  let gidx = ref 0 in
  let lines = ref 0 in
  let emitted = ref 0 in
  (* every merged line written this run, replay re-emits included — the
     crash_after yardstick ([emitted] counts only live decisions) *)
  let merged_written = ref 0 in
  let fatal : string option ref = ref None in
  let echo_sink : (int -> string -> unit) ref = ref (fun _ _ -> ()) in
  let crash_now () =
    (* Crash injection at a merged-line boundary: drain the residents so
       the segment channels are quiescent, flush everything, then a
       genuine SIGKILL — the journals are left exactly as the kernel saw
       them. *)
    Array.iter Pool.Resident.sync residents;
    Array.iter (fun w -> flush w.w_journal.Daemon.out) workers;
    flush merged_oc;
    Unix.kill (Unix.getpid ()) Sys.sigkill
  in
  let release r =
    (match r.r_fatal with
    | Some m when Option.is_none !fatal -> fatal := Some m
    | _ -> ());
    (match r.r_merged with
    | Some line ->
        output_string merged_oc line;
        output_char merged_oc '\n';
        Sp.stamp spans r.r_span Sp.Merge;
        merged_written := !merged_written + 1;
        if r.r_live then emitted := !emitted + 1;
        (match b.Daemon.crash_after with
        | Some n when !merged_written >= n -> crash_now ()
        | _ -> ())
    | None -> ());
    Sp.commit spans r.r_span;
    match r.r_echo with Some line -> !echo_sink r.r_client line | None -> ()
  in
  let drain () =
    List.iter
      (fun r -> Hashtbl.replace pending r.r_gidx r)
      (Pool.Collector.drain collector);
    let rec go () =
      match Hashtbl.find_opt pending !next_out with
      | None -> ()
      | Some r ->
          Hashtbl.remove pending !next_out;
          incr next_out;
          release r;
          go ()
    in
    go ()
  in
  let housekeeping () =
    host.Daemon.poll ();
    Option.iter Dbp_obs.Health.tick host.Daemon.health;
    Option.iter (fun l -> Http_listener.service l ~respond) http;
    drain ()
  in
  (* Route one raw input line.  Malformed lines go to shard 0 — any
     fixed choice works, it just has to be deterministic so resume sees
     the same per-shard line streams. *)
  let scratch = Arrival.scratch () in
  let post_line ~client ~file_depth line =
    incr lines;
    let g = !gidx in
    incr gidx;
    (* Sampling is keyed on the ingest order (gidx), so whether a line
       is sampled is deterministic for a given interleave. *)
    let tk = Sp.issue spans in
    match Arrival.parse_into scratch line with
    | Ok () ->
        Sp.stamp spans tk Sp.Parse;
        let k = Arrival.shard_for router scratch in
        Sp.stamp spans tk Sp.Route;
        let depth =
          match file_depth with
          | Some d -> d
          | None -> Pool.Resident.depth residents.(k)
        in
        Sp.set_depth tk depth;
        Pool.Resident.post residents.(k)
          (M_item
             { gidx = g; client; depth; item = Arrival.item scratch;
               span = tk })
    | Error reason ->
        Sp.stamp spans tk Sp.Parse;
        let depth =
          match file_depth with
          | Some d -> d
          | None -> Pool.Resident.depth residents.(0)
        in
        Sp.set_depth tk depth;
        Pool.Resident.post residents.(0)
          (M_skip { gidx = g; client; depth; reason; span = tk })
  in
  let budget_left () =
    match b.Daemon.max_arrivals with Some n -> !lines < n | None -> true
  in
  let throttle () =
    if b.Daemon.throttle_us > 0 then
      Unix.sleepf (float_of_int b.Daemon.throttle_us /. 1e6)
  in
  (* ---- input drivers ------------------------------------------------ *)
  let drive_channel ic =
    let tick = ref 0 in
    let rec loop () =
      if Option.is_none !fatal && budget_left () then
        match input_line ic with
        | line ->
            post_line ~client:(-1) ~file_depth:(Some 0) line;
            throttle ();
            incr tick;
            (* Polled on every line (not just the housekeeping cadence)
               so a SIGUSR1 dump lands promptly even on short inputs. *)
            host.Daemon.poll ();
            if !tick land 255 = 0 then housekeeping () else drain ();
            loop ()
        | exception End_of_file -> ()
    in
    loop ()
  in
  (* Multi-client select loop over the daemon's listener.  Echoes go
     back to the owning client best-effort and non-blocking: a client
     that stops reading loses echoes rather than wedging the daemon (its
     lines are still in the journal). *)
  let drive_socket sock ~stop =
    let clients : (int, Unix.file_descr * Buffer.t) Hashtbl.t =
      Hashtbl.create 8
    in
    let next_client = ref 0 in
    (echo_sink :=
       fun id line ->
         match Hashtbl.find_opt clients id with
         | None -> ()
         | Some (fd, _) -> (
             let payload = line ^ "\n" in
             match
               Unix.write_substring fd payload 0 (String.length payload)
             with
             | _ -> ()
             | exception
                 Unix.Unix_error
                   ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE
                     | Unix.ECONNRESET ),
                     _,
                     _ ) ->
                 ()));
    Fun.protect
      ~finally:(fun () ->
        echo_sink := (fun _ _ -> ());
        Hashtbl.iter
          (fun _ (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ())
          clients)
      (fun () ->
        Unix.set_nonblock sock;
        let buf = Bytes.create 65536 in
        let read_client id fd cbuf =
          match Unix.read fd buf 0 (Bytes.length buf) with
          | exception
              Unix.Unix_error
                ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
              ()
          | 0 | exception Unix.Unix_error _ ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              Hashtbl.remove clients id
          | n ->
              List.iter
                (fun line ->
                  if Option.is_none !fatal && budget_left () then begin
                    post_line ~client:id ~file_depth:None line;
                    throttle ()
                  end)
                (Daemon.complete_lines cbuf buf n)
        in
        while Option.is_none !fatal && budget_left () && not !stop do
          housekeeping ();
          let http_fds = match http with Some l -> Http_listener.fds l | None -> [] in
          let rds =
            sock
            :: Hashtbl.fold (fun _ (fd, _) acc -> fd :: acc) clients []
            @ http_fds
          in
          match Unix.select rds [] [] 0.05 with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | ready, _, _ ->
              if List.memq sock ready then begin
                match Unix.accept sock with
                | exception
                    Unix.Unix_error
                      ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
                  ->
                    ()
                | fd, _ ->
                    Unix.set_nonblock fd;
                    let id = !next_client in
                    incr next_client;
                    Hashtbl.replace clients id (fd, Buffer.create 4096)
              end;
              (* Snapshot before reading: read_client removes closed
                 clients, and mutating a Hashtbl mid-iteration is
                 undefined. *)
              let ready_clients =
                Hashtbl.fold
                  (fun id (fd, cbuf) acc ->
                    if List.memq fd ready then (id, fd, cbuf) :: acc else acc)
                  clients []
              in
              List.iter
                (fun (id, fd, cbuf) -> read_client id fd cbuf)
                ready_clients
        done)
  in
  (* ---- finish and stats --------------------------------------------- *)
  let finish () =
    (* Everything posted; wait for the shards, settle the sequencer,
       then close the sessions in shard order. *)
    Array.iter Pool.Resident.sync residents;
    drain ();
    match !fatal with
    | Some msg -> Error msg
    | None -> (
        let errs =
          Array.to_list workers
          |> List.filter_map (fun w ->
                 match Session.finish w.w_session with
                 | Error f ->
                     Some
                       (Printf.sprintf "shard %d: %s" w.w_idx
                          (Session.fatal_to_string f))
                 | Ok () ->
                     if scfg.Session.snapshot_every > 0 then
                       Daemon.cut_snapshot w.w_journal w.w_session;
                     None)
        in
        let sum f = Array.fold_left (fun a w -> a + f w) 0 workers in
        match errs with
        | [] ->
            Ok
              {
                Daemon.lines = !lines;
                emitted = !emitted;
                placed = sum (fun w -> Session.placed w.w_session);
                rejected = sum (fun w -> Session.rejected w.w_session);
                skipped = sum (fun w -> Session.skipped w.w_session);
                replayed = sum (fun w -> w.w_replayed);
                snapshots = sum (fun w -> w.w_journal.Daemon.snapshots);
                resumed_from;
              }
        | es -> Error (String.concat "; " es))
  in
  let drive source =
    match
      (match source with
      | Daemon.Channel ic -> drive_channel ic
      | Daemon.Socket { listener; stop } -> drive_socket listener ~stop);
      finish ()
    with
    | r -> r
    | exception Pool.Resident_error e ->
        Error ("serve: shard worker died: " ^ Printexc.to_string e)
  in
  Ok { Daemon.drive; gauges = update_pool_gauges }
