(* The serve process shell and the lifecycle both daemons run (see the
   interface).  Like the rest of lib/serve/ it is R9-exempt: sockets,
   file descriptors and signals are allowed here. *)

type input = Stdin | In_file of string | In_socket of string

module Sp = Dbp_obs.Span

let version = "1.0.0"

type config = {
  input : input;
  output : string;
  snapshot_path : string option;
  resume : bool;
  metrics_out : string option;
  trace_out : string option;
  span_sample : int;
  span_out : string option;
  span_ring : int;
  throttle_us : int;
  crash_after : int option;
  max_arrivals : int option;
  log : string -> unit;
}

let default_config =
  {
    input = Stdin;
    output = "-";
    snapshot_path = None;
    resume = false;
    metrics_out = None;
    trace_out = None;
    span_sample = 0;
    span_out = None;
    span_ring = 1024;
    throttle_us = 0;
    crash_after = None;
    max_arrivals = None;
    log = ignore;
  }

type stats = {
  lines : int;
  emitted : int;
  placed : int;
  rejected : int;
  skipped : int;
  replayed : int;
  snapshots : int;
  resumed_from : string option;
}

let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v

(* ---- journals --------------------------------------------------------- *)

type journal = {
  out : out_channel;
  replay : (unit -> (Decision.t, string) result option) option;
  checkpoint : Session.checkpoint option;
  resumed_from : string option;
  snapshot : string option;
  mutable snapshots : int;
}

(* Truncate a torn final line (no trailing newline) off the journal:
   cut everything after the last '\n', read back a 4 KiB chunk at a
   time from the end.  A SIGKILL can land mid-[output_string];
   everything up to the previous newline is a complete, trustworthy
   prefix.  Returns the bytes cut. *)
let truncate_torn_tail path =
  let size = (Unix.stat path).Unix.st_size in
  let rec cut upper =
    if upper = 0 then 0
    else
      let lo = max 0 (upper - 4096) in
      let chunk =
        In_channel.with_open_bin path (fun ic ->
            In_channel.seek ic (Int64.of_int lo);
            really_input_string ic (upper - lo))
      in
      match String.rindex_opt chunk '\n' with
      | Some i -> lo + i + 1
      | None -> cut lo
  in
  let cut = cut size in
  if cut < size then Unix.truncate path cut;
  size - cut

(* Load the resume checkpoint from [snapshot], if one survives. *)
let load_checkpoint scfg ~who snapshot =
  match Snapshot.load ~path:snapshot with
  | Error (Snapshot.Missing _) ->
      (* First run under --resume: nothing to verify against; the
         journal alone still replays exactly. *)
      Ok (None, None)
  | Error e ->
      Error (Printf.sprintf "serve: %s%s" who (Snapshot.error_to_string e))
  | Ok (snap, gen) ->
      let where =
        match gen with
        | Snapshot.Current -> snapshot
        | Snapshot.Previous -> snapshot ^ ".prev"
      in
      if not (String.equal snap.Snapshot.algo scfg.Session.algo_name) then
        Error
          (Printf.sprintf "serve: %ssnapshot %s was cut by algorithm %s, not %s"
             who where snap.Snapshot.algo scfg.Session.algo_name)
      else
        Ok
          ( Some (Session.checkpoint_of_snapshot snap),
            Some (Printf.sprintf "%s (cursor %d)" where snap.Snapshot.cursor) )

(* Open [path] as this run's journal.  On resume: checkpoint from the
   snapshot, torn tail cut, the surviving prefix streamed back one parsed
   entry per pull (resume memory stays O(open jobs), never O(journal)),
   live lines appended after it.  [defer] receives the closers, so the
   reader is closed on every exit path, not just at end of file. *)
let open_journal cfg scfg ~defer ?shard ?snapshot path =
  let who =
    match shard with None -> "" | Some k -> Printf.sprintf "shard %d " k
  in
  let to_stdout = String.equal path "-" in
  let* () =
    if cfg.resume && to_stdout then
      Error "serve: --resume needs --output FILE (the output is the journal)"
    else Ok ()
  in
  let* checkpoint, resumed_from =
    match snapshot with
    | Some snapshot when cfg.resume -> load_checkpoint scfg ~who snapshot
    | _ -> Ok (None, None)
  in
  let exists = cfg.resume && Sys.file_exists path in
  let* () =
    match checkpoint with
    | Some { Session.cursor; _ } when cursor > 0 && not exists ->
        Error
          (Printf.sprintf
             "serve: %ssnapshot cursor is %d but the journal %s is missing" who
             cursor path)
    | _ -> Ok ()
  in
  let replay =
    if not exists then None
    else begin
      let torn = truncate_torn_tail path in
      if torn > 0 then
        cfg.log
          (Printf.sprintf "serve: truncated %d torn bytes off %s" torn path);
      let ic = open_in_bin path in
      defer (fun () -> close_in_noerr ic);
      Some
        (fun () ->
          match input_line ic with
          | line -> Some (Decision.parse line)
          | exception End_of_file ->
              close_in ic;
              None)
    end
  in
  let out =
    if to_stdout then stdout
    else if cfg.resume then
      open_out_gen
        [ Open_wronly; Open_append; Open_creat; Open_binary ]
        0o644 path
    else open_out_bin path
  in
  defer (fun () -> if to_stdout then flush stdout else close_out out);
  Ok { out; replay; checkpoint; resumed_from; snapshot; snapshots = 0 }

let cut_snapshot j session =
  match j.snapshot with
  | None -> ()
  | Some path ->
      (* Flush first: the snapshot cursor must never exceed the durable
         journal prefix. *)
      flush j.out;
      Snapshot.save ~path (Session.take_snapshot session);
      j.snapshots <- j.snapshots + 1

(* ---- the lifecycle ---------------------------------------------------- *)

type source =
  | Channel of in_channel
  | Socket of { listener : Unix.file_descr; stop : bool ref }

type host = {
  registry : Dbp_obs.Metrics.t option;
  health : Dbp_obs.Health.t option;
  spans : Sp.t;
  poll : unit -> unit;
  refresh : unit -> unit;
  open_journal :
    ?shard:int -> ?snapshot:string -> string -> (journal, string) result;
  defer : (unit -> unit) -> unit;
}

type loop = {
  drive : source -> (stats, string) result;
  gauges : unit -> unit;
}

(* Build the span recorder the config asks for, plus the --span-out
   channel to close at teardown. *)
let make_spans cfg ?metrics ~shards () =
  if cfg.span_sample <= 0 then begin
    if Option.is_some cfg.span_out then
      cfg.log "serve: --span-out has no effect without --span-sample";
    (Sp.disabled, None)
  end
  else begin
    let oc = Option.map open_out cfg.span_out in
    let sink =
      Option.map
        (fun oc line ->
          output_string oc line;
          output_char oc '\n')
        oc
    in
    ( Sp.create ?metrics ?sink ~ring:cfg.span_ring ~sample:cfg.span_sample
        ~shards (),
      oc )
  end

let write_metrics path m =
  let content =
    if path <> "-" && Filename.check_suffix path ".json" then
      Dbp_obs.Metrics.to_json m
    else Dbp_obs.Metrics.to_prometheus m
  in
  if String.equal path "-" then begin
    output_string stdout content;
    flush stdout
  end
  else
    Out_channel.with_open_text path (fun oc -> output_string oc content)

(* Install [handler] on [signals] around [f], restoring the previous
   handlers however [f] ends. *)
let with_signals signals handler f =
  let prev =
    List.map (fun s -> (s, Sys.signal s (Sys.Signal_handle handler))) signals
  in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (s, p) -> Sys.set_signal s p) prev)
    f

(* Bind a Unix-domain socket at [path] (replacing a stale one left by a
   killed daemon), run [f] on it, then close and unlink it. *)
let with_listener cfg path f =
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      cfg.log (Printf.sprintf "serve: listening on %s" path);
      f sock)

let complete_lines pending buf n =
  Buffer.add_subbytes pending buf 0 n;
  let data = Buffer.contents pending in
  Buffer.clear pending;
  let rec split = function
    | [ tail ] ->
        (* Still-unterminated tail: keep buffering. *)
        Buffer.add_string pending tail;
        []
    | l :: rest -> l :: split rest
    | [] -> []
  in
  split (String.split_on_char '\n' data)

(* Run every deferred closer, newest first, even past a failing one;
   the first failure is re-raised once all have run. *)
let close_all closers =
  let first =
    List.fold_left
      (fun first close ->
        match close () with
        | () -> first
        | exception e -> if Option.is_some first then first else Some e)
      None closers
  in
  Option.iter raise first

let lifecycle cfg scfg ?(registry = false) ~shards setup =
  match
    let closers = ref [] in
    let defer f = closers := f :: !closers in
    let body () =
      (* Echoes and HTTP responses are writes to peers that may vanish
         mid-write; EPIPE must come back as an error code the loops
         handle, not a process-killing signal.  Deferred first, so the
         previous disposition comes back last, once every channel is
         closed. *)
      let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
      defer (fun () -> Sys.set_signal Sys.sigpipe prev_pipe);
      let registry =
        if registry || Option.is_some cfg.metrics_out then
          Some (Dbp_obs.Metrics.create ())
        else None
      in
      let health = Option.map Dbp_obs.Health.create registry in
      Option.iter
        (Dbp_obs.Health.set_build_info ~family:"dbp_serve_build_info" ~version)
        registry;
      let spans, span_oc = make_spans cfg ?metrics:registry ~shards () in
      Option.iter (fun oc -> defer (fun () -> close_out oc)) span_oc;
      let gauges = ref ignore in
      let refresh () =
        !gauges ();
        Option.iter Dbp_obs.Health.tick health;
        Sp.export spans
      in
      let dump () =
        match (cfg.metrics_out, registry) with
        | Some path, Some m ->
            refresh ();
            write_metrics path m
        | _ -> ()
      in
      let usr1 = ref false in
      let poll () =
        if !usr1 then begin
          usr1 := false;
          dump ()
        end
      in
      let host =
        {
          registry;
          health;
          spans;
          poll;
          refresh;
          open_journal = open_journal cfg scfg ~defer;
          defer;
        }
      in
      with_signals [ Sys.sigusr1 ] (fun _ -> usr1 := true) (fun () ->
          let* loop = setup host in
          gauges := loop.gauges;
          let* stats =
            match cfg.input with
            | Stdin -> loop.drive (Channel stdin)
            | In_file path ->
                In_channel.with_open_text path (fun ic ->
                    loop.drive (Channel ic))
            | In_socket path ->
                let stop = ref false in
                with_signals [ Sys.sigint; Sys.sigterm ]
                  (fun _ -> stop := true)
                  (fun () ->
                    with_listener cfg path (fun listener ->
                        loop.drive (Socket { listener; stop })))
          in
          dump ();
          Ok stats)
    in
    match body () with
    | result ->
        close_all !closers;
        result
    | exception e ->
        (try close_all !closers with Sys_error _ | Unix.Unix_error _ -> ());
        raise e
  with
  | result -> result
  | exception Sys_error msg -> Error ("serve: " ^ msg)
  | exception Unix.Unix_error (e, fn, arg) ->
      Error (Printf.sprintf "serve: %s(%s): %s" fn arg (Unix.error_message e))

(* ---- the unsharded drive loop ----------------------------------------- *)

exception Fatal_outcome of Session.fatal

type drive = {
  session : Session.t;
  journal : journal;
  cfg : config;
  host : host;
  mutable d_lines : int;
  mutable d_emitted : int;
  mutable d_replayed : int;
  mutable d_last_emit : string option;  (* socket mode echoes this back *)
}

(* The [max_arrivals] budget is checked before a line is read, as
   [Shard]'s loop does: a budget of n feeds exactly min(n, lines)
   lines. *)
let budget_left d =
  match d.cfg.max_arrivals with Some n -> d.d_lines < n | None -> true

(* Feed one line. *)
let drive_line d ~depth line =
  let spans = d.host.spans in
  d.host.poll ();
  Option.iter Dbp_obs.Health.tick d.host.health;
  d.d_lines <- d.d_lines + 1;
  d.d_last_emit <- None;
  let tk = Sp.issue spans in
  Sp.set_depth tk depth;
  (* Only armed tickets go through [~span]: passing a value to the
     optional argument boxes a [Some] on every line, which the span
     bench's zero-alloc gate on the disabled path forbids. *)
  let outcome =
    if Sp.active tk then Session.feed d.session ~span:tk ~depth line
    else Session.feed d.session ~depth line
  in
  (match outcome with
  | Session.Fatal f -> raise (Fatal_outcome f)
  | Session.Skipped _ -> ()
  | Session.Replayed -> d.d_replayed <- d.d_replayed + 1
  | Session.Emit decision ->
      let out = d.journal.out in
      output_string out decision;
      output_char out '\n';
      Sp.stamp spans tk Sp.Journal;
      d.d_emitted <- d.d_emitted + 1;
      d.d_last_emit <- Some decision;
      (match d.cfg.crash_after with
      | Some n when d.d_emitted >= n ->
          (* Crash injection: a genuine SIGKILL, not an exit path — the
             journal is left exactly as the kernel saw it. *)
          flush out;
          Unix.kill (Unix.getpid ()) Sys.sigkill
      | _ -> ());
      if Session.snapshot_due d.session then
        cut_snapshot d.journal d.session);
  Sp.commit spans tk;
  if d.cfg.throttle_us > 0 then
    Unix.sleepf (float_of_int d.cfg.throttle_us /. 1e6)

let drive_channel d ic =
  let rec loop () =
    if budget_left d then
      match input_line ic with
      | line ->
          drive_line d ~depth:0 line;
          loop ()
      | exception End_of_file -> ()
  in
  loop ()

(* Single-threaded accept loop, one client at a time; decision lines
   echo back to the client (blocking, never dropped) as well as landing
   in the journal.  The ladder's queue depth = complete lines buffered
   behind the one being processed. *)
let drive_socket d sock ~stop =
  let buf = Bytes.create 65536 in
  let echo client =
    match d.d_last_emit with
    | None -> ()
    | Some line -> (
        (* Unix.write retries until every byte is out: the echo blocks
           rather than drop, unless the client hung up.  A client that
           closed with echoes unread shows as ECONNRESET once, then
           EPIPE. *)
        let payload = line ^ "\n" in
        match
          Unix.write_substring client payload 0 (String.length payload)
        with
        | _ -> ()
        | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
            ())
  in
  while budget_left d && not !stop do
    match Unix.accept sock with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | client, _ ->
        Fun.protect
          ~finally:(fun () ->
            try Unix.close client with Unix.Unix_error _ -> ())
          (fun () ->
            let pending = Buffer.create 4096 in
            let connected = ref true in
            while !connected && budget_left d && not !stop do
              match Unix.read client buf 0 (Bytes.length buf) with
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
              | 0 | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
                  connected := false
              | n ->
                  let lines = complete_lines pending buf n in
                  let depth = ref (List.length lines) in
                  List.iter
                    (fun line ->
                      if budget_left d && not !stop then begin
                        decr depth;
                        drive_line d ~depth:!depth line;
                        echo client
                      end)
                    lines
            done)
  done

(* ---- run -------------------------------------------------------------- *)

let run cfg scfg =
  lifecycle cfg scfg ~shards:1 (fun host ->
      let* journal =
        host.open_journal ?snapshot:cfg.snapshot_path cfg.output
      in
      let trace_oc = Option.map open_out cfg.trace_out in
      Option.iter (fun oc -> host.defer (fun () -> close_out oc)) trace_oc;
      let observer =
        Option.map
          (fun oc ->
            Dbp_obs.Trace.streaming_observer ~sink:(fun line ->
                output_string oc line;
                output_char oc '\n'))
          trace_oc
      in
      let span_clock =
        if Sp.enabled host.spans then Some (Sp.clock host.spans) else None
      in
      let session =
        Session.create ?metrics:host.registry ?observer ?span_clock
          ?journal:journal.replay ?checkpoint:journal.checkpoint scfg
      in
      let d =
        {
          session;
          journal;
          cfg;
          host;
          d_lines = 0;
          d_emitted = 0;
          d_replayed = 0;
          d_last_emit = None;
        }
      in
      let finish () =
        match Session.finish session with
        | Error f -> Error (Session.fatal_to_string f)
        | Ok () ->
            (* A final snapshot makes a clean shutdown resume with zero
               unverified replay. *)
            if scfg.Session.snapshot_every > 0 then
              cut_snapshot journal session;
            Ok
              {
                lines = d.d_lines;
                emitted = d.d_emitted;
                placed = Session.placed session;
                rejected = Session.rejected session;
                skipped = Session.skipped session;
                replayed = d.d_replayed;
                snapshots = journal.snapshots;
                resumed_from = journal.resumed_from;
              }
      in
      let drive source =
        match
          match source with
          | Channel ic -> drive_channel d ic
          | Socket { listener; stop } -> drive_socket d listener ~stop
        with
        | () -> finish ()
        | exception Fatal_outcome f -> Error (Session.fatal_to_string f)
      in
      Ok { drive; gauges = ignore })
