(* The traced run: per-layer numbers measured from outside.  Each public
   entry point of a layer is timed alone over the workload's own lines,
   the daemon is rerun with its span sampler on and read back through
   [dbp analyze], and the stages are reconciled against the daemon's
   measured cost per line, residual included. *)

open Common
module W = Workload
module Sv = Dbp_serve
module Session = Dbp_serve.Session

let span_stride = "16"

(* The fastest of [passes] timed passes, in ns per unit, and the minor
   words per unit.  [prepare] runs untimed before each pass. *)
let per_unit ?(passes = 3) ~units prepare f =
  let samples =
    List.init passes (fun _ ->
        let st = prepare () in
        let w0 = Gc.minor_words () in
        let t0 = now_ns () in
        f st;
        let dt = now_ns () - t0 in
        let dw = Gc.minor_words () -. w0 in
        (float_of_int dt /. float_of_int units, dw /. float_of_int units))
  in
  (fastest (List.map fst samples), median (List.map snd samples))

let session (s : W.serve) =
  match Sv.Portfolio.by_name s.algo with
  | Some a -> Session.create (Session.config ~snapshot_every:0 ~name:s.algo a)
  | None -> invalid_arg ("no portfolio algorithm " ^ s.algo)

let fed = function
  | Session.Emit _ | Session.Replayed | Session.Skipped _ -> ()
  | Session.Fatal f -> invalid_arg ("ledger: " ^ Session.fatal_to_string f)

(* [name value] pairs of a Prometheus exposition. *)
let prom_value text name =
  List.find_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ n; v ] when String.equal n name -> float_of_string_opt v
      | _ -> None)
    (String.split_on_char '\n' text)
  |> Option.value ~default:Float.nan

(* The phase and shard tables of a [dbp analyze] report:
   (phase -> p50, p99 in seconds) and the deepest mailbox. *)
let analyze_tables report =
  let rows = String.split_on_char '\n' report in
  let words l = List.filter (fun w -> w <> "") (String.split_on_char ' ' l) in
  let phases =
    List.filter_map
      (fun l ->
        match words l with
        | [ name; _count; p50; _p95; p99; _max ]
          when Array.exists (fun p -> String.equal (Dbp_obs.Span.phase_name p) name)
                 Dbp_obs.Span.phases ->
            Some (name, (float_of_string p50, float_of_string p99))
        | _ -> None)
      rows
  in
  let in_shards = ref false and depth = ref 0 in
  List.iter
    (fun l ->
      if String.equal l "-- shards --" then in_shards := true
      else if !in_shards then
        match words l with
        | [ k; _spans; d; _mean; _p50; _p99; _max ] when int_of_string_opt k <> None ->
            depth := max !depth (int_of_string d)
        | [] -> in_shards := false
        | _ -> ())
    rows;
  (phases, !depth)

let run (e : Serve.env) ~seed ~seconds =
  let r = e.r and w = e.w and s = e.s in
  let m name v u = metric r name v u in
  (* The instance: the ledger's lines plus what two half-length open
     loops send. *)
  let jobs = max w.W.ledger (W.open_loop_lines s ~seconds:(seconds /. 2.)) in
  let gen_s, inst = timed (fun () -> W.instance w ~seed ~jobs) in
  m "workload.generate.s" gen_s "s";
  let items = W.in_order inst in
  let st = W.stream w ~seed items in
  let n = min w.W.ledger (Array.length st.lines) in
  let lines = Array.sub st.lines 0 n in
  let decisions = Serve.decisions_in st n in
  let malformed = n - decisions in
  (* ---- layers timed alone ---- *)
  let render_ns, _ =
    per_unit ~units:n (fun () -> ())
      (fun () ->
        for i = 0 to n - 1 do
          ignore (Sv.Arrival.render ~tenant:"t1" items.(i mod Array.length items))
        done)
  in
  m "workload.render.ns_per_line" render_ns "ns/line";
  let sc = Sv.Arrival.scratch () in
  let parse_ns, parse_words =
    per_unit ~units:n (fun () -> ())
      (fun () -> Array.iter (fun l -> ignore (Sv.Arrival.parse_into sc l)) lines)
  in
  m "arrival.parse_into.ns_per_line" parse_ns "ns/line";
  m "arrival.parse_into.words_per_line" parse_words "words/line";
  (* shard_for reads a parsed scratch: parse a batch into scratches of
     its own, untimed, then time routing over the batch. *)
  let router = Sv.Router.create ~shards:(max 1 s.shards) () in
  let batch = 4096 in
  let scratches = Array.init batch (fun _ -> Sv.Arrival.scratch ()) in
  let route_ns = ref 0 and routed = ref 0 in
  let i = ref 0 in
  while !i < n do
    let k = min batch (n - !i) in
    let ok = Array.make k false in
    for j = 0 to k - 1 do
      ok.(j) <- Result.is_ok (Sv.Arrival.parse_into scratches.(j) lines.(!i + j))
    done;
    let t0 = now_ns () in
    for j = 0 to k - 1 do
      if ok.(j) then ignore (Sv.Arrival.shard_for router scratches.(j))
    done;
    route_ns := !route_ns + (now_ns () - t0);
    Array.iter (fun b -> if b then incr routed) ok;
    i := !i + k
  done;
  let shard_ns = float_of_int !route_ns /. float_of_int (max 1 !routed) in
  m "router.shard_for.ns_per_line" shard_ns "ns/line";
  let feed_ns, feed_words =
    per_unit ~units:n
      (fun () -> session s)
      (fun sess -> Array.iter (fun l -> fed (Session.feed sess ~depth:0 l)) lines)
  in
  m "session.feed.ns_per_line" feed_ns "ns/line";
  m "session.feed.words_per_line" feed_words "words/line";
  let parsed =
    Array.to_list lines
    |> List.filter_map (fun l ->
           match Sv.Arrival.parse_into sc l with
           | Ok () -> Some (Sv.Arrival.item sc)
           | Error _ -> None)
    |> Array.of_list
  in
  let item_ns, _ =
    per_unit ~units:(max 1 (Array.length parsed))
      (fun () -> session s)
      (fun sess -> Array.iter (fun it -> fed (Session.feed_item sess ~depth:0 it)) parsed)
  in
  m "session.feed_item.ns_per_line" item_ns "ns/line";
  let skip_ns, _ =
    per_unit ~units:n
      (fun () -> session s)
      (fun sess -> Array.iter (fun l -> fed (Session.feed_skip sess ~depth:0 l)) lines)
  in
  m "session.feed_skip.ns_per_line" skip_ns "ns/line";
  (* Snapshot cost at the end of a full feed: the largest state. *)
  let sess = session s in
  Array.iter (fun l -> fed (Session.feed sess ~depth:0 l)) lines;
  let snap = Serve.path e "ledger.snap" in
  let save () = Sv.Snapshot.save ~path:snap (Session.take_snapshot sess) in
  let save_ms = fastest (List.init 5 (fun _ -> fst (timed save))) *. 1e3 in
  m "snapshot.save.ms" save_ms "ms";
  m "snapshot.bytes" (float_of_int (file_size snap)) "bytes";
  (* ---- the daemon over the same lines ---- *)
  let input = Serve.path e "ledger-in.jsonl" in
  write_lines input lines;
  let full = Serve.path e "input.jsonl" in
  write_lines full st.W.lines;
  let output = Serve.path e "ledger.jsonl" in
  let walls =
    List.init 3 (fun k ->
        Serve.clear e output;
        let wall, status, _ =
          Serve.run e ~tag:(Printf.sprintf "ledger%d" k)
            (Serve.args e ~output [ "--input"; input ])
        in
        Serve.exited_ok e ~what:"ledger.daemon" status;
        wall)
  in
  let daemon_wall = fastest walls in
  let daemon_ns = daemon_wall *. 1e9 /. float_of_int n in
  m "daemon.ns_per_line" daemon_ns "ns/line";
  let snap_ns =
    if s.snapshot_every > 0 then save_ms *. 1e6 /. float_of_int s.snapshot_every
    else 0.
  in
  let stages =
    if s.shards = 0 then [ ("session.feed", feed_ns); ("snapshot.save", snap_ns) ]
    else
      let share k = float_of_int k /. float_of_int n in
      [
        ("arrival.parse_into", parse_ns);
        ("router.shard_for", shard_ns *. share decisions);
        ("session.feed_item", item_ns *. share decisions);
        ("session.feed_skip", skip_ns *. share malformed);
        ("snapshot.save", snap_ns);
      ]
  in
  let sum = List.fold_left (fun acc (_, v) -> acc +. v) 0. stages in
  m "daemon.stages.ns_per_line" sum "ns/line";
  m "daemon.residual.ns_per_line" (daemon_ns -. sum) "ns/line";
  List.iter (fun (name, v) -> note r "ledger stage %-20s %10.1f ns/line" name v) stages;
  note r "ledger stages sum %.1f + residual %.1f = daemon %.1f ns/line" sum
    (daemon_ns -. sum) daemon_ns;
  m "daemon.journal.bytes_per_line"
    (float_of_int (List.fold_left (fun acc j -> acc + file_size j) 0 (Serve.journals e output))
    /. float_of_int decisions)
    "bytes/line";
  (* Decision lines: parse and re-render the daemon's own journal (the
     segment, on a sharded daemon: merged lines carry a shard label). *)
  let segment = List.hd (List.rev (Serve.journals e output)) in
  let journal = read_lines segment in
  let decoded = Array.map Sv.Decision.parse journal in
  check r "decision.roundtrip"
    (Array.length journal = decisions
    && Array.for_all2
         (fun l d ->
           match d with
           | Ok d -> String.equal (Sv.Decision.render d) l
           | Error _ -> false)
         journal decoded)
    "%d journal lines re-render byte-identically" (Array.length journal);
  let dparse_ns, _ =
    per_unit ~units:decisions (fun () -> ())
      (fun () -> Array.iter (fun l -> ignore (Sv.Decision.parse l)) journal)
  in
  m "decision.parse.ns_per_line" dparse_ns "ns/line";
  let ok = Array.of_list (List.filter_map Result.to_option (Array.to_list decoded)) in
  let drender_ns, _ =
    per_unit ~units:decisions (fun () -> ())
      (fun () -> Array.iter (fun d -> ignore (Sv.Decision.render d)) ok)
  in
  m "decision.render.ns_per_line" drender_ns "ns/line";
  (* Engine occupancy and the objective, replayed from the journal. *)
  let rp = Serve.replay_journal ~departure:(Serve.departures items) segment in
  m "stream.open_bins.mean" rp.Serve.open_bins_mean "count";
  m "stream.open_bins.max" (float_of_int rp.Serve.open_bins_max) "count";
  let placed = Hashtbl.create decisions in
  Array.iter
    (function
      | Ok (Sv.Decision.Placed { job; _ }) -> Hashtbl.replace placed job ()
      | _ -> ())
    decoded;
  let placed_inst =
    Dbp_core.Instance.restrict inst (fun it -> Hashtbl.mem placed (Dbp_core.Item.id it))
  in
  m "objective.usage_ratio" (Serve.usage_ratio placed_inst rp.Serve.usage) "ratio";
  (* Gc and heap, from the daemon's own metrics dump. *)
  let prom = Serve.path e "ledger-metrics.prom" in
  Serve.clear e output;
  let _, status, _ =
    Serve.run e ~tag:"ledger-gc"
      (Serve.args e ~output [ "--input"; input; "--metrics-out"; prom ])
  in
  Serve.exited_ok e ~what:"ledger.metrics" status;
  let text = read_file prom in
  m "daemon.gc.minor_collections" (prom_value text "dbp_process_minor_collections") "count";
  m "daemon.gc.major_collections" (prom_value text "dbp_process_major_collections") "count";
  m "daemon.heap_mb"
    (prom_value text "dbp_process_heap_words" *. float_of_int (Sys.word_size / 8) /. 1048576.)
    "MiB";
  (* What the span sampler costs a saturated run. *)
  Serve.clear e output;
  let traced_wall, status, _ =
    Serve.run e ~tag:"ledger-spans"
      (Serve.args e ~output
         [
           "--input"; input; "--span-sample"; span_stride; "--span-out";
           Serve.path e "ledger-spans.jsonl";
         ])
  in
  Serve.exited_ok e ~what:"ledger.spans" status;
  m "trace.items_per_s.ratio" (daemon_wall /. traced_wall) "ratio";
  (* Replay cost: resumes that only replay half the ledger's journal. *)
  let crashed = Serve.crash e st ~input ~crash_k:(max 1 (decisions / 2)) in
  let resume_s = fastest (List.init Serve.repeats (Serve.resume e crashed ~input)) in
  Serve.complete e st crashed ~input ~reference:output ~resume_n:n;
  m "daemon.replay.ns_per_line"
    (resume_s *. 1e9 /. float_of_int (max 1 crashed.Serve.journaled))
    "ns/line";
  (* Two half-length open loops, the second with spans on: the load
     generator's own numbers, what spans cost in latency, and the spans
     themselves, read through dbp analyze.  Socket input gives the
     mailbox its real depth; a file run posts everything at depth 0. *)
  let loop tag extra =
    let ol = Serve.open_loop e st ~input:full ~seconds:(seconds /. 2.) ~tag extra in
    let g = ol.Serve.summary in
    r.attempted <- r.attempted + g.Loadgen.expected;
    r.failed <- r.failed + Loadgen.failures g;
    check r (tag ^ ".echoes") (Loadgen.failures g = 0)
      "%d of %d echoes matched, %d mismatched, %d overload" g.Loadgen.matched
      g.Loadgen.expected g.Loadgen.mismatched g.Loadgen.overload;
    g
  in
  let spans = Serve.path e "open-spans.jsonl" in
  let plain = loop "open-plain" [] in
  let spanned =
    loop "open-spans" [ "--span-sample"; span_stride; "--span-out"; spans ]
  in
  m "loadgen.lag.p99_us" plain.Loadgen.lag_p99_us "us";
  m "loadgen.lag.max_us" plain.Loadgen.lag_max_us "us";
  m "loadgen.latency.p99_us" plain.Loadgen.p99_us "us";
  m "loadgen.latency.max_us" plain.Loadgen.max_us "us";
  m "loadgen.samples" (float_of_int plain.Loadgen.samples) "count";
  m "loadgen.lost_echoes" (float_of_int (Loadgen.lost plain)) "count";
  m "trace.latency_p50.ratio" (spanned.Loadgen.p50_us /. plain.Loadgen.p50_us)
    "ratio";
  let report = Serve.path e "analyze.txt" in
  let _, status, _ =
    Serve.run e ~tag:"analyze" [ "analyze"; "--spans"; spans; "-o"; report ]
  in
  Serve.exited_ok e ~what:"analyze" status;
  let phases, depth = analyze_tables (read_file report) in
  let phase name = Option.value ~default:(0., 0.) (List.assoc_opt name phases) in
  Array.iter
    (fun p ->
      let name = Dbp_obs.Span.phase_name p in
      let p50, p99 = phase name in
      m (Printf.sprintf "span.%s.p50_us" name) (p50 *. 1e6) "us";
      m (Printf.sprintf "span.%s.p99_us" name) (p99 *. 1e6) "us")
    Dbp_obs.Span.phases;
  m "span.mailbox.depth_max" (float_of_int depth) "count";
  let agree what ledger_ns span =
    let span_us = fst (phase span) *. 1e6 and ledger_us = ledger_ns /. 1e3 in
    note r "cross-check %s: ledger %.3f us, span.%s p50 %.3f us: %s" what
      ledger_us span span_us
      (if Float.abs (ledger_us -. span_us) <= 1. then
         "agree within the span clock's 1 us"
       else "differ by more than the span clock's 1 us")
  in
  agree (if s.shards = 0 then "session.feed (generic parse)" else "arrival.parse_into")
    (if s.shards = 0 then feed_ns -. item_ns else parse_ns) "parse";
  agree "session.feed_item" item_ns "engine";
  (* The engine alone, in a child process of its own. *)
  let jobs, reps =
    match w.W.kind with
    | W.Batch b -> (b.W.jobs, 1)
    | W.Serve _ -> (w.W.ledger, 3)
  in
  let _, rep =
    Batch.spawn_child r ~dir:e.Serve.dir
      {
        Batch.workload = w;
        seed;
        jobs;
        reps;
        algos = Batch.algos;
        sweep = 0;
        sweep_jobs = 0;
        retime = true;
        check = false;
      }
  in
  Batch.check_repeatable r rep;
  List.iter
    (fun name ->
      let runs = Batch.runs_of rep name in
      let per reduce f = reduce (List.map f runs) /. float_of_int jobs in
      m ("engine.run_usage.ns_per_job." ^ name)
        (per fastest (fun x -> x.Batch.seconds *. 1e9))
        "ns/job";
      m ("engine.run_usage.words_per_job." ^ name)
        (per median (fun x -> x.Batch.words))
        "words/job")
    Batch.algos;
  m "engine.top_heap_mb" rep.Batch.top_heap_mb "MiB";
  let retime = Option.value ~default:Float.nan rep.Batch.retime_1e5 in
  m "engine.run_usage.first-fit_1e5.s" retime "s";
  (* The two committed rows for this cell disagree 2.8x; say which one
     a default-Gc child reproduces. *)
  note r "first-fit at 1e5 jobs: %.3f s, nearer %s" retime
    (if Float.abs (retime -. 0.262) < Float.abs (retime -. 0.094) then
       "bench obs's bare row (0.262 s)"
     else "bench engine's row (0.094 s, tuned Gc)")
