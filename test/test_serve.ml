(* The dbp.serve streaming stack: wire codecs (roundtrip + totality
   fuzz), the bounded-memory stream engine against the batch engine,
   crash-resume bit-fidelity for every portfolio algorithm at every cut
   point, snapshot durability and corruption detection, the degradation
   ladder, and the malformed-input skip contract. *)

open Helpers
open Dbp_serve
module E = Dbp_online.Engine
module Item = Dbp_core.Item

(* ---- json_lite / arrival / decision codecs ---------------------------- *)

(* The library's one arrival parser, with a fresh scratch per line. *)
let parse_arrival line =
  let sc = Arrival.scratch () in
  Result.map (fun () -> Arrival.item sc) (Arrival.parse_into sc line)

let gen_any_bytes =
  QCheck2.Gen.(string_size ~gen:char (int_range 0 120))

let prop_json_lite_total =
  qtest ~count:500 "Json_lite.parse_object never raises" gen_any_bytes
    (fun s ->
      match Json_lite.parse_object s with Ok _ | Error _ -> true)

let prop_arrival_total =
  qtest ~count:500 "Arrival.parse_into never raises" gen_any_bytes (fun s ->
      match parse_arrival s with Ok _ | Error _ -> true)

let prop_decision_total =
  qtest ~count:500 "Decision.parse never raises" gen_any_bytes (fun s ->
      match Decision.parse s with Ok _ | Error _ -> true)

let prop_lenient_trace_total =
  qtest ~count:200 "Trace.of_string_lenient never raises" gen_any_bytes
    (fun s ->
      let _instance, _errors = Dbp_workload.Trace.of_string_lenient s in
      true)

let test_arrival_hostile_bytes () =
  (* NULs, truncated UTF-8, and a 10 MB line: errors, never exceptions *)
  let hostile =
    [
      "\x00{\"id\":1,\"size\":0.5,\"arrival\":0,\"departure\":1}";
      "{\"id\":1,\"size\":0.5,\"arrival\":0,\"departure\":1}\x00";
      "{\"id\":1,\"size\":0.5,\"arrival\":0,\"departure\":\xc3";
      "{\"id\":\xed\xa0\x80}";
      "{\"id\":1,\"size\":0.5,\"arrival\":0,\"departure\":1";
      "{\"id\":1.5,\"size\":0.5,\"arrival\":0,\"departure\":1}";
      "{\"id\":1,\"size\":0.5,\"arrival\":0}";
      "{\"id\":1,\"id\":2,\"size\":0.5,\"arrival\":0,\"departure\":1}";
      "{\"id\":1,\"size\":2.0,\"arrival\":0,\"departure\":1}";
      "{\"id\":1,\"size\":0.5,\"arrival\":5,\"departure\":1}";
      "[1,2,3]";
      "";
      String.make 10_000_000 'x';
      "{\"id\":1,\"size\":0.5,\"arrival\":0,\"departure\":1,\"pad\":\""
      ^ String.make 10_000_000 'y';
    ]
  in
  List.iter
    (fun line ->
      match parse_arrival line with
      | Ok _ -> Alcotest.failf "hostile line parsed: %s" (String.sub line 0 (min 60 (String.length line)))
      | Error reason ->
          check_bool "reason is non-empty" true (String.length reason > 0))
    hostile

let test_arrival_ignores_unknown_fields () =
  match
    parse_arrival
      "{\"id\":7,\"size\":0.25,\"arrival\":3,\"departure\":7.5,\"tag\":\"x\"}"
  with
  | Ok item ->
      check_int "id" 7 (Item.id item);
      check_float "size" 0.25 (Item.size item)
  | Error e -> Alcotest.failf "unexpected parse failure: %s" e

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let prop_arrival_roundtrip =
  qtest ~count:300 "Arrival.render/parse_into roundtrip is bit-exact"
    (gen_item_with_id 12345)
    (fun item ->
      match parse_arrival (Arrival.render item) with
      | Error e -> QCheck2.Test.fail_reportf "rendered line rejected: %s" e
      | Ok back ->
          Item.id back = Item.id item
          && same_float (Item.size back) (Item.size item)
          && same_float (Item.arrival back) (Item.arrival item)
          && same_float (Item.departure back) (Item.departure item))

let gen_decision =
  QCheck2.Gen.(
    let* seq = int_range 0 1_000_000 in
    let* job = int_range 0 1_000_000 in
    let* time = float_range 0. 1e7 in
    let* placed = bool in
    if placed then
      let* bin = int_range 0 10_000 in
      let* opened = bool in
      return (Decision.Placed { seq; job; bin; opened; time })
    else
      let* reason =
        oneofl [ Decision.Overload; Decision.Out_of_order; Decision.Duplicate ]
      in
      return (Decision.Rejected { seq; job; reason; time }))

let prop_decision_roundtrip =
  qtest ~count:300 "Decision.render/parse roundtrip" gen_decision (fun d ->
      match Decision.parse (Decision.render d) with
      | Error e -> QCheck2.Test.fail_reportf "rendered line rejected: %s" e
      | Ok back -> Decision.equal d back)

(* ---- wire container ---------------------------------------------------- *)

let prop_wire_roundtrip =
  qtest ~count:300 "Wire.decode (Wire.encode p) = Ok p" gen_any_bytes
    (fun payload ->
      match Wire.decode (Wire.encode payload) with
      | Ok p -> String.equal p payload
      | Error c -> QCheck2.Test.fail_reportf "%s" (Wire.corruption_to_string c))

let prop_wire_total =
  qtest ~count:500 "Wire.decode never raises" gen_any_bytes (fun s ->
      match Wire.decode s with Ok _ | Error _ -> true)

let prop_wire_truncation_detected =
  (* every proper prefix of an encoded snapshot is a detected defect,
     never a false Ok *)
  QCheck2.Gen.(
    let* payload = string_size ~gen:char (int_range 0 40) in
    let* frac = float_range 0. 1. in
    return (payload, frac))
  |> fun gen ->
  qtest ~count:300 "any truncation is detected" gen (fun (payload, frac) ->
         let whole = Wire.encode payload in
         let cut = int_of_float (frac *. float_of_int (String.length whole)) in
         let cut = min cut (String.length whole - 1) in
         match Wire.decode (String.sub whole 0 cut) with
         | Ok _ -> false
         | Error (Wire.Truncated _ | Wire.Bad_magic) -> true
         | Error c ->
             QCheck2.Test.fail_reportf "unexpected class: %s"
               (Wire.corruption_to_string c))

let test_wire_corruption_classes () =
  let payload = "format=dbp-serve-snapshot\ncursor=12\n" in
  let whole = Wire.encode payload in
  let flip pos s =
    let b = Bytes.of_string s in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x5a));
    Bytes.to_string b
  in
  (match Wire.decode (flip 0 whole) with
  | Error Wire.Bad_magic -> ()
  | _ -> Alcotest.fail "magic flip undetected");
  (match Wire.decode (flip 7 whole) with
  | Error (Wire.Bad_version v) -> check_bool "version differs" true (v <> Wire.version)
  | _ -> Alcotest.fail "version flip undetected");
  (match Wire.decode (flip 14 whole) with
  | Error (Wire.Digest_mismatch { expected; actual }) ->
      check_bool "digests differ and are hex" true
        ((not (String.equal expected actual))
        && String.length expected = 32
        && String.length actual = 32)
  | _ -> Alcotest.fail "payload flip undetected");
  (match Wire.decode (whole ^ "junk") with
  | Error (Wire.Trailing_garbage { extra }) -> check_int "extra bytes" 4 extra
  | _ -> Alcotest.fail "trailing bytes undetected");
  match Wire.decode (String.sub whole 0 (String.length whole - 3)) with
  | Error (Wire.Truncated { expected; actual }) ->
      check_bool "byte counts carried" true (actual < expected)
  | _ -> Alcotest.fail "truncation undetected"

(* ---- snapshot payload + durability ------------------------------------- *)

let sample_snapshot =
  {
    Snapshot.algo = "best-fit";
    cursor = 420;
    placed = 400;
    rejected = 15;
    skipped = 5;
    bins_ever = 37;
    shed_transitions = 2;
    coarsen_transitions = 1;
    reject_transitions = 1;
    engine_digest = "0123456789abcdef0123456789abcdef";
  }

let test_snapshot_payload_roundtrip () =
  match Snapshot.of_payload (Snapshot.to_payload sample_snapshot) with
  | Ok back ->
      check_bool "roundtrip preserves every field" true (back = sample_snapshot)
  | Error e -> Alcotest.failf "payload rejected: %s" e

let test_snapshot_payload_strict () =
  List.iter
    (fun payload ->
      match Snapshot.of_payload payload with
      | Ok _ -> Alcotest.failf "bad payload accepted: %S" payload
      | Error _ -> ())
    [
      ""; "cursor=12\n"; "format=wrong\ncursor=12\n";
      Snapshot.to_payload sample_snapshot ^ "mystery=1\n";
      "format=dbp-serve-snapshot\ncursor=twelve\n";
    ]

let in_tmp f =
  let dir = Filename.temp_file "dbp_serve_test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> Sys.remove (Filename.concat dir e))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let test_snapshot_save_load_rotation () =
  in_tmp (fun dir ->
      let path = Filename.concat dir "snap.bin" in
      (match Snapshot.load ~path with
      | Error (Snapshot.Missing _) -> ()
      | _ -> Alcotest.fail "missing file must report Missing");
      Snapshot.save ~path sample_snapshot;
      (match Snapshot.load ~path with
      | Ok (s, Snapshot.Current) -> check_int "cursor" 420 s.Snapshot.cursor
      | _ -> Alcotest.fail "fresh save unreadable");
      let second = { sample_snapshot with Snapshot.cursor = 840 } in
      Snapshot.save ~path second;
      (match Snapshot.load ~path with
      | Ok (s, Snapshot.Current) -> check_int "newest wins" 840 s.Snapshot.cursor
      | _ -> Alcotest.fail "second save unreadable");
      (* corrupt the current generation: load falls back to .prev *)
      let oc = open_out path in
      output_string oc "DBPSNAPgarbage";
      close_out oc;
      (match Snapshot.load ~path with
      | Ok (s, Snapshot.Previous) ->
          check_int "previous generation used" 420 s.Snapshot.cursor
      | Ok (_, Snapshot.Current) -> Alcotest.fail "corrupt current accepted"
      | Error e -> Alcotest.failf "fallback failed: %s" (Snapshot.error_to_string e));
      (* both generations corrupt: the error is the current one's *)
      let oc = open_out (path ^ ".prev") in
      output_string oc "junk";
      close_out oc;
      match Snapshot.load ~path with
      | Error (Snapshot.Unreadable { path = p; _ }) ->
          check_string "current generation's defect reported" path p
      | _ -> Alcotest.fail "double corruption accepted")

(* ---- session drivers --------------------------------------------------- *)

let scfg ?watermarks ?snapshot_every ?coarsen_factor name =
  match Portfolio.by_name name with
  | Some algo ->
      Session.config ?watermarks ?snapshot_every ?coarsen_factor ~name algo
  | None -> Alcotest.failf "unknown portfolio algorithm %s" name

let jsonl_of_instance inst =
  List.map Arrival.render (Dbp_core.Instance.arrivals_in_order inst)

(* Feed every line at depth 0, mimicking the daemon: collect emitted
   lines, cut snapshots when due.  Fatals fail the test. *)
let drive ?journal ?checkpoint cfg lines =
  let s = Session.create ?journal ?checkpoint cfg in
  let out = ref [] and snaps = ref [] in
  List.iter
    (fun line ->
      match Session.feed s ~depth:0 line with
      | Session.Emit l ->
          out := l :: !out;
          if Session.snapshot_due s then snaps := Session.take_snapshot s :: !snaps
      | Session.Replayed | Session.Skipped _ -> ()
      | Session.Fatal f -> Alcotest.failf "fatal: %s" (Session.fatal_to_string f))
    lines;
  (match Session.finish s with
  | Ok () -> ()
  | Error f -> Alcotest.failf "finish: %s" (Session.fatal_to_string f));
  (List.rev !out, List.rev !snaps, s)

let journal_of_lines lines =
  let rest = ref lines in
  fun () ->
    match !rest with
    | [] -> None
    | l :: tl ->
        rest := tl;
        Some (Decision.parse l)

(* ---- stream engine vs the batch engine --------------------------------- *)

let portfolio_names = Portfolio.names ()

let gen_algo_and_instance =
  QCheck2.Gen.(
    let* ai = int_range 0 (List.length portfolio_names - 1) in
    let* inst = gen_instance ~max_items:14 () in
    return (List.nth portfolio_names ai, inst))

let prop_differential =
  qtest ~count:150 "session decisions = Engine.run placements"
    gen_algo_and_instance (fun (name, inst) ->
      let lines = jsonl_of_instance inst in
      let out, _, session = drive (scfg name) lines in
      let packing = E.run (Option.get (Portfolio.by_name name)) inst in
      List.length out = List.length lines
      && List.for_all
           (fun line ->
             match Decision.parse line with
             | Ok (Decision.Placed { job; bin; _ }) ->
                 Dbp_core.Packing.bin_of_item packing job = bin
             | Ok (Decision.Rejected _) ->
                 QCheck2.Test.fail_reportf "unexpected reject: %s" line
             | Error e -> QCheck2.Test.fail_reportf "unparseable: %s" e)
           out
      && Stream_engine.bins_ever (Session.engine session)
         = Dbp_core.Packing.bin_count packing)

(* ---- fit-index rebuilds: differential at scale, memory, digest pin ----- *)

(* At least 2,000 items laid out in blocks three time units apart.  Each
   block is one of the engine suite's adversarial shapes (an
   equal-timestamp burst, a duration ramp) or a plain random cluster,
   plus up to two long-lived anchor jobs.  Anchors hold bins open across
   up to two dozen blocks while the blocks' own bins open and close around
   them, so the engine runs out of fit-index slots and repacks many
   times, with live bins scattered across the slots. *)
let gen_compaction_instance =
  QCheck2.Gen.(
    let block =
      let* shape = int_range 0 2 in
      let* sub =
        match shape with
        | 0 -> gen_burst_instance ()
        | 1 -> gen_ramp_instance ~max_cohorts:6 ~max_cohort_size:10 ()
        | _ -> gen_instance ~max_items:40 ()
      in
      let* anchors =
        list_size (int_range 0 2)
          (pair (float_range 0.05 0.3) (float_range 20. 80.))
      in
      return (sub, anchors)
    in
    let+ blocks = list_repeat 100 block in
    let items = ref [] and n = ref 0 in
    let add size arrival departure =
      items := Item.make ~id:!n ~size ~arrival ~departure :: !items;
      incr n
    in
    List.iteri
      (fun b (sub, anchors) ->
        let start = 3. *. float_of_int b in
        List.iter
          (fun it ->
            add (Item.size it) (start +. Item.arrival it)
              (start +. Item.departure it))
          (Dbp_core.Instance.items sub);
        List.iter (fun (size, life) -> add size start (start +. life)) anchors)
      blocks;
    (* Top up with short unit-size churn past the last block. *)
    while !n < 2_000 do
      let arrival = 400. +. float_of_int !n in
      add 1.0 arrival (arrival +. 0.5)
    done;
    Dbp_core.Instance.of_items !items)

(* The seven portfolio algorithms, plus random fit to drive the index's
   [fold], each with its view-list twin from Algo_oracle. *)
let compaction_algorithms =
  List.map
    (fun (name, algo) -> (name, algo, List.assoc name Algo_oracle.portfolio))
    (Portfolio.algorithms ())
  @ [
      ( "random-fit",
        Dbp_online.Any_fit.random_fit ~seed:7,
        Algo_oracle.random_fit ~seed:7 );
    ]

let prop_differential_compaction =
  qtest ~count:4 "stream engine = Engine.run_reference across index rebuilds"
    gen_compaction_instance (fun inst ->
      let arrivals = Dbp_core.Instance.arrivals_in_order inst in
      List.for_all
        (fun (name, algo, oracle) ->
          let packing = E.run_reference oracle inst in
          let e = Stream_engine.create algo in
          List.iter
            (fun item ->
              match Stream_engine.arrive e item with
              | Ok { Stream_engine.bin; _ } ->
                  let want = Dbp_core.Packing.bin_of_item packing (Item.id item) in
                  if bin <> want then
                    QCheck2.Test.fail_reportf "%s: job %d placed in bin %d, reference %d"
                      name (Item.id item) bin want
              | Error err ->
                  QCheck2.Test.fail_reportf "%s: %s" name (E.error_to_string err))
            arrivals;
          if Stream_engine.index_rebuilds e < 5 then
            QCheck2.Test.fail_reportf "%s: only %d index rebuilds over %d bins"
              name (Stream_engine.index_rebuilds e) (Stream_engine.bins_ever e);
          Stream_engine.bins_ever e = Dbp_core.Packing.bin_count packing)
        compaction_algorithms)

(* A periodic workload: a job every 0.5 time units, durations cycling
   1..19, sizes cycling 0.1..0.4 — about 20 open jobs at any time. *)
let stationary_item i =
  let arrival = 0.5 *. float_of_int i in
  Item.make ~id:i
    ~size:(0.1 +. (0.05 *. float_of_int (i mod 7)))
    ~arrival
    ~departure:(arrival +. 1. +. (1.5 *. float_of_int (i mod 13)))

let test_engine_memory_stays_bounded () =
  List.iter
    (fun name ->
      let e = Stream_engine.create (Option.get (Portfolio.by_name name)) in
      let most_open = ref 0 in
      let feed lo hi =
        for i = lo to hi - 1 do
          (match Stream_engine.arrive e (stationary_item i) with
          | Ok _ -> ()
          | Error err -> Alcotest.failf "%s: %s" name (E.error_to_string err));
          most_open := max !most_open (Stream_engine.open_bins e)
        done
      in
      feed 0 10_000;
      let early = Obj.reachable_words (Obj.repr e) in
      feed 10_000 100_000;
      let late = Obj.reachable_words (Obj.repr e) in
      check_bool
        (Printf.sprintf "%s: at most 20 open bins (saw %d)" name !most_open)
        true (!most_open <= 20);
      check_bool
        (Printf.sprintf "%s: %d words after 10^4 arrivals, %d after 10^5"
           name early late)
        true
        (float_of_int late <= 1.5 *. float_of_int early))
    [ "first-fit"; "cbdt-ff" ]

(* Digests pinned from an earlier version of the engine: snapshots
   written then must still verify now. *)
let test_digest_pinned () =
  let specs =
    [ (0.5, 0., 10.); (0.4, 1., 3.); (0.3, 2., 12.); (0.6, 2.5, 8.);
      (0.2, 4., 6.); (0.35, 5., 20.) ]
  in
  List.iter
    (fun (name, want) ->
      let e = Stream_engine.create (Option.get (Portfolio.by_name name)) in
      List.iter
        (fun item ->
          match Stream_engine.arrive e item with
          | Ok _ -> ()
          | Error err -> Alcotest.failf "%s: %s" name (E.error_to_string err))
        (items specs);
      check_int (name ^ ": one job departed mid-stream") 1
        (Stream_engine.departed e);
      check_string (name ^ ": digest") want (Stream_engine.digest e))
    [
      ("first-fit", "98eaa78890454657f78ad190432acf5b");
      ("cbdt-ff", "56ccc64b2bee5d776ce49888fe4cde03");
    ]

let test_engine_eviction_bounds_state () =
  (* strictly sequential jobs: every bin closes before the next opens,
     so open state stays O(1) while bins_ever grows without bound *)
  let e = Stream_engine.create Dbp_online.Any_fit.first_fit in
  for i = 0 to 99 do
    let t = float_of_int i in
    let item =
      Item.make ~id:i ~size:0.9 ~arrival:t ~departure:(t +. 0.5)
    in
    match Stream_engine.arrive e item with
    | Ok { Stream_engine.bin; opened } ->
        check_int "fresh bin each time" i bin;
        check_bool "always opened" true opened;
        check_int "never more than one open bin" 1 (Stream_engine.open_bins e);
        check_int "never more than one open job" 1 (Stream_engine.open_jobs e)
    | Error err -> Alcotest.failf "arrive: %s" (E.error_to_string err)
  done;
  Stream_engine.drain_until e 1e9;
  check_int "all departed" 0 (Stream_engine.open_jobs e);
  check_int "all bins closed" 0 (Stream_engine.open_bins e);
  check_int "history still counted" 100 (Stream_engine.bins_ever e)

let test_engine_rejects_time_travel () =
  let e = Stream_engine.create Dbp_online.Any_fit.first_fit in
  (match
     Stream_engine.arrive e
       (Item.make ~id:0 ~size:0.5 ~arrival:5. ~departure:6.)
   with
  | Ok _ -> ()
  | Error err -> Alcotest.failf "arrive: %s" (E.error_to_string err));
  check_bool "backwards arrival raises" true
    (match
       Stream_engine.arrive e
         (Item.make ~id:1 ~size:0.5 ~arrival:3. ~departure:9.)
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---- crash-resume bit-fidelity ----------------------------------------- *)

(* A fixed overlapping-instance for the exhaustive sweep: every cut
   point x every portfolio algorithm. *)
let sweep_instance =
  instance
    [
      (0.6, 0., 4.); (0.6, 0.5, 3.); (0.3, 1., 6.); (0.8, 1.5, 5.);
      (0.2, 2., 7.); (0.5, 2.5, 8.); (0.9, 3., 9.); (0.4, 3.5, 10.);
      (0.35, 4., 11.); (0.55, 5., 12.);
    ]

let resume_check name lines cut =
  let cfg = scfg ~snapshot_every:3 name in
  let full_out, snaps, full_session = drive cfg lines in
  let journal_lines =
    List.filteri (fun i _ -> i < cut) full_out
  in
  (* the newest snapshot the journal prefix reaches, like Daemon.run *)
  let checkpoint =
    List.fold_left
      (fun best s -> if s.Snapshot.cursor <= cut then Some s else best)
      None snaps
    |> Option.map Session.checkpoint_of_snapshot
  in
  let resumed_out, _, resumed_session =
    drive ~journal:(journal_of_lines journal_lines) ?checkpoint cfg lines
  in
  Alcotest.(check (list string))
    (Printf.sprintf "%s cut=%d: journal + resumed output = full stream" name cut)
    full_out
    (journal_lines @ resumed_out);
  check_string
    (Printf.sprintf "%s cut=%d: end-state digests agree" name cut)
    (Stream_engine.digest (Session.engine full_session))
    (Stream_engine.digest (Session.engine resumed_session))

let test_crash_resume_every_algo_every_cut () =
  let lines = jsonl_of_instance sweep_instance in
  List.iter
    (fun name ->
      for cut = 0 to List.length lines do
        resume_check name lines cut
      done)
    portfolio_names

let prop_crash_resume =
  qtest ~count:60 "crash-resume is bit-identical (random algo/instance/cut)"
    QCheck2.Gen.(
      let* pair = gen_algo_and_instance in
      let* cut_frac = float_range 0. 1. in
      return (pair, cut_frac))
    (fun ((name, inst), cut_frac) ->
      let lines = jsonl_of_instance inst in
      let cut =
        int_of_float (cut_frac *. float_of_int (List.length lines))
      in
      resume_check name lines cut;
      true)

(* ---- resume defect detection ------------------------------------------- *)

let feed_all s lines =
  List.fold_left
    (fun acc line ->
      match acc with
      | Some _ -> acc
      | None -> (
          match Session.feed s ~depth:0 line with
          | Session.Fatal f -> Some f
          | _ -> None))
    None lines

let test_resume_detects_wrong_journal () =
  let lines = jsonl_of_instance sweep_instance in
  let full_out, _, _ = drive (scfg "first-fit") lines in
  (* Forge a journal that disagrees with what the algorithm would do:
     bump one Placed entry's bin number.  (Deterministic, unlike pitting
     two algorithms against each other — they may happen to agree.) *)
  let bumped = ref false in
  let wrong_out =
    List.map
      (fun l ->
        match Decision.parse l with
        | Ok (Decision.Placed p) when not !bumped ->
            bumped := true;
            Decision.render (Decision.Placed { p with bin = p.bin + 1 })
        | _ -> l)
      full_out
  in
  check_bool "precondition: some entry was bumped" true !bumped;
  let s =
    Session.create
      ~journal:(journal_of_lines wrong_out)
      (scfg "first-fit")
  in
  match feed_all s lines with
  | Some (Session.Journal_divergence _) -> ()
  | Some f -> Alcotest.failf "wrong fatal: %s" (Session.fatal_to_string f)
  | None -> Alcotest.fail "divergent journal accepted"

let test_resume_detects_corrupt_journal_line () =
  let lines = jsonl_of_instance sweep_instance in
  let full_out, _, _ = drive (scfg "first-fit") lines in
  let corrupted =
    List.mapi (fun i l -> if i = 3 then "{torn" else l) full_out
  in
  let s =
    Session.create ~journal:(journal_of_lines corrupted) (scfg "first-fit")
  in
  match feed_all s lines with
  | Some (Session.Journal_corrupt { seq = 3; _ }) -> ()
  | Some f -> Alcotest.failf "wrong fatal: %s" (Session.fatal_to_string f)
  | None -> Alcotest.fail "corrupt journal accepted"

let test_resume_detects_bogus_checkpoint_digest () =
  let lines = jsonl_of_instance sweep_instance in
  let full_out, _, _ = drive (scfg "first-fit") lines in
  let s =
    Session.create
      ~journal:(journal_of_lines full_out)
      ~checkpoint:{ Session.cursor = 4; digest = "not-a-real-digest" }
      (scfg "first-fit")
  in
  match feed_all s lines with
  | Some (Session.Checkpoint_divergence { cursor = 4; actual_digest = Some _; _ })
    ->
      ()
  | Some f -> Alcotest.failf "wrong fatal: %s" (Session.fatal_to_string f)
  | None -> Alcotest.fail "bogus digest accepted"

let test_resume_detects_checkpoint_past_journal () =
  let lines = jsonl_of_instance sweep_instance in
  let full_out, _, _ = drive (scfg "first-fit") lines in
  let s =
    Session.create
      ~journal:(journal_of_lines (List.filteri (fun i _ -> i < 2) full_out))
      ~checkpoint:{ Session.cursor = 9999; digest = "whatever" }
      (scfg "first-fit")
  in
  match feed_all s lines with
  | Some (Session.Checkpoint_divergence { actual_digest = None; _ }) -> ()
  | Some f -> Alcotest.failf "wrong fatal: %s" (Session.fatal_to_string f)
  | None -> Alcotest.fail "unreachable checkpoint accepted"

let test_finish_rejects_leftover_journal () =
  let lines = jsonl_of_instance sweep_instance in
  let full_out, _, _ = drive (scfg "first-fit") lines in
  let s =
    Session.create ~journal:(journal_of_lines full_out) (scfg "first-fit")
  in
  (* feed only half the input: the journal suffix goes unconsumed *)
  List.iteri
    (fun i line -> if i < 5 then ignore (Session.feed s ~depth:0 line))
    lines;
  match Session.finish s with
  | Error (Session.Journal_divergence _) -> ()
  | Error f -> Alcotest.failf "wrong fatal: %s" (Session.fatal_to_string f)
  | Ok () -> Alcotest.fail "leftover journal accepted"

(* ---- live rejects + skip counting -------------------------------------- *)

let arrival_line ~id ~arrival ~departure =
  Arrival.render (Item.make ~id ~size:0.25 ~arrival ~departure)

let test_out_of_order_and_duplicate_rejects () =
  let s = Session.create (scfg "first-fit") in
  let expect label want line =
    match Session.feed s ~depth:0 line with
    | Session.Emit out -> (
        match Decision.parse out with
        | Ok d -> Alcotest.(check bool) label true (want d)
        | Error e -> Alcotest.failf "unparseable: %s" e)
    | _ -> Alcotest.failf "%s: expected an emitted line" label
  in
  expect "first placed"
    (function Decision.Placed { seq = 0; job = 1; _ } -> true | _ -> false)
    (arrival_line ~id:1 ~arrival:5. ~departure:9.);
  expect "older arrival rejected out_of_order"
    (function
      | Decision.Rejected { seq = 1; job = 2; reason = Decision.Out_of_order; _ }
        ->
          true
      | _ -> false)
    (arrival_line ~id:2 ~arrival:3. ~departure:8.);
  expect "active id rejected as duplicate"
    (function
      | Decision.Rejected { seq = 2; job = 1; reason = Decision.Duplicate; _ } ->
          true
      | _ -> false)
    (arrival_line ~id:1 ~arrival:6. ~departure:10.);
  expect "fresh id at a fresh time placed"
    (function Decision.Placed { seq = 3; job = 3; _ } -> true | _ -> false)
    (arrival_line ~id:3 ~arrival:7. ~departure:11.);
  check_int "rejects counted" 2 (Session.rejected s);
  check_int "placements counted" 2 (Session.placed s)

let prop_exact_skip_counts =
  (* seeded corruption of k distinct lines in an otherwise valid stream:
     the session skips exactly those and places the rest *)
  qtest ~count:100 "corrupted lines are skipped and counted exactly"
    QCheck2.Gen.(
      let* inst = gen_instance ~max_items:14 () in
      let* mask =
        list_size
          (return (Dbp_core.Instance.length inst))
          (int_range 0 3)
      in
      return (inst, mask))
    (fun (inst, mask) ->
      let lines = jsonl_of_instance inst in
      let corrupted =
        List.map2
          (fun line m -> if m = 0 then "\x00not json\xff" else line)
          lines mask
      in
      let bad = List.length (List.filter (fun m -> m = 0) mask) in
      let s = Session.create (scfg "first-fit") in
      let skips = ref 0 and emits = ref 0 in
      List.iter
        (fun line ->
          match Session.feed s ~depth:0 line with
          | Session.Skipped _ -> incr skips
          | Session.Emit _ -> incr emits
          | Session.Replayed -> ()
          | Session.Fatal f ->
              Alcotest.failf "fatal: %s" (Session.fatal_to_string f))
        corrupted;
      !skips = bad
      && Session.skipped s = bad
      && !emits = List.length lines - bad)

(* ---- the degradation ladder -------------------------------------------- *)

let test_admission_rungs () =
  let w = { Admission.shed = 2; coarsen = 4; reject = 6 } in
  Admission.validate w;
  check_int "below shed" 0 (Admission.rung_index (Admission.rung_for w ~depth:1));
  check_int "at shed" 1 (Admission.rung_index (Admission.rung_for w ~depth:2));
  check_int "at coarsen" 2 (Admission.rung_index (Admission.rung_for w ~depth:4));
  check_int "at reject" 3 (Admission.rung_index (Admission.rung_for w ~depth:6));
  check_string "names" "rejecting"
    (Admission.rung_name (Admission.rung_for w ~depth:100));
  check_bool "bad ordering refused" true
    (match Admission.validate { Admission.shed = 5; coarsen = 4; reject = 6 } with
    | exception Invalid_argument _ -> true
    | () -> false);
  check_bool "zero shed refused" true
    (match Admission.validate { Admission.shed = 0; coarsen = 4; reject = 6 } with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_ladder_transitions_and_overload_reject () =
  let watermarks = { Admission.shed = 2; coarsen = 4; reject = 6 } in
  let s = Session.create (scfg ~watermarks "first-fit") in
  let feed ~depth ~id t =
    Session.feed s ~depth (arrival_line ~id ~arrival:t ~departure:(t +. 10.))
  in
  (match feed ~depth:0 ~id:0 1. with
  | Session.Emit _ -> ()
  | _ -> Alcotest.fail "normal depth places");
  check_string "starts normal" "normal" (Admission.rung_name (Session.rung s));
  (match feed ~depth:2 ~id:1 2. with
  | Session.Emit _ -> ()
  | _ -> Alcotest.fail "shedding still places");
  check_string "shedding entered" "shedding"
    (Admission.rung_name (Session.rung s));
  (match feed ~depth:4 ~id:2 3. with
  | Session.Emit _ -> ()
  | _ -> Alcotest.fail "coarsening still places");
  (match feed ~depth:7 ~id:3 4. with
  | Session.Emit line -> (
      match Decision.parse line with
      | Ok (Decision.Rejected { reason = Decision.Overload; _ }) -> ()
      | _ -> Alcotest.failf "expected an overload reject, got %s" line)
  | _ -> Alcotest.fail "rejecting rung must emit a reject line");
  (match feed ~depth:0 ~id:4 5. with
  | Session.Emit _ -> ()
  | _ -> Alcotest.fail "recovery places again");
  check_string "recovered to normal" "normal"
    (Admission.rung_name (Session.rung s));
  let shed, coarsen, reject = Session.transitions s in
  check_int "one transition into shedding" 1 shed;
  check_int "one transition into coarsening" 1 coarsen;
  check_int "one transition into rejecting" 1 reject

let test_coarsening_multiplies_snapshot_cadence () =
  let watermarks = { Admission.shed = 2; coarsen = 4; reject = 100 } in
  let cfg = scfg ~watermarks ~snapshot_every:2 ~coarsen_factor:3 "first-fit" in
  let s = Session.create cfg in
  let feed ~depth ~id t =
    ignore (Session.feed s ~depth (arrival_line ~id ~arrival:t ~departure:(t +. 50.)))
  in
  feed ~depth:0 ~id:0 1.;
  check_bool "one line: not due" false (Session.snapshot_due s);
  feed ~depth:0 ~id:1 2.;
  check_bool "two lines: due at the base cadence" true (Session.snapshot_due s);
  ignore (Session.take_snapshot s);
  check_bool "cadence clock reset" false (Session.snapshot_due s);
  (* climb to the coarsening rung: cadence is now 2 * 3 = 6 *)
  feed ~depth:4 ~id:2 3.;
  feed ~depth:4 ~id:3 4.;
  check_bool "two lines under coarsening: not due" false (Session.snapshot_due s);
  feed ~depth:4 ~id:4 5.;
  feed ~depth:4 ~id:5 6.;
  feed ~depth:4 ~id:6 7.;
  check_bool "five lines: still not due" false (Session.snapshot_due s);
  feed ~depth:4 ~id:7 8.;
  check_bool "six lines: due at the coarsened cadence" true
    (Session.snapshot_due s)

let test_session_metrics_registry () =
  let registry = Dbp_obs.Metrics.create () in
  let watermarks = { Admission.shed = 1; coarsen = 2; reject = 3 } in
  let s = Session.create ~metrics:registry (scfg ~watermarks "first-fit") in
  ignore (Session.feed s ~depth:0 (arrival_line ~id:0 ~arrival:1. ~departure:5.));
  ignore (Session.feed s ~depth:3 (arrival_line ~id:1 ~arrival:2. ~departure:6.));
  ignore (Session.feed s ~depth:0 "garbage");
  let counter name labels =
    Dbp_obs.Metrics.counter_value
      (Dbp_obs.Metrics.counter registry ~labels name)
  in
  check_float "lines counted" 3. (counter "dbp_serve_lines_total" []);
  check_float "placements counted" 1. (counter "dbp_serve_placed_total" []);
  check_float "overload rejects counted" 1.
    (counter "dbp_serve_rejected_total" [ ("reason", "overload") ]);
  check_float "skips counted" 1. (counter "dbp_serve_skipped_lines_total" []);
  check_float "rejecting-rung transition counted" 1.
    (counter "dbp_serve_rung_transitions_total" [ ("rung", "rejecting") ]);
  check_float "queue-depth gauge tracks the last feed" 0.
    (Dbp_obs.Metrics.gauge_value
       (Dbp_obs.Metrics.gauge registry "dbp_serve_queue_depth"))

(* ---- obs additions: health + streaming trace --------------------------- *)

let test_health_gauges () =
  let registry = Dbp_obs.Metrics.create () in
  let fake = Dbp_obs.Clock.fake ~start:100. () in
  let h =
    Dbp_obs.Health.create ~clock:(Dbp_obs.Clock.of_fake fake) registry
  in
  Dbp_obs.Clock.advance fake 7.5;
  Dbp_obs.Health.tick h;
  check_float "uptime tracks the injected clock" 7.5
    (Dbp_obs.Metrics.gauge_value
       (Dbp_obs.Metrics.gauge registry "dbp_process_uptime_seconds"));
  check_bool "heap gauge is populated" true
    (Dbp_obs.Metrics.gauge_value
       (Dbp_obs.Metrics.gauge registry "dbp_process_heap_words")
    > 0.)

let test_streaming_observer_matches_recorder () =
  let inst = sweep_instance in
  let algo () = Dbp_online.Any_fit.best_fit in
  let recorder = Dbp_obs.Trace.create () in
  ignore (E.run ~observer:(Dbp_obs.Trace.observer recorder) (algo ()) inst);
  let streamed = ref [] in
  ignore
    (E.run
       ~observer:
         (Dbp_obs.Trace.streaming_observer ~sink:(fun l ->
              streamed := l :: !streamed))
       (algo ()) inst);
  Alcotest.(check (list string))
    "streamed lines = recorded lines"
    (List.map Dbp_obs.Trace.jsonl_of_event (Dbp_obs.Trace.events recorder))
    (List.rev !streamed)

let suite =
  [
    prop_json_lite_total;
    prop_arrival_total;
    prop_decision_total;
    prop_lenient_trace_total;
    Alcotest.test_case "hostile arrival bytes" `Quick test_arrival_hostile_bytes;
    Alcotest.test_case "unknown fields ignored" `Quick
      test_arrival_ignores_unknown_fields;
    prop_arrival_roundtrip;
    prop_decision_roundtrip;
    prop_wire_roundtrip;
    prop_wire_total;
    prop_wire_truncation_detected;
    Alcotest.test_case "wire corruption classes" `Quick
      test_wire_corruption_classes;
    Alcotest.test_case "snapshot payload roundtrip" `Quick
      test_snapshot_payload_roundtrip;
    Alcotest.test_case "snapshot payload strictness" `Quick
      test_snapshot_payload_strict;
    Alcotest.test_case "snapshot save/load/rotation" `Quick
      test_snapshot_save_load_rotation;
    prop_differential;
    prop_differential_compaction;
    Alcotest.test_case "engine memory stays bounded" `Quick
      test_engine_memory_stays_bounded;
    Alcotest.test_case "engine digest pinned" `Quick test_digest_pinned;
    Alcotest.test_case "eviction bounds live state" `Quick
      test_engine_eviction_bounds_state;
    Alcotest.test_case "time travel refused" `Quick
      test_engine_rejects_time_travel;
    Alcotest.test_case "crash-resume: every algo, every cut" `Quick
      test_crash_resume_every_algo_every_cut;
    prop_crash_resume;
    Alcotest.test_case "wrong journal detected" `Quick
      test_resume_detects_wrong_journal;
    Alcotest.test_case "corrupt journal line detected" `Quick
      test_resume_detects_corrupt_journal_line;
    Alcotest.test_case "bogus checkpoint digest detected" `Quick
      test_resume_detects_bogus_checkpoint_digest;
    Alcotest.test_case "checkpoint past journal detected" `Quick
      test_resume_detects_checkpoint_past_journal;
    Alcotest.test_case "leftover journal refused at finish" `Quick
      test_finish_rejects_leftover_journal;
    Alcotest.test_case "out-of-order + duplicate rejects" `Quick
      test_out_of_order_and_duplicate_rejects;
    prop_exact_skip_counts;
    Alcotest.test_case "admission rung boundaries" `Quick test_admission_rungs;
    Alcotest.test_case "ladder transitions + overload reject" `Quick
      test_ladder_transitions_and_overload_reject;
    Alcotest.test_case "coarsening multiplies snapshot cadence" `Quick
      test_coarsening_multiplies_snapshot_cadence;
    Alcotest.test_case "session metrics registry" `Quick
      test_session_metrics_registry;
    Alcotest.test_case "health gauges" `Quick test_health_gauges;
    Alcotest.test_case "streaming observer = recorder" `Quick
      test_streaming_observer_matches_recorder;
  ]
