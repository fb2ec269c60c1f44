(* The sharded dbp serve stack (PR 9): router purity and algebra, the
   zero-alloc arrival parse against the generic oracle (differential),
   buffered decision rendering, merge determinism of Shard.run,
   exhaustive clean-cut crash-resume byte-fidelity and torn-tail
   recovery for both daemons, the resume-setup errors and journal
   teardown of the shared serve lifecycle, and the HTTP listener's
   hostile-client posture. *)

open Helpers
open Dbp_serve
module Item = Dbp_core.Item

(* ---- router: purity, stability, algebra -------------------------------- *)

let gen_tenant = QCheck2.Gen.(string_size ~gen:char (int_range 0 24))

let prop_router_stable =
  let gen =
    QCheck2.Gen.(
      let* t = gen_tenant in
      let* shards = int_range 1 16 in
      return (t, shards))
  in
  qtest ~count:300 "routing is stable across router instances" gen
    (fun (t, shards) ->
      let a = Router.create ~shards () in
      let b = Router.create ~shards () in
      let k = Router.shard_for a t in
      k = Router.shard_for b t && 0 <= k && k < shards)

let prop_router_divisibility =
  let gen =
    QCheck2.Gen.(
      let* t = gen_tenant in
      let* m = int_range 1 5 in
      let* factor = int_range 1 5 in
      return (t, m, factor))
  in
  qtest ~count:300 "m | n => shard under n mod m = shard under m" gen
    (fun (t, m, factor) ->
      let n = m * factor in
      let rn = Router.create ~shards:n () in
      let rm = Router.create ~shards:m () in
      Router.shard_for rn t mod m = Router.shard_for rm t)

let prop_hash_sub =
  let gen =
    QCheck2.Gen.(
      let* s = string_size ~gen:char (int_range 0 40) in
      let* off = int_range 0 (String.length s) in
      let* len = int_range 0 (String.length s - off) in
      return (s, off, len))
  in
  qtest ~count:300 "hash_sub = hash of the substring" gen
    (fun (s, off, len) ->
      Router.hash_sub s ~off ~len = Router.hash (String.sub s off len))

let test_router_overrides () =
  let r = Router.create ~overrides:[ ("noisy", 3) ] ~shards:4 () in
  check_int "override wins" 3 (Router.shard_for r "noisy");
  check_int "override count" 1 (Router.overrides r);
  let hashed = Router.create ~shards:4 () in
  check_int "other tenants unaffected"
    (Router.shard_for hashed "quiet")
    (Router.shard_for r "quiet");
  (match Router.create ~overrides:[ ("t", 4) ] ~shards:4 () with
  | _ -> Alcotest.fail "out-of-range override accepted"
  | exception Invalid_argument _ -> ());
  (match Router.create ~overrides:[ ("t", 0); ("t", 1) ] ~shards:4 () with
  | _ -> Alcotest.fail "duplicate override accepted"
  | exception Invalid_argument _ -> ());
  match Router.create ~shards:0 () with
  | _ -> Alcotest.fail "zero shards accepted"
  | exception Invalid_argument _ -> ()

let test_parse_overrides () =
  (match
     Router.parse_overrides "# comment\n\n  alpha = 2 \nbeta=0\n"
   with
  | Ok [ ("alpha", 2); ("beta", 0) ] -> ()
  | Ok _ -> Alcotest.fail "wrong parse"
  | Error e -> Alcotest.failf "unexpected error: %s" e);
  (* "=3" pins the default (empty) tenant — legitimately parseable *)
  (match Router.parse_overrides "=3" with
  | Ok [ ("", 3) ] -> ()
  | _ -> Alcotest.fail "default-tenant pin rejected");
  List.iter
    (fun bad ->
      match Router.parse_overrides bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" bad)
    [ "tenant"; "tenant=notanint"; "tenant=-1" ]

let prop_parse_overrides_total =
  qtest ~count:300 "parse_overrides never raises"
    QCheck2.Gen.(string_size ~gen:char (int_range 0 120))
    (fun s ->
      match Router.parse_overrides s with Ok _ | Error _ -> true)

(* ---- parse_into: differential against the generic parser --------------- *)

let gen_any_bytes = QCheck2.Gen.(string_size ~gen:char (int_range 0 120))

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_item a b =
  Item.id a = Item.id b
  && same_float (Item.size a) (Item.size b)
  && same_float (Item.arrival a) (Item.arrival b)
  && same_float (Item.departure a) (Item.departure b)

(* One scratch reused across every generated line, like the router
   thread does — stale state leaking between parses would surface as a
   disagreement. *)
let shared_scratch = Arrival.scratch ()

let agree line =
  match (Arrival_oracle.parse line, Arrival.parse_into shared_scratch line) with
  | Ok item, Ok () -> same_item item (Arrival.item shared_scratch)
  | Error _, Error _ -> true
  | Ok _, Error _ | Error _, Ok _ -> false

let prop_parse_into_differential_bytes =
  qtest ~count:500 "parse_into agrees with parse on arbitrary bytes"
    gen_any_bytes agree

(* Tenants drawn from the bytes Json_lite.escape can round-trip: the
   printable range plus the named escapes.  (Control chars outside
   \n\t\r render as \u00xx, which the lenient parser — either of them —
   rejects by design.) *)
let gen_roundtrip_tenant =
  QCheck2.Gen.(
    string_size
      ~gen:(oneof [ char_range ' ' '~'; oneofl [ '\n'; '\t'; '\r' ] ])
      (int_range 0 24))

let gen_rendered_arrival =
  QCheck2.Gen.(
    let* item = gen_item_with_id 4242 in
    let* tenant =
      oneof
        [
          return None;
          map Option.some gen_roundtrip_tenant;
          return (Some "esc\t\"ape\\d");
        ]
    in
    return (Arrival.render ?tenant item, tenant))

let prop_parse_into_rendered =
  qtest ~count:300 "parse_into parses rendered arrivals, tenant intact"
    gen_rendered_arrival
    (fun (line, tenant) ->
      agree line
      &&
      match Arrival.parse_into shared_scratch line with
      | Error _ -> false
      | Ok () ->
          let want =
            match tenant with
            | Some t when String.length t > 0 -> t
            | _ -> Router.default_tenant
          in
          String.equal (Arrival.tenant shared_scratch) want)

let test_parse_into_hostile_bytes () =
  List.iter
    (fun line ->
      check_bool "parse/parse_into agree on hostile input" true (agree line))
    [
      "\x00{\"id\":1,\"size\":0.5,\"arrival\":0,\"departure\":1}";
      "{\"id\":1,\"size\":0.5,\"arrival\":0,\"departure\":1}\x00";
      "{\"id\":1,\"size\":0.5,\"arrival\":0,\"departure\":1";
      "{\"id\":1.5,\"size\":0.5,\"arrival\":0,\"departure\":1}";
      "{\"id\":1,\"size\":0.5,\"arrival\":0}";
      "{\"id\":1,\"id\":2,\"size\":0.5,\"arrival\":0,\"departure\":1}";
      "{\"id\":1,\"size\":\"big\",\"arrival\":0,\"departure\":1}";
      "{\"id\":1,\"size\":0.5,\"arrival\":0,\"departure\":1,\"x\":[1]}";
      "{\"tenant\":7,\"id\":1,\"size\":0.5,\"arrival\":0,\"departure\":1}";
      "{\"tenant\":\"a\",\"tenant\":\"b\",\"id\":1,\"size\":0.5,\
       \"arrival\":0,\"departure\":1}";
      "{}";
      "";
      "[1,2,3]";
      String.make 100_000 'x';
    ]

let prop_shard_for_consistent =
  qtest ~count:300 "shard_for on the slice = shard_for on the tenant"
    gen_rendered_arrival
    (fun (line, _) ->
      match Arrival.parse_into shared_scratch line with
      | Error _ -> true
      | Ok () ->
          let r = Router.create ~shards:5 () in
          Arrival.shard_for r shared_scratch
          = Router.shard_for r (Arrival.tenant shared_scratch))

(* ---- render_into: differential against render --------------------------- *)

let gen_decision =
  QCheck2.Gen.(
    let* seq = int_range 0 1_000_000 in
    let* job = int_range 0 1_000_000 in
    let* time = float_range 0. 1000. in
    oneof
      [
        (let* bin = int_range 0 500 in
         let* opened = bool in
         return (Decision.Placed { seq; job; bin; opened; time }));
        (let* reason =
           oneofl Decision.[ Overload; Out_of_order; Duplicate ]
         in
         return (Decision.Rejected { seq; job; reason; time }));
      ])

let prop_render_into =
  qtest ~count:300 "render_into produces exactly render's bytes" gen_decision
    (fun d ->
      let buf = Buffer.create 64 in
      Decision.render_into buf d;
      String.equal (Buffer.contents buf) (Decision.render d))

let test_render_into_batches () =
  let ds =
    [
      Decision.Placed { seq = 0; job = 9; bin = 0; opened = true; time = 0.5 };
      Decision.Rejected
        { seq = 1; job = 10; reason = Decision.Overload; time = 1.25 };
    ]
  in
  let buf = Buffer.create 64 in
  List.iter
    (fun d ->
      Decision.render_into buf d;
      Buffer.add_char buf '\n')
    ds;
  check_string "buffer accumulates one line per decision"
    (String.concat "" (List.map (fun d -> Decision.render d ^ "\n") ds))
    (Buffer.contents buf)

(* ---- Shard.run: merge determinism and crash-resume ---------------------- *)

let scfg ?snapshot_every name =
  match Portfolio.by_name name with
  | Some algo -> Session.config ?snapshot_every ~name algo
  | None -> Alcotest.failf "unknown portfolio algorithm %s" name

let in_tmp f =
  let dir = Filename.temp_file "dbp_shard_test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> Sys.remove (Filename.concat dir e))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let read_file path =
  if Sys.file_exists path then
    In_channel.with_open_bin path In_channel.input_all
  else ""

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let lines_of s =
  List.filter (fun l -> String.length l > 0) (String.split_on_char '\n' s)

(* A deterministic tenant-striped workload: ids ascending, arrivals
   non-decreasing, three named tenants plus the default (no field). *)
let tenant_of i =
  match i mod 4 with
  | 0 -> Some "t0"
  | 1 -> Some "t1"
  | 2 -> Some "alpha"
  | _ -> None

let input_lines n =
  List.init n (fun i ->
      let item =
        Item.make ~id:i
          ~size:(0.1 +. (float_of_int (i mod 7) *. 0.1))
          ~arrival:(float_of_int i)
          ~departure:(float_of_int i +. 3.5)
      in
      Arrival.render ?tenant:(tenant_of i) item)

let shard_cfg ?(shards = 2) ?(routes = []) ?(resume = false) ?max_arrivals
    ?(snapshot = true) ~dir ~prefix ~input () =
  let p name = Filename.concat dir (prefix ^ name) in
  {
    Shard.base =
      {
        Daemon.default_config with
        Daemon.input = Daemon.In_file input;
        output = p ".out";
        snapshot_path = (if snapshot then Some (p ".snap") else None);
        resume;
        max_arrivals;
      };
    shards;
    routes;
    metrics_port = None;
  }

let run_ok cfg sc =
  match Shard.run cfg sc with
  | Ok stats -> stats
  | Error e -> Alcotest.failf "Shard.run failed: %s" e

let shard_label line =
  let prefix = "{\"shard\":" in
  let pl = String.length prefix in
  if String.length line <= pl || not (String.equal (String.sub line 0 pl) prefix)
  then Alcotest.failf "merged line missing shard label: %s" line
  else
    let comma = String.index_from line pl ',' in
    (int_of_string (String.sub line pl (comma - pl)), comma)

(* Strip the spliced {"shard":K, label back off a merged line, giving
   the segment's decision line. *)
let unlabel line =
  let _, comma = shard_label line in
  "{" ^ String.sub line (comma + 1) (String.length line - comma - 1)

let test_sharded_run_merge_and_segments () =
  in_tmp (fun dir ->
      let n = 12 in
      let input = Filename.concat dir "input.jsonl" in
      write_file input (String.concat "\n" (input_lines n) ^ "\n");
      let cfg = shard_cfg ~dir ~prefix:"full" ~input () in
      let stats = run_ok cfg (scfg ~snapshot_every:3 "first-fit") in
      check_int "every line got a decision" n stats.Daemon.emitted;
      check_int "no skips" 0 stats.Daemon.skipped;
      check_int "placed + rejected = lines" n
        (stats.Daemon.placed + stats.Daemon.rejected);
      let merged = lines_of (read_file (Filename.concat dir "full.out")) in
      check_int "one merged line per arrival" n (List.length merged);
      (* labels match the pure router, and per-shard subsequences are
         byte-identical to the journal segments *)
      let router = Router.create ~shards:2 () in
      let expected_shard i =
        Router.shard_for router
          (match tenant_of i with Some t -> t | None -> Router.default_tenant)
      in
      List.iteri
        (fun i line ->
          check_int
            (Printf.sprintf "line %d routed by tenant key" i)
            (expected_shard i)
            (fst (shard_label line)))
        merged;
      for k = 0 to 1 do
        let seg =
          lines_of (read_file (Shard.segment_path (Filename.concat dir "full.out") k))
        in
        let from_merged =
          List.filter_map
            (fun line ->
              if fst (shard_label line) = k then Some (unlabel line) else None)
            merged
        in
        Alcotest.(check (list string))
          (Printf.sprintf "segment %d = its merged subsequence" k)
          from_merged seg
      done)

(* The determinism contract: segment K is byte-identical to an
   unsharded session driven over the router-filtered input for K. *)
let test_segments_match_filtered_unsharded () =
  in_tmp (fun dir ->
      let n = 16 in
      let input = Filename.concat dir "input.jsonl" in
      write_file input (String.concat "\n" (input_lines n) ^ "\n");
      let cfg = shard_cfg ~dir ~prefix:"run" ~input () in
      ignore (run_ok cfg (scfg ~snapshot_every:3 "first-fit"));
      let router = Router.create ~shards:2 () in
      let sc = Arrival.scratch () in
      for k = 0 to 1 do
        let filtered =
          List.filter
            (fun line ->
              match Arrival.parse_into sc line with
              | Ok () -> Arrival.shard_for router sc = k
              | Error _ -> k = 0)
            (input_lines n)
        in
        let s = Session.create (scfg ~snapshot_every:3 "first-fit") in
        let out = ref [] in
        List.iter
          (fun line ->
            match Session.feed s ~depth:0 line with
            | Session.Emit l -> out := l :: !out
            | Session.Replayed | Session.Skipped _ -> ()
            | Session.Fatal f ->
                Alcotest.failf "fatal: %s" (Session.fatal_to_string f))
          filtered;
        (match Session.finish s with
        | Ok () -> ()
        | Error f -> Alcotest.failf "finish: %s" (Session.fatal_to_string f));
        Alcotest.(check (list string))
          (Printf.sprintf "segment %d = filtered unsharded run" k)
          (List.rev !out)
          (lines_of
             (read_file (Shard.segment_path (Filename.concat dir "run.out") k)))
      done)

let test_resume_at_every_cut_point () =
  in_tmp (fun dir ->
      let n = 10 in
      let input = Filename.concat dir "input.jsonl" in
      write_file input (String.concat "\n" (input_lines n) ^ "\n");
      let sc () = scfg ~snapshot_every:2 "first-fit" in
      ignore (run_ok (shard_cfg ~dir ~prefix:"full" ~input ()) (sc ()));
      let want_merged = read_file (Filename.concat dir "full.out") in
      let want_seg k =
        read_file (Shard.segment_path (Filename.concat dir "full.out") k)
      in
      for cut = 0 to n do
        let prefix = Printf.sprintf "cut%d" cut in
        ignore
          (run_ok
             (shard_cfg ~dir ~prefix ~input ~max_arrivals:cut ())
             (sc ()));
        let stats =
          run_ok (shard_cfg ~dir ~prefix ~input ~resume:true ()) (sc ())
        in
        check_int
          (Printf.sprintf "cut %d: all journaled entries replayed" cut)
          cut stats.Daemon.replayed;
        check_int
          (Printf.sprintf "cut %d: live emits cover the remainder" cut)
          (n - cut) stats.Daemon.emitted;
        check_string
          (Printf.sprintf "cut %d: merged byte-identical" cut)
          want_merged
          (read_file (Filename.concat dir prefix ^ ".out"));
        for k = 0 to 1 do
          check_string
            (Printf.sprintf "cut %d: segment %d byte-identical" cut k)
            (want_seg k)
            (read_file
               (Shard.segment_path (Filename.concat dir prefix ^ ".out") k))
        done
      done)

let test_resume_truncates_torn_tail () =
  in_tmp (fun dir ->
      let n = 8 in
      let input = Filename.concat dir "input.jsonl" in
      write_file input (String.concat "\n" (input_lines n) ^ "\n");
      (* no snapshots: recovery leans on the journal segments alone, so
         we may tear real bytes off a segment, not just garbage *)
      ignore
        (run_ok
           (shard_cfg ~dir ~prefix:"full" ~input ~snapshot:false ())
           (scfg "first-fit"));
      let want = read_file (Filename.concat dir "full.out") in
      (* crash at 5, then wound segment 0 twice: garbage with no newline
         (a decision line torn mid-write), and a real line chopped *)
      ignore
        (run_ok
           (shard_cfg ~dir ~prefix:"cut" ~input ~snapshot:false
              ~max_arrivals:5 ())
           (scfg "first-fit"));
      let seg0 = Shard.segment_path (Filename.concat dir "cut.out") 0 in
      let bytes = read_file seg0 in
      let torn =
        String.sub bytes 0 (String.length bytes - 3) ^ "{\"seq\":99"
      in
      write_file seg0 torn;
      let stats =
        run_ok
          (shard_cfg ~dir ~prefix:"cut" ~input ~snapshot:false ~resume:true ())
          (scfg "first-fit")
      in
      check_string "merged byte-identical after torn-tail truncation" want
        (read_file (Filename.concat dir "cut.out"));
      check_bool "the torn entries were re-decided live" true
        (stats.Daemon.emitted > n - 5))

let test_malformed_lines_counted_once () =
  in_tmp (fun dir ->
      let n = 8 in
      let good = input_lines n in
      let all =
        List.concat_map
          (fun (i, l) -> if i mod 3 = 1 then [ "{torn"; l ] else [ l ])
          (List.mapi (fun i l -> (i, l)) good)
      in
      let input = Filename.concat dir "input.jsonl" in
      write_file input (String.concat "\n" all ^ "\n");
      let stats =
        run_ok (shard_cfg ~dir ~prefix:"run" ~input ()) (scfg "first-fit")
      in
      check_int "malformed lines skipped" 3 stats.Daemon.skipped;
      check_int "well-formed lines decided" n stats.Daemon.emitted;
      check_int "merged has decision lines only" n
        (List.length (lines_of (read_file (Filename.concat dir "run.out")))))

let test_routes_pin_tenants () =
  in_tmp (fun dir ->
      let n = 12 in
      let input = Filename.concat dir "input.jsonl" in
      write_file input (String.concat "\n" (input_lines n) ^ "\n");
      let routes = [ ("t0", 1); ("t1", 0) ] in
      let cfg = shard_cfg ~dir ~prefix:"run" ~input ~routes () in
      ignore (run_ok cfg (scfg "first-fit"));
      let merged = lines_of (read_file (Filename.concat dir "run.out")) in
      List.iteri
        (fun i line ->
          match tenant_of i with
          | Some "t0" -> check_int "t0 pinned to 1" 1 (fst (shard_label line))
          | Some "t1" -> check_int "t1 pinned to 0" 0 (fst (shard_label line))
          | _ -> ())
        merged)

let test_config_rejections () =
  in_tmp (fun dir ->
      let input = Filename.concat dir "input.jsonl" in
      write_file input "";
      let base = shard_cfg ~dir ~prefix:"x" ~input () in
      (match Shard.run { base with Shard.shards = 0 } (scfg "first-fit") with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "zero shards accepted");
      (match
         Shard.run
           { base with Shard.routes = [ ("t", 9) ] }
           (scfg "first-fit")
       with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "out-of-range route accepted");
      match
        Shard.run
          { base with Shard.base = { base.Shard.base with Daemon.output = "-" } }
          (scfg "first-fit")
      with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "stdout output accepted in sharded mode")

(* ---- Daemon.run and Shard.run: the shared serve lifecycle --------------- *)

(* The unsharded daemon driven in-process, the way Shard.run is above:
   same workload, same helpers, one output file instead of segments. *)
let daemon_cfg ?(resume = false) ?max_arrivals ?(snapshot = true) ~dir ~prefix
    ~input () =
  let p name = Filename.concat dir (prefix ^ name) in
  {
    Daemon.default_config with
    Daemon.input = Daemon.In_file input;
    output = p ".out";
    snapshot_path = (if snapshot then Some (p ".snap") else None);
    resume;
    max_arrivals;
  }

let daemon_ok cfg sc =
  match Daemon.run cfg sc with
  | Ok stats -> stats
  | Error e -> Alcotest.failf "Daemon.run failed: %s" e

let write_input dir n =
  let input = Filename.concat dir "input.jsonl" in
  write_file input (String.concat "\n" (input_lines n) ^ "\n");
  input

(* Clean cuts: a run stopped by its arrival budget (final snapshot
   included), then resumed over the whole input.  Cut 0 is a daemon
   that never ran: --resume must start fresh, not die on the missing
   journal. *)
let test_daemon_resume_at_every_cut_point () =
  in_tmp (fun dir ->
      let n = 10 in
      let input = write_input dir n in
      List.iter
        (fun snapshot ->
          let sc () = scfg ~snapshot_every:2 "first-fit" in
          let tag = if snapshot then "snap" else "nosnap" in
          ignore
            (daemon_ok
               (daemon_cfg ~dir ~prefix:(tag ^ "full") ~snapshot ~input ())
               (sc ()));
          let want = read_file (Filename.concat dir (tag ^ "full.out")) in
          check_int (tag ^ ": full run decided every line") n
            (List.length (lines_of want));
          for cut = 0 to n do
            let prefix = Printf.sprintf "%scut%d" tag cut in
            if cut > 0 then
              ignore
                (daemon_ok
                   (daemon_cfg ~dir ~prefix ~snapshot ~input ~max_arrivals:cut
                      ())
                   (sc ()));
            let stats =
              daemon_ok
                (daemon_cfg ~dir ~prefix ~snapshot ~input ~resume:true ())
                (sc ())
            in
            let what = Printf.sprintf "%s cut %d" tag cut in
            check_int (what ^ ": journal replayed") cut stats.Daemon.replayed;
            check_int (what ^ ": live emits cover the rest") (n - cut)
              stats.Daemon.emitted;
            check_bool
              (what ^ ": resumed from the snapshot iff one was cut")
              (snapshot && cut > 0)
              (Option.is_some stats.Daemon.resumed_from);
            check_string (what ^ ": output byte-identical") want
              (read_file (Filename.concat dir (prefix ^ ".out")))
          done)
        [ true; false ])

(* The --max-arrivals budget means the same on both daemons: a budget of
   k feeds exactly min(k, lines) lines, so "lines in", the journal bytes
   and the summary agree with --shards 1 for every k, 0 included. *)
let test_max_arrivals_same_on_both_daemons () =
  in_tmp (fun dir ->
      let n = 6 in
      let input = write_input dir n in
      List.iter
        (fun k ->
          let tag = Printf.sprintf "k%d" k in
          let u =
            daemon_ok
              (daemon_cfg ~dir ~prefix:(tag ^ "u") ~snapshot:false
                 ~max_arrivals:k ~input ())
              (scfg "first-fit")
          in
          let s =
            run_ok
              (shard_cfg ~shards:1 ~dir ~prefix:(tag ^ "s") ~snapshot:false
                 ~max_arrivals:k ~input ())
              (scfg "first-fit")
          in
          check_int (tag ^ ": lines in") (min k n) u.Daemon.lines;
          check_int (tag ^ ": lines in, --shards 1") u.Daemon.lines
            s.Daemon.lines;
          check_bool (tag ^ ": same summary") true (u = s);
          check_string (tag ^ ": same journal bytes")
            (read_file (Filename.concat dir (tag ^ "u.out")))
            (read_file (Shard.segment_path (Filename.concat dir (tag ^ "s.out")) 0)))
        [ 0; 1; 2; n ])

let test_daemon_resume_truncates_torn_tail () =
  in_tmp (fun dir ->
      let n = 8 in
      let input = write_input dir n in
      ignore
        (daemon_ok
           (daemon_cfg ~dir ~prefix:"full" ~snapshot:false ~input ())
           (scfg "first-fit"));
      let want = read_file (Filename.concat dir "full.out") in
      ignore
        (daemon_ok
           (daemon_cfg ~dir ~prefix:"cut" ~snapshot:false ~max_arrivals:5
              ~input ())
           (scfg "first-fit"));
      (* wound the journal twice: a real line chopped, then garbage
         with no newline (a decision line torn mid-write) *)
      let out = Filename.concat dir "cut.out" in
      let bytes = read_file out in
      write_file out
        (String.sub bytes 0 (String.length bytes - 3) ^ "{\"seq\":99");
      let stats =
        daemon_ok
          (daemon_cfg ~dir ~prefix:"cut" ~snapshot:false ~resume:true ~input ())
          (scfg "first-fit")
      in
      check_int "the intact prefix replayed" 4 stats.Daemon.replayed;
      check_int "the torn entry was re-decided live" (n - 4)
        stats.Daemon.emitted;
      check_string "output byte-identical after torn-tail truncation" want
        (read_file out))

(* A supervisor that always passes --resume must be able to start a
   daemon that never wrote its journal, sharded or not. *)
let test_resume_without_journal_starts_fresh () =
  in_tmp (fun dir ->
      let n = 6 in
      let input = write_input dir n in
      ignore
        (daemon_ok (daemon_cfg ~dir ~prefix:"ref" ~input ()) (scfg "first-fit"));
      let stats =
        daemon_ok
          (daemon_cfg ~dir ~prefix:"fresh" ~resume:true ~input ())
          (scfg "first-fit")
      in
      check_int "unsharded: nothing replayed" 0 stats.Daemon.replayed;
      check_string "unsharded: same bytes as a plain run"
        (read_file (Filename.concat dir "ref.out"))
        (read_file (Filename.concat dir "fresh.out"));
      ignore
        (run_ok (shard_cfg ~dir ~prefix:"sref" ~input ()) (scfg "first-fit"));
      let stats =
        run_ok
          (shard_cfg ~dir ~prefix:"sfresh" ~resume:true ~input ())
          (scfg "first-fit")
      in
      check_int "sharded: nothing replayed" 0 stats.Daemon.replayed;
      check_string "sharded: same merged bytes as a plain run"
        (read_file (Filename.concat dir "sref.out"))
        (read_file (Filename.concat dir "sfresh.out")))

let expect_error what want = function
  | Ok _ -> Alcotest.failf "%s: accepted" what
  | Error got -> check_string what want got

(* The three ways resume setup refuses to start, on both daemons; each
   message names the file (and the shard, when sharded). *)
let test_resume_setup_errors () =
  in_tmp (fun dir ->
      let n = 8 in
      let input = write_input dir n in
      let p name = Filename.concat dir name in
      (* a snapshot cut by another algorithm *)
      ignore
        (daemon_ok
           (daemon_cfg ~dir ~prefix:"u" ~input ())
           (scfg ~snapshot_every:2 "first-fit"));
      expect_error "unsharded: algorithm mismatch"
        (Printf.sprintf
           "serve: snapshot %s was cut by algorithm first-fit, not best-fit"
           (p "u.snap"))
        (Daemon.run
           (daemon_cfg ~dir ~prefix:"u" ~resume:true ~input ())
           (scfg ~snapshot_every:2 "best-fit"));
      ignore
        (run_ok (shard_cfg ~dir ~prefix:"s" ~input ())
           (scfg ~snapshot_every:2 "first-fit"));
      expect_error "sharded: algorithm mismatch"
        (Printf.sprintf
           "serve: shard 0 snapshot %s was cut by algorithm first-fit, not \
            best-fit"
           (p "s.snap.shard0"))
        (Shard.run
           (shard_cfg ~dir ~prefix:"s" ~resume:true ~input ())
           (scfg ~snapshot_every:2 "best-fit"));
      (* a snapshot cursor past a journal that is gone *)
      Sys.remove (p "u.out");
      expect_error "unsharded: journal missing"
        (Printf.sprintf
           "serve: snapshot cursor is %d but the journal %s is missing" n
           (p "u.out"))
        (Daemon.run
           (daemon_cfg ~dir ~prefix:"u" ~resume:true ~input ())
           (scfg ~snapshot_every:2 "first-fit"));
      let seg0 = Shard.segment_path (p "s.out") 0 in
      let seg0_lines = List.length (lines_of (read_file seg0)) in
      Sys.remove seg0;
      expect_error "sharded: journal missing"
        (Printf.sprintf
           "serve: shard 0 snapshot cursor is %d but the journal %s is missing"
           seg0_lines seg0)
        (Shard.run
           (shard_cfg ~dir ~prefix:"s" ~resume:true ~input ())
           (scfg ~snapshot_every:2 "first-fit"));
      (* --resume with the output on stdout *)
      expect_error "unsharded: resume to stdout"
        "serve: --resume needs --output FILE (the output is the journal)"
        (Daemon.run
           {
             (daemon_cfg ~dir ~prefix:"o" ~resume:true ~input ()) with
             Daemon.output = "-";
           }
           (scfg "first-fit"));
      let base = shard_cfg ~dir ~prefix:"o" ~resume:true ~input () in
      expect_error "sharded: resume to stdout"
        "serve: sharded mode needs --output FILE (journal segments derive \
         from it)"
        (Shard.run
           { base with Shard.base = { base.Shard.base with Daemon.output = "-" } }
           (scfg "first-fit")))

(* The fd the next open gets: equal before and after a batch of runs
   iff the runs closed every descriptor they opened. *)
let next_fd path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in (* dbp-lint: allow R9 fd-leak probe *)
  Unix.close fd; (* dbp-lint: allow R9 fd-leak probe *)
  fd

(* A resume fed the wrong input diverges on its first journal entry;
   the journal reader must still be closed, on every segment. *)
let test_diverging_resume_closes_journal () =
  in_tmp (fun dir ->
      let n = 6 in
      let input = write_input dir n in
      let other = Filename.concat dir "other.jsonl" in
      write_file other
        (String.concat "\n"
           (List.map
              (fun i ->
                Arrival.render
                  (Item.make ~id:(100 + i) ~size:0.5 ~arrival:(float_of_int i)
                     ~departure:(float_of_int i +. 2.)))
              (List.init n Fun.id))
        ^ "\n");
      ignore
        (daemon_ok
           (daemon_cfg ~dir ~prefix:"u" ~snapshot:false ~input ())
           (scfg "first-fit"));
      ignore
        (run_ok (shard_cfg ~dir ~prefix:"s" ~snapshot:false ~input ())
           (scfg "first-fit"));
      let before = next_fd input in
      for _ = 1 to 50 do
        (match
           Daemon.run
             (daemon_cfg ~dir ~prefix:"u" ~snapshot:false ~resume:true
                ~input:other ())
             (scfg "first-fit")
         with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "unsharded resume on the wrong input succeeded");
        match
          Shard.run
            (shard_cfg ~dir ~prefix:"s" ~snapshot:false ~resume:true
               ~input:other ())
            (scfg "first-fit")
        with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "sharded resume on the wrong input succeeded"
      done;
      check_bool "no descriptor leaked by 50 diverging resumes of each daemon"
        true
        (next_fd input = before))

(* ---- HTTP: total parsers and the hostile-client listener ---------------- *)

let prop_http_total =
  qtest ~count:500 "request_complete/parse_request never raise" gen_any_bytes
    (fun s ->
      (match Http.request_complete s with Some _ | None -> true)
      && match Http.parse_request s with Ok _ | Error _ -> true)

let test_http_framing () =
  check_bool "CRLF terminator" true
    (Http.request_complete "GET / HTTP/1.0\r\nHost: x\r\n\r\n" <> None);
  check_bool "bare LF terminator" true
    (Http.request_complete "GET / HTTP/1.0\n\n" <> None);
  check_bool "incomplete headers" true
    (Http.request_complete "GET / HTTP/1.0\r\nHost:" = None);
  check_bool "empty buffer" true (Http.request_complete "" = None)

let test_http_parse_request () =
  (match Http.parse_request "GET /metrics HTTP/1.0\r\n\r\n" with
  | Ok { Http.meth = "GET"; path = "/metrics" } -> ()
  | Ok _ -> Alcotest.fail "wrong parse"
  | Error e -> Alcotest.failf "unexpected: %s" e);
  List.iter
    (fun bad ->
      match Http.parse_request bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" bad)
    [
      "NOT A REQUEST\r\n\r\n";
      "GET metrics HTTP/1.0\r\n\r\n";
      "GET /x FTP/1.0\r\n\r\n";
      "G@T /x HTTP/1.0\r\n\r\n";
      "\r\n\r\n";
    ]

let test_http_response_shape () =
  let r = Http.response ~status:200 "ok" in
  check_bool "status line" true
    (String.length r > 15 && String.equal (String.sub r 0 15) "HTTP/1.0 200 OK");
  check_bool "content length" true
    (Str_exists.contains_substring r "Content-Length: 2");
  check_bool "connection close" true
    (Str_exists.contains_substring r "Connection: close")

(* Prometheus scrapers key format detection off this exact string; pin
   it so a refactor can't silently drift the /metrics content type. *)
let test_metrics_response_content_type () =
  check_string "content type pinned"
    "text/plain; version=0.0.4; charset=utf-8" Http.prometheus_content_type;
  let r = Http.metrics_response "x 1\n" in
  check_bool "header on /metrics responses" true
    (Str_exists.contains_substring r
       "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n");
  check_bool "body intact" true (Str_exists.contains_substring r "\r\n\r\nx 1\n")

(* Drive a real listener from a loopback client.  [service] is
   non-blocking, so pump it between client-side socket operations. *)
let with_listener ?max_clients ?max_request ?max_rounds ~respond f =
  let t = Http_listener.create ?max_clients ?max_request ?max_rounds ~port:0 () in
  Fun.protect
    ~finally:(fun () -> Http_listener.close t)
    (fun () ->
      let pump () =
        for _ = 1 to 20 do
          Http_listener.service t ~respond
        done
      in
      f t pump)

(* The test plays the hostile network peer, so it needs a real client
   socket — R9-allowed here, line by line, because only lib/serve may
   hold this kind of fd in shipping code. *)
let connect t =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in (* dbp-lint: allow R9 test client socket *)
  Unix.connect fd (* dbp-lint: allow R9 test client socket *)
    (Unix.ADDR_INET (Unix.inet_addr_loopback, Http_listener.port t)) (* dbp-lint: allow R9 test client socket *);
  fd

let send fd s = ignore (Unix.write_substring fd s 0 (String.length s)) (* dbp-lint: allow R9 test client socket *)

let recv_all fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 1024 in
  let rec go () =
    match Unix.read fd chunk 0 1024 with (* dbp-lint: allow R9 test client socket *)
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
  in
  go ();
  Buffer.contents buf

let status_of response =
  if String.length response >= 12 then String.sub response 9 3 else response

let test_listener_serves_and_rejects () =
  let respond (req : Http.request) =
    if String.equal req.Http.path "/healthz" then Http.response ~status:200 "ok"
    else Http.response ~status:404 (Http.status_text 404)
  in
  with_listener ~respond (fun t pump ->
      (* two concurrent clients: one well-formed, one garbage *)
      let good = connect t in
      let bad = connect t in
      send good "GET /healthz HTTP/1.0\r\n\r\n";
      send bad "NOT A REQUEST\r\n\r\n";
      pump ();
      let good_resp = recv_all good in
      let bad_resp = recv_all bad in
      Unix.close good; (* dbp-lint: allow R9 test client socket *)
      Unix.close bad; (* dbp-lint: allow R9 test client socket *)
      check_string "healthz answered" "200" (status_of good_resp);
      check_bool "body delivered" true
        (Str_exists.contains_substring good_resp "ok");
      check_string "garbage got 400" "400" (status_of bad_resp))

let test_listener_caps_request_size () =
  let respond _ = Http.response ~status:200 "never" in
  with_listener ~max_request:64 ~respond (fun t pump ->
      let fd = connect t in
      send fd (String.make 200 'x');
      pump ();
      let resp = recv_all fd in
      Unix.close fd; (* dbp-lint: allow R9 test client socket *)
      check_string "oversized request got 431" "431" (status_of resp))

let test_listener_sheds_slowloris () =
  let respond _ = Http.response ~status:200 "never" in
  with_listener ~max_rounds:5 ~respond (fun t pump ->
      let fd = connect t in
      send fd "GE";
      (* never completes the request: the round budget runs out and the
         listener drops the connection *)
      pump ();
      pump ();
      check_int "client shed, only the listening socket remains" 1
        (List.length (Http_listener.fds t));
      let resp = recv_all fd in
      Unix.close fd; (* dbp-lint: allow R9 test client socket *)
      check_string "connection closed without a response" "" resp)

(* ---- SIGPIPE: a client that hangs up without reading ------------------ *)

(* The daemon under test is the real binary in a child process: if a
   write to a vanished peer raised SIGPIPE, it is the child that dies,
   not the test runner.  The client side here needs real sockets and a
   real process — R9-allowed line by line, as for the HTTP client above. *)
let dbp_exe = Filename.concat (Filename.concat ".." "bin") "dbp.exe"

(* Connect, retrying while the daemon is between bind and listen. *)
let connect_unix path =
  let rec go attempt =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in (* dbp-lint: allow R9 test client socket *)
    match Unix.connect fd (Unix.ADDR_UNIX path) with (* dbp-lint: allow R9 test client socket *)
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when attempt < 500 ->
        Unix.close fd; (* dbp-lint: allow R9 test client socket *)
        Unix.sleepf 0.01; (* dbp-lint: allow R9 test polls the child *)
        go (attempt + 1)
  in
  go 0

(* Write everything, or stop at the first broken-pipe error: the exit
   status checked afterwards says whether the daemon survived. *)
let send_all fd s =
  let rec go off =
    if off < String.length s then
      match Unix.write_substring fd s off (String.length s - off) with (* dbp-lint: allow R9 test client socket *)
      | k -> go (off + k)
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
  in
  go 0

(* Reap the child within about 30 s, or kill it and fail. *)
let wait_child pid =
  let rec go attempt =
    match Unix.waitpid [ Unix.WNOHANG ] pid with (* dbp-lint: allow R9 test reaps its child *)
    | 0, _ when attempt < 3000 ->
        Unix.sleepf 0.01; (* dbp-lint: allow R9 test polls the child *)
        go (attempt + 1)
    | 0, _ ->
        Unix.kill pid Sys.sigkill; (* dbp-lint: allow R9 test reaps its child *)
        ignore (Unix.waitpid [] pid); (* dbp-lint: allow R9 test reaps its child *)
        Alcotest.fail "daemon still running 30 s after its client left"
    | _, status -> status
  in
  go 0

let status_to_string = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

let test_socket_daemon_survives_client_hangup () =
  in_tmp (fun dir ->
      let n = 1130 in
      let sock = Filename.concat dir "ingest.sock" in
      let out = Filename.concat dir "out.jsonl" in
      let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in (* dbp-lint: allow R9 test child stdio *)
      let pid =
        Unix.create_process dbp_exe (* dbp-lint: allow R9 test spawns the daemon *)
          [| dbp_exe; "serve"; "--socket"; sock; "--output"; out;
             "--max-arrivals"; string_of_int n |]
          null null null
      in
      Unix.close null; (* dbp-lint: allow R9 test child stdio *)
      (* The test runner is a client too: its own writes must not raise
         SIGPIPE should the daemon be gone. *)
      let prev = Sys.signal Sys.sigpipe Sys.Signal_ignore in (* dbp-lint: allow R9 test client ignores SIGPIPE *)
      let status =
        Fun.protect
          ~finally:(fun () -> Sys.set_signal Sys.sigpipe prev) (* dbp-lint: allow R9 test client ignores SIGPIPE *)
          (fun () ->
            let fd = connect_unix sock in
            send_all fd (String.concat "\n" (input_lines n) ^ "\n");
            (* hang up at once, every echo unread *)
            Unix.close fd; (* dbp-lint: allow R9 test client socket *)
            wait_child pid)
      in
      check_string "daemon exit status" "exit 0" (status_to_string status);
      check_int "every decision made reached the journal" n
        (List.length (lines_of (read_file out)));
      check_bool "socket file removed" false (Sys.file_exists sock))

(* Both daemons ignore SIGPIPE while they run, and put back whatever
   disposition they found. *)
let test_sigpipe_disposition_restored () =
  in_tmp (fun dir ->
      let input = write_input dir 6 in
      let is_default = function Sys.Signal_default -> true | _ -> false in
      let prev = Sys.signal Sys.sigpipe Sys.Signal_default in (* dbp-lint: allow R9 test inspects the disposition *)
      Fun.protect
        ~finally:(fun () -> Sys.set_signal Sys.sigpipe prev) (* dbp-lint: allow R9 test inspects the disposition *)
        (fun () ->
          ignore
            (daemon_ok (daemon_cfg ~dir ~prefix:"u" ~input ()) (scfg "first-fit"));
          check_bool "unsharded: SIGPIPE disposition restored" true
            (is_default (Sys.signal Sys.sigpipe Sys.Signal_default)); (* dbp-lint: allow R9 test inspects the disposition *)
          ignore (run_ok (shard_cfg ~dir ~prefix:"s" ~input ()) (scfg "first-fit"));
          check_bool "sharded: SIGPIPE disposition restored" true
            (is_default (Sys.signal Sys.sigpipe Sys.Signal_default)))) (* dbp-lint: allow R9 test inspects the disposition *)

(* ---- per-arrival spans through the daemons ----------------------------- *)

let span_fields line =
  match Json_lite.parse_object line with
  | Ok fields -> fields
  | Error e -> Alcotest.failf "bad span line %S: %s" line e

let require_fields line fields keys =
  List.iter
    (fun k ->
      if Json_lite.field fields k = None then
        Alcotest.failf "span line missing %S: %s" k line)
    keys

let span_seq line =
  match Json_lite.int_field (span_fields line) "seq" with
  | Ok v -> v
  | Error e -> Alcotest.failf "span line %S: %s" line e

let test_daemon_span_log () =
  in_tmp (fun dir ->
      let n = 10 in
      let input = Filename.concat dir "input.jsonl" in
      write_file input (String.concat "\n" (input_lines n) ^ "\n");
      let span_out = Filename.concat dir "spans.jsonl" in
      let cfg =
        {
          Daemon.default_config with
          Daemon.input = Daemon.In_file input;
          output = Filename.concat dir "out.jsonl";
          span_sample = 4;
          span_out = Some span_out;
        }
      in
      (match Daemon.run cfg (scfg "first-fit") with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "Daemon.run: %s" e);
      let spans = lines_of (read_file span_out) in
      check_int "every 4th arrival sampled" 3 (List.length spans);
      Alcotest.(check (list int))
        "seq-keyed stride" [ 0; 4; 8 ] (List.map span_seq spans);
      List.iter
        (fun l ->
          let fields = span_fields l in
          require_fields l fields
            [ "seq"; "shard"; "depth"; "t"; "parse"; "admission"; "engine" ];
          (* no router/mailbox/sequencer in the unsharded pipeline *)
          List.iter
            (fun k ->
              if Json_lite.field fields k <> None then
                Alcotest.failf "unsharded span has %S: %s" k l)
            [ "route"; "mailbox"; "merge" ])
        spans)

let test_sharded_span_log () =
  in_tmp (fun dir ->
      let n = 20 in
      let input = Filename.concat dir "input.jsonl" in
      write_file input (String.concat "\n" (input_lines n) ^ "\n");
      let span_out = Filename.concat dir "spans.jsonl" in
      let base = shard_cfg ~dir ~prefix:"sp" ~input () in
      let cfg =
        {
          base with
          Shard.base =
            {
              base.Shard.base with
              Daemon.span_sample = 3;
              span_out = Some span_out;
            };
        }
      in
      ignore (run_ok cfg (scfg "first-fit"));
      let spans = lines_of (read_file span_out) in
      (* gidx-keyed sampling, committed in merge order: ceil(20/3)
         spans, seqs 0, 3, ..., 18 ascending. *)
      Alcotest.(check (list int))
        "gidx-keyed, merge-ordered"
        (List.init 7 (fun i -> 3 * i))
        (List.map span_seq spans);
      let router = Router.create ~shards:2 () in
      List.iter
        (fun l ->
          let fields = span_fields l in
          require_fields l fields
            [
              "seq"; "shard"; "depth"; "t"; "parse"; "route"; "mailbox";
              "admission"; "engine"; "journal"; "merge";
            ];
          (* the shard stamped into the ticket is the router's *)
          let seq = span_seq l in
          let expected =
            Router.shard_for router
              (match tenant_of seq with
              | Some t -> t
              | None -> Router.default_tenant)
          in
          match Json_lite.int_field fields "shard" with
          | Ok k -> check_int (Printf.sprintf "span %d shard" seq) expected k
          | Error e -> Alcotest.fail e)
        spans)

let suite =
  [
    prop_router_stable;
    prop_router_divisibility;
    prop_hash_sub;
    Alcotest.test_case "overrides win and are validated" `Quick
      test_router_overrides;
    Alcotest.test_case "override file parsing" `Quick test_parse_overrides;
    prop_parse_overrides_total;
    prop_parse_into_differential_bytes;
    prop_parse_into_rendered;
    Alcotest.test_case "parse_into agrees on hostile bytes" `Quick
      test_parse_into_hostile_bytes;
    prop_shard_for_consistent;
    prop_render_into;
    Alcotest.test_case "render_into batches lines" `Quick
      test_render_into_batches;
    Alcotest.test_case "merged stream: labels, order, segments" `Quick
      test_sharded_run_merge_and_segments;
    Alcotest.test_case "segments = router-filtered unsharded runs" `Quick
      test_segments_match_filtered_unsharded;
    Alcotest.test_case "resume byte-identical at every cut point" `Quick
      test_resume_at_every_cut_point;
    Alcotest.test_case "resume truncates a torn segment tail" `Quick
      test_resume_truncates_torn_tail;
    Alcotest.test_case "malformed lines skip on shard 0" `Quick
      test_malformed_lines_counted_once;
    Alcotest.test_case "route overrides pin tenants to shards" `Quick
      test_routes_pin_tenants;
    Alcotest.test_case "config defects are structured errors" `Quick
      test_config_rejections;
    Alcotest.test_case "daemon resume byte-identical at every cut point"
      `Quick test_daemon_resume_at_every_cut_point;
    Alcotest.test_case "--max-arrivals: same budget on both daemons" `Quick
      test_max_arrivals_same_on_both_daemons;
    Alcotest.test_case "daemon resume truncates a torn journal tail" `Quick
      test_daemon_resume_truncates_torn_tail;
    Alcotest.test_case "--resume without a journal starts fresh" `Quick
      test_resume_without_journal_starts_fresh;
    Alcotest.test_case "resume setup errors name file and shard" `Quick
      test_resume_setup_errors;
    Alcotest.test_case "diverging resumes close their journals" `Quick
      test_diverging_resume_closes_journal;
    Alcotest.test_case "socket daemon survives a client hang-up (SIGPIPE)"
      `Quick test_socket_daemon_survives_client_hangup;
    Alcotest.test_case "SIGPIPE disposition restored on exit" `Quick
      test_sigpipe_disposition_restored;
    prop_http_total;
    Alcotest.test_case "request framing" `Quick test_http_framing;
    Alcotest.test_case "request-line parsing" `Quick test_http_parse_request;
    Alcotest.test_case "response shape" `Quick test_http_response_shape;
    Alcotest.test_case "/metrics content type pinned" `Quick
      test_metrics_response_content_type;
    Alcotest.test_case "unsharded daemon span log" `Quick test_daemon_span_log;
    Alcotest.test_case "sharded daemon span log" `Quick test_sharded_span_log;
    Alcotest.test_case "listener serves two clients, rejects garbage" `Quick
      test_listener_serves_and_rejects;
    Alcotest.test_case "listener caps request size (431)" `Quick
      test_listener_caps_request_size;
    Alcotest.test_case "listener sheds slowloris clients" `Quick
      test_listener_sheds_slowloris;
  ]
