(* The semantic lint phase (R10-R12): fixtures are copied into a temp
   tree laid out like the repo (lib/sim/, lib/serve/), compiled to .cmt
   with ocamlc -bin-annot, and linted from inside the tree so the typed
   rules see real resolved paths and real artifacts.  Positions are
   pinned exactly; the meta tests at the end verify the shipped lib/ is
   R10-R12 clean and that every documented-total parser carries
   [@dbp.total]. *)

open Dbp_lint

let fixture name = Filename.concat "fixtures/lint_sem" name

(* (rule, line, col) triples, in reported order. *)
let hits = Alcotest.(list (triple string int int))

let hits_of findings =
  List.map (fun f -> (Finding.rule f, Finding.line f, Finding.col f)) findings

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let rec mkdir_p dir =
  if dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* Copy fixtures ((name, dest-relative path, compile?) triples) into a
   fresh temp tree, compile the flagged ones to side-by-side .cmt
   artifacts, chdir into the tree and run [f].  Compiling from inside
   the tree keeps artifact locations root-relative, matching what the
   driver reports. *)
let with_corpus files f =
  let dir = Filename.temp_dir "dbp_lint_sem" "" in
  let cwd = Sys.getcwd () in
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir cwd;
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () ->
      List.iter
        (fun (name, dest, _) ->
          let target = Filename.concat dir dest in
          mkdir_p (Filename.dirname target);
          write_file target (read_file (fixture name)))
        files;
      Sys.chdir dir;
      List.iter
        (fun (_, dest, compile) ->
          if compile then
            let cmd =
              Printf.sprintf "ocamlc -bin-annot -c -I +unix %s 2>/dev/null"
                (Filename.quote dest)
            in
            if Sys.command cmd <> 0 then
              Alcotest.failf "fixture %s does not compile" dest)
        files;
      f ())

let sem ~rules roots = Driver.lint_tree ~semantic:true ~rules roots

let message_has f needle =
  Alcotest.(check bool)
    (Printf.sprintf "message mentions %S" needle)
    true
    (Str_exists.contains_substring (Finding.message f) needle)

let hint_has f needle =
  Alcotest.(check bool)
    (Printf.sprintf "hint mentions %S" needle)
    true
    (Str_exists.contains_substring (Finding.hint f) needle)

let test_r10_alias () =
  with_corpus
    [ ("alias_unix.ml", "lib/sim/alias_unix.ml", true) ]
    (fun () ->
      match sem ~rules:[ "R10" ] [ "lib" ] with
      | [ f ] as findings ->
          Alcotest.check hits "exactly one R10 at the aliased use"
            [ ("R10", 4, 13) ] (hits_of findings);
          message_has f "Unix.getpid";
          message_has f "resolved from U.getpid"
      | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs))

let test_r10_open () =
  with_corpus
    [ ("open_clock.ml", "lib/sim/open_clock.ml", true) ]
    (fun () ->
      match sem ~rules:[ "R10" ] [ "lib" ] with
      | [ f ] as findings ->
          Alcotest.check hits "exactly one R10 at the opened clock read"
            [ ("R10", 5, 13) ] (hits_of findings);
          message_has f "Unix.gettimeofday";
          message_has f "resolved from gettimeofday"
      | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs))

let test_r11_total_raises () =
  with_corpus
    [ ("total_raises.ml", "lib/sim/total_raises.ml", true) ]
    (fun () ->
      match sem ~rules:[ "R11" ] [ "lib" ] with
      | [ f ] as findings ->
          Alcotest.check hits "exactly one R11 at the definition"
            [ ("R11", 3, 0) ] (hits_of findings);
          message_has f "may raise: Failure";
          hint_has f "call to List.hd"
      | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs))

let test_r11_caught_is_clean () =
  with_corpus
    [ ("caught_total.ml", "lib/sim/caught_total.ml", true) ]
    (fun () ->
      Alcotest.check hits "caught exception leaves no residual" []
        (hits_of (sem ~rules:[ "R10"; "R11"; "R12" ] [ "lib" ])))

let test_r12_randomness () =
  with_corpus
    [ ("session.ml", "lib/serve/session.ml", true) ]
    (fun () ->
      match sem ~rules:[ "R12" ] [ "lib" ] with
      | [ direct; transitive ] as findings ->
          Alcotest.check hits "both decision-path defs flagged"
            [ ("R12", 3, 0); ("R12", 5, 0) ]
            (hits_of findings);
          message_has direct "randomness";
          hint_has direct "Random.float";
          (* the second finding's taint is one call away; the hint walks
             the chain through the tainted callee *)
          hint_has transitive "Session.jitter";
          hint_has transitive "Random.float"
      | fs -> Alcotest.failf "expected two findings, got %d" (List.length fs))

(* PR 9 designations: router.ml and http.ml joined r12_targets, so a
   seeded taint compiled at those paths must surface — proving the
   table entries actually cover the new modules. *)
let test_r12_router_designated () =
  with_corpus
    [ ("router_tainted.ml", "lib/serve/router.ml", true) ]
    (fun () ->
      match sem ~rules:[ "R12" ] [ "lib" ] with
      | [ f ] as findings ->
          Alcotest.check hits "one R12 at the tainted router def"
            [ ("R12", 4, 0) ] (hits_of findings);
          message_has f "wall-clock";
          hint_has f "Unix.gettimeofday"
      | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs))

let test_r12_http_designated () =
  with_corpus
    [ ("http_tainted.ml", "lib/serve/http.ml", true) ]
    (fun () ->
      match sem ~rules:[ "R12" ] [ "lib" ] with
      | [ f ] as findings ->
          Alcotest.check hits "one R12 at the tainted parser def"
            [ ("R12", 6, 0) ] (hits_of findings);
          message_has f "concurrency";
          hint_has f "Domain.spawn"
      | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs))

(* PR 10 designation: analyze.ml joined r12_targets (the span-pipeline
   reporter must stay byte-deterministic), same proof obligation. *)
let test_r12_analyze_designated () =
  with_corpus
    [ ("analyze_tainted.ml", "lib/serve/analyze.ml", true) ]
    (fun () ->
      match sem ~rules:[ "R12" ] [ "lib" ] with
      | [ f ] as findings ->
          Alcotest.check hits "one R12 at the tainted reporter def"
            [ ("R12", 5, 0) ] (hits_of findings);
          message_has f "wall-clock";
          hint_has f "Unix.gettimeofday"
      | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs))

let test_semantic_suppression () =
  with_corpus
    [ ("suppressed_alias.ml", "lib/sim/suppressed_alias.ml", true) ]
    (fun () ->
      Alcotest.check hits
        "allow R10 covers the resolved-use site, marker counted as used"
        []
        (hits_of (sem ~rules:[ "R0"; "R10" ] [ "lib" ])))

let test_unused_semantic_marker () =
  with_corpus
    [ ("unused_allow.ml", "lib/sim/unused_allow.ml", true) ]
    (fun () ->
      match sem ~rules:[ "R0"; "R11" ] [ "lib" ] with
      | [ f ] as findings ->
          Alcotest.check hits "stale allow R11 surfaces as R0"
            [ ("R0", 1, 0) ] (hits_of findings);
          message_has f "unused suppression for R11"
      | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs))

let test_c0_missing_artifact () =
  with_corpus
    [ ("alias_unix.ml", "lib/sim/alias_unix.ml", false) ]
    (fun () ->
      match sem ~rules:[ "R10" ] [ "lib" ] with
      | [ f ] ->
          Alcotest.(check string)
            "C0 passes the rule filter" "C0" (Finding.rule f);
          message_has f "no .cmt artifact"
      | fs -> Alcotest.failf "expected one C0, got %d" (List.length fs))

let test_c0_stale_artifact () =
  with_corpus
    [ ("alias_unix.ml", "lib/sim/alias_unix.ml", true) ]
    (fun () ->
      let path = "lib/sim/alias_unix.ml" in
      write_file path (read_file path ^ "(* touched after compile *)\n");
      match sem ~rules:[ "R10" ] [ "lib" ] with
      | [ f ] ->
          Alcotest.(check string)
            "edited source degrades to C0" "C0" (Finding.rule f);
          message_has f "stale artifact"
      | fs -> Alcotest.failf "expected one C0, got %d" (List.length fs))

let test_overlapping_roots_dedupe () =
  with_corpus
    [ ("alias_unix.ml", "lib/sim/alias_unix.ml", true) ]
    (fun () ->
      Alcotest.(check (list string))
        "overlapping roots collect each file once"
        [ "lib/sim/alias_unix.ml" ]
        (Driver.collect_files [ "lib"; "lib/sim" ]);
      Alcotest.check hits "findings are not double-reported"
        [ ("R10", 4, 13) ]
        (hits_of (sem ~rules:[ "R10" ] [ "lib"; "lib/sim" ])))

(* ---- meta tests against the real tree --------------------------------- *)

(* Tests run from test/ inside the build tree; the repo root (where
   lib/ and the dune artifacts live) is the nearest ancestor with a
   dune-project. *)
let in_repo_root f =
  let rec find_root dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then Alcotest.fail "no dune-project above cwd"
      else find_root parent
  in
  let cwd = Sys.getcwd () in
  Fun.protect
    ~finally:(fun () -> Sys.chdir cwd)
    (fun () ->
      Sys.chdir (find_root cwd);
      f ())

(* Every parser documented as total must carry the attribute; the clean
   meta test below then proves the annotations verify. *)
let expected_total =
  [
    ( "lib/serve/json_lite.ml",
      [
        "Dbp_serve.Json_lite.parse_object";
        "Dbp_serve.Json_lite.field";
        "Dbp_serve.Json_lite.num_field";
        "Dbp_serve.Json_lite.int_field";
      ] );
    ("lib/serve/arrival.ml", [ "Dbp_serve.Arrival.parse_into" ]);
    ("lib/serve/decision.ml", [ "Dbp_serve.Decision.parse" ]);
    ("lib/serve/router.ml", [ "Dbp_serve.Router.parse_overrides" ]);
    ( "lib/serve/http.ml",
      [ "Dbp_serve.Http.request_complete"; "Dbp_serve.Http.parse_request" ] );
    ("lib/serve/wire.ml", [ "Dbp_serve.Wire.decode" ]);
    ("lib/serve/snapshot.ml", [ "Dbp_serve.Snapshot.of_payload" ]);
    ("lib/workload/trace.ml", [ "Dbp_workload.Trace.of_string_lenient" ]);
  ]

let test_parsers_annotated () =
  in_repo_root (fun () ->
      List.iter
        (fun (file, ids) ->
          match Cmt_loader.load file with
          | Error e ->
              Alcotest.failf "loading %s: %s" file e.Cmt_loader.e_reason
          | Ok unit ->
              let g =
                Callgraph.build ~file ~modname:unit.Cmt_loader.modname
                  unit.Cmt_loader.structure
              in
              List.iter
                (fun id ->
                  match
                    List.find_opt
                      (fun (d : Callgraph.def) -> d.d_id = id)
                      g.Callgraph.g_defs
                  with
                  | Some d ->
                      Alcotest.(check bool)
                        (id ^ " carries [@dbp.total]")
                        true d.Callgraph.d_total
                  | None -> Alcotest.failf "%s not found in %s" id file)
                ids)
        expected_total)

let test_repo_tree_semantic_clean () =
  in_repo_root (fun () ->
      Alcotest.(check (list string))
        "lib/ is R10-R12 clean" []
        (List.map Finding.to_string
           (Driver.lint_tree ~semantic:true
              ~rules:[ "R10"; "R11"; "R12" ]
              [ "lib" ])))

let suite =
  [
    Alcotest.test_case "R10 alias-smuggled Unix" `Quick test_r10_alias;
    Alcotest.test_case "R10 open-smuggled clock read" `Quick test_r10_open;
    Alcotest.test_case "R11 raising [@dbp.total]" `Quick
      test_r11_total_raises;
    Alcotest.test_case "R11 caught exception is clean" `Quick
      test_r11_caught_is_clean;
    Alcotest.test_case "R12 randomness reachability" `Quick
      test_r12_randomness;
    Alcotest.test_case "R12 covers the shard router" `Quick
      test_r12_router_designated;
    Alcotest.test_case "R12 covers the HTTP parser" `Quick
      test_r12_http_designated;
    Alcotest.test_case "R12 covers the analyze reporter" `Quick
      test_r12_analyze_designated;
    Alcotest.test_case "suppression covers semantic findings" `Quick
      test_semantic_suppression;
    Alcotest.test_case "unused semantic marker is R0" `Quick
      test_unused_semantic_marker;
    Alcotest.test_case "C0 on missing artifact" `Quick
      test_c0_missing_artifact;
    Alcotest.test_case "C0 on stale artifact" `Quick test_c0_stale_artifact;
    Alcotest.test_case "overlapping roots dedupe" `Quick
      test_overlapping_roots_dedupe;
    Alcotest.test_case "meta: parsers carry [@dbp.total]" `Quick
      test_parsers_annotated;
    Alcotest.test_case "meta: lib is R10-R12 clean" `Quick
      test_repo_tree_semantic_clean;
  ]
