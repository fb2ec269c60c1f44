(* Fault-injection layer: plan determinism, the empty-plan differential
   (the resilient engine must reproduce [Engine.run] bit-identically when
   nothing goes wrong), capacity safety under crashes and slips,
   displaced-work conservation, checkpoint/resume round-trips, and the
   structured-error migration of the engine's fatal paths. *)

open Dbp_core
open Helpers
module E = Dbp_online.Engine
module FP = Dbp_faults.Fault_plan
module Rec = Dbp_faults.Recovery
module R = Dbp_faults.Resilient

(* The engine differential suite's deterministic algorithms. *)
let algorithms = List.map fst Algo_oracle.twins

let stormy_spec =
  {
    FP.crash_rate = 0.3;
    slip_prob = 0.3;
    slip_stretch = 0.5;
    burst_rate = 0.1;
    burst_size = 3;
  }

(* ---- fault plans ---- *)

let test_plan_empty () =
  check_bool "empty is empty" true (FP.is_empty FP.empty);
  let inst = instance [ (0.5, 0., 1.) ] in
  check_bool "no_faults generates empty" true
    (FP.is_empty (FP.generate ~seed:1 FP.no_faults inst))

let test_plan_deterministic () =
  let inst = instance [ (0.5, 0., 4.); (0.3, 1., 6.); (0.8, 2., 9.) ] in
  let a = FP.generate ~seed:9 stormy_spec inst in
  let b = FP.generate ~seed:9 stormy_spec inst in
  check_bool "same plan" true (a = b);
  let c = FP.generate ~seed:10 stormy_spec inst in
  check_bool "seed matters somewhere" true (a <> c || FP.is_empty a)

let test_plan_validates () =
  let inst = instance [ (0.5, 0., 1.) ] in
  check_bool "negative rate rejected" true
    (match FP.generate ~seed:1 { stormy_spec with FP.crash_rate = -1. } inst with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---- recovery policies ---- *)

let test_recovery_delay () =
  check_float "first retry" 0.1 (Rec.delay Rec.default ~attempt:1);
  check_float "third retry doubles twice" 0.4 (Rec.delay Rec.default ~attempt:3)

let test_recovery_validates () =
  check_bool "zero backoff rejected" true
    (match Rec.validate { Rec.default with Rec.backoff = 0. } with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Rec.validate (Rec.admission_controlled ())

(* ---- empty-plan differential: the acceptance property ---- *)

let same_as_plain inst algo =
  let plain = E.run algo inst in
  let out = R.run algo inst FP.empty in
  match out.R.packing with
  | None -> false
  | Some p ->
      List.for_all
        (fun r ->
          Packing.bin_of_item plain (Item.id r)
          = Packing.bin_of_item p (Item.id r))
        (Instance.items inst)
      && Packing.bin_count plain = Packing.bin_count p
      && Float.equal
           (Packing.total_usage_time plain)
           (Packing.total_usage_time p)
      && Float.equal (Packing.total_usage_time plain) out.R.usage_time

let prop_empty_plan_bit_identical =
  qtest ~count:60 "empty plan reproduces Engine.run bit-identically"
    (gen_instance ())
    (fun inst -> List.for_all (same_as_plain inst) algorithms)

(* ---- faulted runs: safety invariants ---- *)

(* Instance plus a stormy generated plan. *)
let gen_faulted =
  QCheck2.Gen.(
    let* inst = gen_instance ~max_items:16 () in
    let* seed = int_range 0 10_000 in
    return (inst, FP.generate ~seed stormy_spec inst))

(* Declared-interval level of a bin at an instant, from the engine items
   the report retains. *)
let level_at_declared state t =
  List.fold_left
    (fun acc r -> if Item.active_at r t then acc +. Item.size r else acc)
    0. (Bin_state.items state)

let prop_capacity_under_faults =
  qtest ~count:80 "capacity holds in every bin after crashes and slips"
    gen_faulted
    (fun (inst, plan) ->
      let out = R.run Dbp_online.Any_fit.first_fit inst plan in
      List.for_all
        (fun b ->
          List.for_all
            (fun r ->
              level_at_declared b.R.state (Item.arrival r)
              <= Bin_state.capacity +. Bin_state.tolerance)
            (Bin_state.items b.R.state))
        out.R.bins)

let prop_displaced_work_conserved =
  qtest ~count:80 "every displaced job is recovered or rejected" gen_faulted
    (fun (inst, plan) ->
      let out = R.run Dbp_online.Any_fit.best_fit inst plan in
      out.R.evicted + out.R.slipped = out.R.recovered + out.R.rejected)

let prop_faulted_run_deterministic =
  qtest ~count:40 "same plan, same outcome" gen_faulted
    (fun (inst, plan) ->
      let a = R.run Dbp_online.Any_fit.first_fit inst plan in
      let b = R.run Dbp_online.Any_fit.first_fit inst plan in
      Float.equal a.R.usage_time b.R.usage_time
      && a.R.bins_opened = b.R.bins_opened
      && a.R.recovered = b.R.recovered
      && a.R.rejected = b.R.rejected)

(* ---- deterministic crash scenarios ---- *)

(* One job, one crash halfway: the evicted job loses its progress and
   redoes its full duration in a fresh bin. *)
let test_crash_restart_inflates () =
  let inst = instance [ (0.6, 0., 10.) ] in
  let plan =
    { FP.empty with FP.crashes = [ { FP.time = 5.; victim = 0 } ] }
  in
  let out = R.run Dbp_online.Any_fit.first_fit inst plan in
  check_int "crash fired" 1 out.R.crashes_fired;
  check_int "evicted" 1 out.R.evicted;
  check_int "recovered" 1 out.R.recovered;
  check_int "two bins" 2 out.R.bins_opened;
  (* bin 0 served [0,5), bin 1 redoes the full 10 from t=5 *)
  check_float "usage 5 + 10" 15. out.R.usage_time

let test_admission_control_rejects () =
  let inst = instance [ (0.6, 0., 10.) ] in
  let plan =
    { FP.empty with FP.crashes = [ { FP.time = 5.; victim = 0 } ] }
  in
  let policy = Rec.admission_controlled ~max_retries:2 () in
  let out = R.run ~policy Dbp_online.Any_fit.first_fit inst plan in
  check_int "rejected" 1 out.R.rejected;
  check_int "recovered" 0 out.R.recovered;
  check_int "retries" 2 out.R.retries;
  (* lost demand: size 0.6 x full redo duration 10 *)
  check_float "lost demand" 6. out.R.lost_demand;
  check_float "usage truncated at the crash" 5. out.R.usage_time

let test_crash_on_empty_system_is_noop () =
  let inst = instance [ (0.5, 1., 2.) ] in
  let plan =
    { FP.empty with FP.crashes = [ { FP.time = 0.5; victim = 3 } ] }
  in
  let out = R.run Dbp_online.Any_fit.first_fit inst plan in
  check_int "no crash fired" 0 out.R.crashes_fired;
  check_float "usage untouched" 1. out.R.usage_time

let test_slip_overstays () =
  let inst = instance [ (0.5, 0., 2.) ] in
  let plan = { FP.empty with FP.slips = [ { FP.item_id = 0; delta = 3. } ] } in
  let out = R.run Dbp_online.Any_fit.first_fit inst plan in
  check_int "slipped" 1 out.R.slipped;
  check_int "recovered" 1 out.R.recovered;
  (* remainder [2, 5) lands in the still-open bin or a fresh one; either
     way total busy time is 5 *)
  check_float "usage stretched" 5. out.R.usage_time

(* ---- checkpoint / resume ---- *)

let same_outcome a b =
  Float.equal a.R.usage_time b.R.usage_time
  && a.R.bins_opened = b.R.bins_opened
  && a.R.crashes_fired = b.R.crashes_fired
  && a.R.evicted = b.R.evicted
  && a.R.recovered = b.R.recovered
  && a.R.rejected = b.R.rejected
  && a.R.retries = b.R.retries
  && a.R.slipped = b.R.slipped
  && a.R.injected = b.R.injected
  && Float.equal a.R.lost_demand b.R.lost_demand
  && List.length a.R.bins = List.length b.R.bins
  && List.for_all2
       (fun (x : R.bin_report) (y : R.bin_report) ->
         x.R.index = y.R.index
         && Float.equal x.R.opened_at y.R.opened_at
         && Option.equal Float.equal x.R.crashed_at y.R.crashed_at
         && List.equal Interval.equal x.R.busy y.R.busy)
       a.R.bins b.R.bins

let gen_checkpointed =
  QCheck2.Gen.(
    let* inst, plan = gen_faulted in
    let* cut = int_range 0 40 in
    return (inst, plan, cut))

let prop_checkpoint_roundtrip =
  qtest ~count:60 "checkpoint/resume is bit-identical" gen_checkpointed
    (fun (inst, plan, cut) ->
      let algo = Dbp_online.Any_fit.first_fit in
      let straight = R.run algo inst plan in
      let r = R.start algo inst plan in
      let rec burn k = if k > 0 && R.step r then burn (k - 1) in
      burn cut;
      let cp = R.checkpoint r in
      let resumed = R.resume algo inst plan cp in
      check_int "cursor restored" (R.events_processed r)
        (R.events_processed resumed);
      same_outcome straight (R.finish resumed))

let test_resume_detects_mismatched_inputs () =
  let inst = instance [ (0.6, 0., 10.); (0.3, 1., 4.) ] in
  let plan =
    { FP.empty with FP.crashes = [ { FP.time = 2.; victim = 0 } ] }
  in
  let algo = Dbp_online.Any_fit.first_fit in
  let r = R.start algo inst plan in
  let rec drain_to k = if k > 0 && R.step r then drain_to (k - 1) in
  drain_to 4 (* past the crash *);
  let cp = R.checkpoint r in
  (match R.resume algo inst FP.empty cp with
  | exception R.Checkpoint_mismatch m ->
      (* The payload names both sides of the disagreement. *)
      check_string "expected digest is the checkpoint's"
        cp.R.state_digest m.R.expected_digest;
      check_int "cursor carried" cp.R.events_done m.R.events_done;
      (match m.R.actual_digest with
      | Some d ->
          check_bool "replayed digest differs" true
            (not (String.equal d cp.R.state_digest))
      | None -> Alcotest.fail "replay reached the cursor; digest expected");
      check_bool "rendering mentions both digests" true
        (let s = R.mismatch_to_string m in
         let has sub =
           let n = String.length sub and len = String.length s in
           let rec go i = i + n <= len && (String.sub s i n = sub || go (i + 1)) in
           go 0
         in
         has cp.R.state_digest && has (Option.get m.R.actual_digest))
  | _ -> Alcotest.fail "resume against a different plan must be refused");
  (* Drained-early flavour: a cursor past the end of the event stream. *)
  let far = { cp with R.events_done = 1_000_000 } in
  match R.resume algo inst plan far with
  | exception R.Checkpoint_mismatch m ->
      check_bool "no digest when the stream drained early" true
        (Option.is_none m.R.actual_digest);
      check_int "cursor carried" 1_000_000 m.R.events_done
  | _ -> Alcotest.fail "over-long cursor must be refused"

(* ---- structured engine errors ---- *)

let unknown_bin_algo =
  Algo_oracle.of_views "always-99" (fun ~now:_ ~open_bins:_ _ -> E.Place 99)

let overflow_algo =
  Algo_oracle.of_views "cram-into-0" (fun ~now:_ ~open_bins _ ->
      if open_bins = [] then E.Open_new else E.Place 0)

let overlap_pair = instance [ (0.9, 0., 4.); (0.9, 1., 5.) ]

let test_run_result_unknown_bin () =
  match E.run_result unknown_bin_algo overlap_pair with
  | Error (E.Unknown_bin { algo; bin; _ }) ->
      check_string "algo name" "always-99" algo;
      check_int "bin index" 99 bin
  | Error e -> Alcotest.failf "wrong error: %s" (E.error_to_string e)
  | Ok _ -> Alcotest.fail "expected an error"

let test_run_result_overflow () =
  check_bool "overflow classified" true
    (match E.run_result overflow_algo overlap_pair with
    | Error (E.Overflow { bin = 0; _ }) -> true
    | _ -> false)

(* The legacy exception and the structured error must render the exact
   same message — callers matching on strings keep working. *)
let test_error_message_shim () =
  List.iter
    (fun algo ->
      match E.run_result algo overlap_pair with
      | Ok _ -> Alcotest.fail "expected an error"
      | Error e -> (
          match E.run algo overlap_pair with
          | exception E.Invalid_decision msg ->
              check_string "identical message" (E.error_to_string e) msg
          | _ -> Alcotest.fail "legacy path did not raise"))
    [ unknown_bin_algo; overflow_algo ]

let test_resilient_reports_structured_errors () =
  match R.run_result unknown_bin_algo overlap_pair FP.empty with
  | Error (E.Unknown_bin _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (E.error_to_string e)
  | Ok _ -> Alcotest.fail "expected an error"

let suite =
  [
    Alcotest.test_case "plan: empty/no_faults" `Quick test_plan_empty;
    Alcotest.test_case "plan: deterministic" `Quick test_plan_deterministic;
    Alcotest.test_case "plan: validates spec" `Quick test_plan_validates;
    Alcotest.test_case "recovery: backoff schedule" `Quick test_recovery_delay;
    Alcotest.test_case "recovery: validates" `Quick test_recovery_validates;
    prop_empty_plan_bit_identical;
    prop_capacity_under_faults;
    prop_displaced_work_conserved;
    prop_faulted_run_deterministic;
    Alcotest.test_case "crash restarts the victim" `Quick
      test_crash_restart_inflates;
    Alcotest.test_case "admission control rejects" `Quick
      test_admission_control_rejects;
    Alcotest.test_case "crash with no open bin is a no-op" `Quick
      test_crash_on_empty_system_is_noop;
    Alcotest.test_case "slip overstays" `Quick test_slip_overstays;
    prop_checkpoint_roundtrip;
    Alcotest.test_case "resume refuses mismatched inputs" `Quick
      test_resume_detects_mismatched_inputs;
    Alcotest.test_case "run_result: unknown bin" `Quick
      test_run_result_unknown_bin;
    Alcotest.test_case "run_result: overflow" `Quick test_run_result_overflow;
    Alcotest.test_case "error message shim is byte-identical" `Quick
      test_error_message_shim;
    Alcotest.test_case "resilient surfaces structured errors" `Quick
      test_resilient_reports_structured_errors;
  ]
