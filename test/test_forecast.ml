open Dbp_core
open Helpers
module P = Dbp_forecast.Predictor

let by_size item = Printf.sprintf "%.2f" (Item.size item)

let test_predict_unseen_is_none () =
  let p = P.create ~key:by_size () in
  check_bool "none" true (P.predict_duration p (item ~size:0.5 0. 1.) = None);
  check_int "no classes" 0 (P.classes p)

let test_mean_of_observations () =
  let p = P.create ~key:by_size () in
  P.observe p (item ~id:0 ~size:0.5 0. 10.);
  P.observe p (item ~id:1 ~size:0.5 0. 20.);
  (match P.predict_duration p (item ~id:2 ~size:0.5 100. 101.) with
  | Some d -> check_float "mean" 15. d
  | None -> Alcotest.fail "expected prediction");
  check_int "samples" 2 (P.samples p (item ~id:3 ~size:0.5 0. 1.));
  check_int "one class" 1 (P.classes p)

let test_classes_are_independent () =
  let p = P.create ~key:by_size () in
  P.observe p (item ~id:0 ~size:0.5 0. 10.);
  P.observe p (item ~id:1 ~size:0.25 0. 99.);
  match P.predict_duration p (item ~id:2 ~size:0.5 0. 1.) with
  | Some d -> check_float "unpolluted" 10. d
  | None -> Alcotest.fail "expected prediction"

let test_stddev () =
  let p = P.create ~key:by_size () in
  P.observe p (item ~id:0 ~size:0.5 0. 10.);
  (match P.predict_stddev p (item ~id:1 ~size:0.5 0. 1.) with
  | Some s -> check_float "single sample" 0. s
  | None -> Alcotest.fail "expected stddev");
  P.observe p (item ~id:1 ~size:0.5 0. 20.);
  match P.predict_stddev p (item ~id:2 ~size:0.5 0. 1.) with
  | Some s -> check_float_eps 1e-9 "two samples" (sqrt 50.) s
  | None -> Alcotest.fail "expected stddev"

let test_estimator_fallback () =
  let p = P.create ~key:by_size () in
  let est = P.estimator ~fallback:7. p in
  check_float "fallback departure" 9. (est (item ~size:0.5 2. 3.))

let test_estimator_uses_prediction () =
  let p = P.create ~key:by_size () in
  P.observe p (item ~id:0 ~size:0.5 0. 10.);
  let est = P.estimator p in
  check_float "arrival + mean" 12. (est (item ~id:1 ~size:0.5 2. 3.))

let test_mae () =
  let p = P.create ~key:by_size () in
  P.observe p (item ~id:0 ~size:0.5 0. 10.);
  (* test set: durations 12 and 8, both predicted 10 -> MAE 2 *)
  let test_set = instance [ (0.5, 0., 12.); (0.5, 0., 8.) ] in
  check_float "mae" 2. (P.mean_absolute_error p test_set)

let test_welford_long_stream_stability () =
  let p = P.create ~key:by_size () in
  for i = 0 to 9_999 do
    P.observe p (item ~id:i ~size:0.5 0. (10. +. float_of_int (i mod 2)))
  done;
  match P.predict_duration p (item ~id:10000 ~size:0.5 0. 1.) with
  | Some d -> check_float_eps 1e-9 "stable mean" 10.5 d
  | None -> Alcotest.fail "expected prediction"

let prop_prediction_within_observed_range =
  qtest ~count:40 "mean within [min, max] of observations"
    QCheck2.Gen.(list_size (int_range 1 20) (float_range 0.5 20.))
    (fun durations ->
      let p = P.create ~key:by_size () in
      List.iteri
        (fun i d -> P.observe p (item ~id:i ~size:0.5 0. d))
        durations;
      match P.predict_duration p (item ~id:999 ~size:0.5 0. 1.) with
      | Some mean ->
          let lo = List.fold_left Float.min Float.infinity durations
          and hi = List.fold_left Float.max Float.neg_infinity durations in
          mean >= lo -. 1e-9 && mean <= hi +. 1e-9
      | None -> false)

(* ---- online-learning classifier ---- *)

let test_learned_classifier_valid_run () =
  let inst =
    Dbp_workload.Analytics.generate ~seed:2
      { Dbp_workload.Analytics.default with horizon = 360. }
  in
  let p =
    Dbp_online.Engine.run
      (Dbp_forecast.Learned_classifier.make ~fallback:5. ~rho:10. ())
      inst
  in
  check_bool "valid" true (Packing.bin_count p >= 1)

let test_learned_classifier_learns_within_run () =
  (* a recurring job class: early instances are misclassified by the
     fallback, later instances use the learned duration.  With fallback 1
     and true duration 40, the predicted category of a late job differs
     from the cold prediction -- observable via bin fragmentation
     compared to an oracle run *)
  let items =
    List.init 8 (fun i ->
        item ~id:i ~size:0.3
          (float_of_int i *. 50.)
          ((float_of_int i *. 50.) +. 40.))
  in
  let inst = Instance.of_items items in
  let learned =
    Dbp_online.Engine.run
      (Dbp_forecast.Learned_classifier.make ~fallback:1. ~rho:10. ())
      inst
  in
  (* every job is alone in time, so packing is trivially fine; the point
     is that the run completes and remains valid while the predictor
     updates across departures *)
  check_int "one bin per disjoint job stream"
    (Packing.bin_count learned)
    (Packing.bin_count
       (Dbp_online.Engine.run (Dbp_online.Classify_departure.make ~rho:10. ()) inst))

let test_engine_departure_hook_fires () =
  let seen = ref [] in
  let algo =
    {
      Dbp_online.Engine.name = "departure-spy";
      make =
        (fun () ->
          {
            Dbp_online.Engine.decide =
              (fun ~now:_ ~index:_ _ -> Dbp_online.Engine.Open_new);
            notify = (fun ~item:_ ~index:_ -> ());
            departed = (fun item -> seen := Item.id item :: !seen);
          });
    }
  in
  let inst = instance [ (0.5, 0., 1.); (0.5, 0.5, 2.) ] in
  ignore (Dbp_online.Engine.run algo inst);
  Alcotest.(check (list int)) "departures observed in order" [ 0; 1 ]
    (List.rev !seen)

let prop_learned_classifier_valid =
  qtest ~count:40 "learned classifier packs validly" (gen_instance ())
    (fun inst ->
      Packing.bin_count
        (Dbp_online.Engine.run
           (Dbp_forecast.Learned_classifier.make ~rho:2. ())
           inst)
      >= 1)

let test_experiment_f1_runs () =
  let table = Dbp_sim.Experiments.learned_clairvoyance ~seeds:1 () in
  check_bool "renders" true
    (String.length (Dbp_sim.Report.to_text table) > 40)

let suite =
  [
    Alcotest.test_case "unseen class" `Quick test_predict_unseen_is_none;
    Alcotest.test_case "mean of observations" `Quick test_mean_of_observations;
    Alcotest.test_case "independent classes" `Quick test_classes_are_independent;
    Alcotest.test_case "stddev" `Quick test_stddev;
    Alcotest.test_case "estimator fallback" `Quick test_estimator_fallback;
    Alcotest.test_case "estimator prediction" `Quick test_estimator_uses_prediction;
    Alcotest.test_case "mean absolute error" `Quick test_mae;
    Alcotest.test_case "welford stability" `Quick test_welford_long_stream_stability;
    prop_prediction_within_observed_range;
    Alcotest.test_case "learned classifier runs" `Quick
      test_learned_classifier_valid_run;
    Alcotest.test_case "learned classifier learns in-run" `Quick
      test_learned_classifier_learns_within_run;
    Alcotest.test_case "engine departure hook" `Quick
      test_engine_departure_hook_fires;
    prop_learned_classifier_valid;
    Alcotest.test_case "F1 experiment runs" `Slow test_experiment_f1_runs;
  ]
