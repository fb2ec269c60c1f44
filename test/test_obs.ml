(* The dbp.obs observability layer.

   Three pillars under test:

   - decision tracing: the reference and indexed engines emit
     byte-identical JSONL traces on random instances for every portfolio
     algorithm; observation never perturbs the packing; the resilient
     engine on an empty plan emits exactly the plain engine's trace; the
     ring buffer retains the newest events.

   - metrics: golden Prometheus/JSON exposition (exact text, stable
     ordering), registration guards, and fake-clock-driven latency
     histogram bucketing through Metrics_observer.

   - profiling: exact phase totals on a fake clock and their export into
     a registry. *)

open Dbp_core
open Helpers
module E = Dbp_online.Engine
module Obs = Dbp_obs

(* ---- decision tracing --------------------------------------------------- *)

let trace_reference algo inst =
  let r = Obs.Trace.create () in
  ignore (E.run_reference ~observer:(Obs.Trace.observer r) algo inst : Packing.t);
  Obs.Trace.to_jsonl r

let trace_indexed algo inst =
  let r = Obs.Trace.create () in
  ignore (E.run_indexed ~observer:(Obs.Trace.observer r) algo inst : Packing.t);
  Obs.Trace.to_jsonl r

(* The engine differential suite's deterministic algorithms. *)
let algorithms = List.map fst Algo_oracle.twins

let trace_identity_tests =
  List.map
    (fun algo ->
      qtest ~count:200
        (Printf.sprintf "trace identity reference = indexed: %s" algo.E.name)
        (gen_instance ~max_items:25 ())
        (fun inst ->
          String.equal (trace_reference algo inst) (trace_indexed algo inst)))
    algorithms

let trace_two_runs_identical =
  qtest ~count:200 "two runs produce byte-identical traces"
    (gen_instance ~max_items:25 ())
    (fun inst ->
      let algo = Dbp_online.Any_fit.first_fit in
      String.equal (trace_indexed algo inst) (trace_indexed algo inst))

let observer_does_not_perturb =
  qtest ~count:200 "observation never changes the packing"
    (gen_instance ~max_items:25 ())
    (fun inst ->
      let algo = Dbp_online.Any_fit.best_fit in
      let bare = E.run_indexed algo inst in
      let r = Obs.Trace.create () in
      let observed =
        E.run_indexed ~observer:(Obs.Trace.observer r) algo inst
      in
      Packing.bin_count bare = Packing.bin_count observed
      && Float.equal
           (Packing.total_usage_time bare)
           (Packing.total_usage_time observed)
      && List.for_all
           (fun item ->
             Packing.bin_of_item bare (Item.id item)
             = Packing.bin_of_item observed (Item.id item))
           (Instance.items inst))

(* The flat engine batches equal-time departures and defers fit-index
   updates; neither may reorder or drop observer emissions.  Burst
   instances maximise the pressure on that drain, and 150-item instances
   cross the fit index's and arena's growth boundaries mid-trace. *)
let trace_identity_adversarial_tests =
  List.map
    (fun algo ->
      qtest ~count:120
        (Printf.sprintf "trace identity under bursts: %s" algo.E.name)
        (gen_burst_instance ())
        (fun inst ->
          String.equal (trace_reference algo inst) (trace_indexed algo inst)))
    algorithms

let trace_identity_large_tests =
  List.map
    (fun algo ->
      qtest ~count:30
        (Printf.sprintf "trace identity at 150 items: %s" algo.E.name)
        (gen_instance ~max_items:150 ())
        (fun inst ->
          String.equal (trace_reference algo inst) (trace_indexed algo inst)))
    [
      Dbp_online.Any_fit.first_fit;
      Dbp_online.Any_fit.best_fit;
      Dbp_online.Any_fit.worst_fit;
      Dbp_online.Hybrid_first_fit.make ();
    ]

let resilient_empty_plan_trace =
  qtest ~count:150 "resilient engine, empty plan: trace = Engine.run's"
    (gen_instance ~max_items:20 ())
    (fun inst ->
      List.for_all
        (fun algo ->
          let plain = Obs.Trace.create () in
          ignore
            (E.run ~observer:(Obs.Trace.observer plain) algo inst : Packing.t);
          let resilient = Obs.Trace.create () in
          ignore
            (Dbp_faults.Resilient.run
               ~observer:(Obs.Trace.observer resilient)
               algo inst Dbp_faults.Fault_plan.empty
              : Dbp_faults.Resilient.outcome);
          String.equal (Obs.Trace.to_jsonl plain) (Obs.Trace.to_jsonl resilient))
        [ Dbp_online.Any_fit.first_fit; Dbp_online.Any_fit.best_fit ])

(* Under a materialised (generally non-empty) fault plan the resilient
   engine still runs on the flat substrate; its trace must be a pure
   function of (algorithm, instance, plan) — byte-identical on replay. *)
let resilient_faulty_plan_trace =
  qtest ~count:100 "resilient engine, faulty plan: byte-identical replay"
    (gen_instance ~max_items:20 ())
    (fun inst ->
      let plan =
        Dbp_faults.Fault_plan.generate ~seed:42
          Dbp_faults.Fault_plan.default_spec inst
      in
      let run () =
        let r = Obs.Trace.create () in
        ignore
          (Dbp_faults.Resilient.run
             ~observer:(Obs.Trace.observer r)
             Dbp_online.Any_fit.first_fit inst plan
            : Dbp_faults.Resilient.outcome);
        Obs.Trace.to_jsonl r
      in
      String.equal (run ()) (run ()))

let test_trace_event_order () =
  (* One item, one bin: the exact six-line lifecycle in order. *)
  let inst = instance [ (0.5, 1., 3.) ] in
  let r = Obs.Trace.create () in
  ignore
    (E.run ~observer:(Obs.Trace.observer r) Dbp_online.Any_fit.first_fit inst
      : Packing.t);
  check_string "full lifecycle"
    "{\"t\":1,\"ev\":\"arrival\",\"item\":0,\"size\":0.5}\n\
     {\"t\":1,\"ev\":\"decision\",\"item\":0,\"bin\":null}\n\
     {\"t\":1,\"ev\":\"open\",\"bin\":0}\n\
     {\"t\":1,\"ev\":\"place\",\"item\":0,\"bin\":0}\n\
     {\"t\":3,\"ev\":\"departure\",\"item\":0}\n\
     {\"t\":3,\"ev\":\"close\",\"bin\":0}\n"
    (Obs.Trace.to_jsonl r);
  check_string "header lines come first"
    "{\"algo\":\"first-fit\"}\n{\"t\":1,\"ev\":\"arrival\",\"item\":0,\"size\":0.5}\n"
    (String.concat ""
       (List.filteri
          (fun i _ -> i < 2)
          (String.split_on_char '\n'
             (Obs.Trace.to_jsonl ~header:[ "{\"algo\":\"first-fit\"}" ] r))
       |> List.map (fun l -> l ^ "\n")))

let test_ring_capacity () =
  let r = Obs.Trace.create ~capacity:3 () in
  for i = 0 to 4 do
    Obs.Trace.push r (Obs.Trace.Departure { time = float_of_int i; item = i })
  done;
  check_int "retains capacity" 3 (Obs.Trace.length r);
  check_int "counts everything pushed" 5 (Obs.Trace.emitted r);
  Alcotest.(check (list int))
    "keeps the newest, oldest first" [ 2; 3; 4 ]
    (List.map
       (function
         | Obs.Trace.Departure { item; _ } -> item
         | _ -> Alcotest.fail "unexpected event")
       (Obs.Trace.events r));
  Obs.Trace.clear r;
  check_int "clear resets retained" 0 (Obs.Trace.length r);
  check_int "clear resets emitted" 0 (Obs.Trace.emitted r)

let test_observer_pair () =
  let inst = instance [ (0.5, 0., 2.); (0.4, 1., 3.) ] in
  let a = Obs.Trace.create () in
  let b = Obs.Trace.create () in
  ignore
    (E.run
       ~observer:(Observer.pair (Obs.Trace.observer a) (Obs.Trace.observer b))
       Dbp_online.Any_fit.first_fit inst
      : Packing.t);
  check_bool "both sinks saw the stream" true
    (Obs.Trace.emitted a > 0
    && String.equal (Obs.Trace.to_jsonl a) (Obs.Trace.to_jsonl b))

(* ---- metrics registry --------------------------------------------------- *)

(* A registry exercising all three kinds, shared labels, help first-wins
   and both formatters; the exposition is pinned byte-for-byte. *)
let golden_registry () =
  let m = Obs.Metrics.create () in
  let ff =
    Obs.Metrics.counter m ~help:"Requests served"
      ~labels:[ ("algo", "ff") ]
      "demo_requests_total"
  in
  Obs.Metrics.inc ff;
  Obs.Metrics.inc ~by:2. ff;
  Obs.Metrics.inc
    (Obs.Metrics.counter m ~labels:[ ("algo", "bf") ] "demo_requests_total");
  Obs.Metrics.set (Obs.Metrics.gauge m ~help:"Open bins" "demo_open_bins") 3.;
  let h =
    Obs.Metrics.histogram m ~help:"Sizes" ~buckets:[ 0.5; 1. ] "demo_size"
  in
  Obs.Metrics.observe h 0.25;
  Obs.Metrics.observe h 0.75;
  Obs.Metrics.observe h 2.;
  m

let test_golden_prometheus () =
  check_string "exact exposition"
    "# HELP demo_open_bins Open bins\n\
     # TYPE demo_open_bins gauge\n\
     demo_open_bins 3\n\
     # HELP demo_requests_total Requests served\n\
     # TYPE demo_requests_total counter\n\
     demo_requests_total{algo=\"bf\"} 1\n\
     demo_requests_total{algo=\"ff\"} 3\n\
     # HELP demo_size Sizes\n\
     # TYPE demo_size histogram\n\
     demo_size_bucket{le=\"0.5\"} 1\n\
     demo_size_bucket{le=\"1\"} 2\n\
     demo_size_bucket{le=\"+Inf\"} 3\n\
     demo_size_sum 3\n\
     demo_size_count 3\n"
    (Obs.Metrics.to_prometheus (golden_registry ()))

let test_golden_json () =
  check_string "exact JSON"
    ("{\"metrics\":["
    ^ "{\"name\":\"demo_open_bins\",\"type\":\"gauge\",\"help\":\"Open \
       bins\",\"labels\":{},\"value\":3},"
    ^ "{\"name\":\"demo_requests_total\",\"type\":\"counter\",\"help\":\"Requests \
       served\",\"labels\":{\"algo\":\"bf\"},\"value\":1},"
    ^ "{\"name\":\"demo_requests_total\",\"type\":\"counter\",\"help\":\"Requests \
       served\",\"labels\":{\"algo\":\"ff\"},\"value\":3},"
    ^ "{\"name\":\"demo_size\",\"type\":\"histogram\",\"help\":\"Sizes\",\"labels\":{},\"buckets\":[{\"le\":0.5,\"count\":1},{\"le\":1,\"count\":2},{\"le\":\"+Inf\",\"count\":3}],\"sum\":3,\"count\":3}"
    ^ "]}\n")
    (Obs.Metrics.to_json (golden_registry ()))

let test_exposition_deterministic () =
  (* Two registries built by the same path render identically. *)
  check_string "byte-identical rebuild"
    (Obs.Metrics.to_prometheus (golden_registry ()))
    (Obs.Metrics.to_prometheus (golden_registry ()))

let test_registration_guards () =
  let m = Obs.Metrics.create () in
  ignore (Obs.Metrics.counter m "dbp_things_total" : Obs.Metrics.counter);
  Alcotest.check_raises "kind conflict"
    (Invalid_argument
       "Metrics: dbp_things_total re-registered as a gauge (was counter)")
    (fun () -> ignore (Obs.Metrics.gauge m "dbp_things_total" : Obs.Metrics.gauge));
  let h = Obs.Metrics.histogram m ~buckets:[ 1.; 2. ] "dbp_h" in
  Obs.Metrics.observe h 1.5;
  Alcotest.check_raises "bucket conflict"
    (Invalid_argument "Metrics.histogram dbp_h: re-registered with different buckets")
    (fun () ->
      ignore
        (Obs.Metrics.histogram m ~buckets:[ 1.; 3. ] "dbp_h"
          : Obs.Metrics.histogram));
  Alcotest.check_raises "counters only go up"
    (Invalid_argument "Metrics.inc: counters only go up")
    (fun () -> Obs.Metrics.inc ~by:(-1.) (Obs.Metrics.counter m "dbp_up_total"));
  (* Idempotent registration: the second handle is the same cell. *)
  let c1 = Obs.Metrics.counter m "dbp_shared_total" in
  let c2 = Obs.Metrics.counter m "dbp_shared_total" in
  Obs.Metrics.inc c1;
  Obs.Metrics.inc c2;
  check_float "one cell behind both handles" 2. (Obs.Metrics.counter_value c1)

let test_histogram_bucketing () =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram m ~buckets:[ 1.; 2.; 5. ] "dbp_b" in
  List.iter (Obs.Metrics.observe h) [ 0.5; 1.; 1.5; 4.; 100. ];
  Alcotest.(check (list (pair (option (float 0.)) int)))
    "boundary values land in their bucket (le is inclusive)"
    [ (Some 1., 2); (Some 2., 1); (Some 5., 1); (None, 1) ]
    (Obs.Metrics.bucket_counts h);
  check_int "count" 5 (Obs.Metrics.histogram_count h);
  check_float "sum" 107. (Obs.Metrics.histogram_sum h)

(* ---- fake clock / latency histogram / profiling ------------------------- *)

let test_fake_clock () =
  let fake = Obs.Clock.fake () in
  let clock = Obs.Clock.of_fake fake in
  check_float "starts at 0" 0. (Obs.Clock.now clock);
  Obs.Clock.advance fake 1.5;
  check_float "advances" 1.5 (Obs.Clock.now clock);
  Alcotest.check_raises "no going back"
    (Invalid_argument "Clock.advance: negative step") (fun () ->
      Obs.Clock.advance fake (-1.));
  let dt, v = Obs.Clock.elapsed ~clock (fun () -> Obs.Clock.advance fake 0.25; 7) in
  check_float "elapsed measures the step" 0.25 dt;
  check_int "elapsed returns the value" 7 v

let test_metrics_observer_latency_buckets () =
  (* Drive the observer callbacks by hand on a fake clock: each
     arrival->decision gap lands in a known latency bucket. *)
  let fake = Obs.Clock.fake () in
  let m = Obs.Metrics.create () in
  let o = Obs.Metrics_observer.observer ~clock:(Obs.Clock.of_fake fake) m in
  let item = Item.make ~id:0 ~size:0.5 ~arrival:0. ~departure:1. in
  List.iter
    (fun gap ->
      o.Observer.on_arrival ~time:0. ~item;
      Obs.Clock.advance fake gap;
      o.Observer.on_decision ~time:0. ~item ~bin:(Some 0))
    [ 5e-7; 2e-6; 0.05 ];
  let h =
    Obs.Metrics.histogram m ~buckets:Obs.Metrics_observer.latency_buckets
      "dbp_engine_decision_seconds"
  in
  check_int "three samples" 3 (Obs.Metrics.histogram_count h);
  check_float "sum is the advanced time" 0.0500025
    (Obs.Metrics.histogram_sum h);
  let count_le bound =
    List.assoc (Some bound) (Obs.Metrics.bucket_counts h)
  in
  check_int "5e-7 in le=1e-6" 1 (count_le 1e-6);
  check_int "2e-6 in le=3e-6" 1 (count_le 3e-6);
  check_int "0.05 in le=0.1" 1 (count_le 0.1)

let test_metrics_observer_engine_counts () =
  (* Deterministic counts from a real run: two items share one bin. *)
  let inst = instance [ (0.5, 0., 4.); (0.5, 1., 3.) ] in
  let m = Obs.Metrics.create () in
  ignore
    (E.run
       ~observer:(Obs.Metrics_observer.observer m)
       Dbp_online.Any_fit.first_fit inst
      : Packing.t);
  let value name = Obs.Metrics.counter_value (Obs.Metrics.counter m name) in
  check_float "arrivals" 2. (value "dbp_engine_arrivals_total");
  check_float "departures" 2. (value "dbp_engine_departures_total");
  check_float "placements" 2. (value "dbp_engine_placements_total");
  check_float "one bin opened" 1. (value "dbp_engine_bins_opened_total");
  check_float "one bin closed" 1. (value "dbp_engine_bins_closed_total");
  check_float "second decision reused the bin" 1.
    (value "dbp_engine_decisions_existing_total");
  check_float "no bins left open" 0.
    (Obs.Metrics.gauge_value (Obs.Metrics.gauge m "dbp_engine_open_bins"));
  check_float "peak of 1" 1.
    (Obs.Metrics.gauge_value (Obs.Metrics.gauge m "dbp_engine_open_bins_peak"))

let test_profile_phases () =
  let fake = Obs.Clock.fake () in
  let prof = Obs.Profile.create ~clock:(Obs.Clock.of_fake fake) () in
  let v =
    Obs.Profile.time prof "sweep.run" (fun () ->
        Obs.Clock.advance fake 1.5;
        42)
  in
  check_int "time returns the value" 42 v;
  Obs.Profile.time prof "sweep.run" (fun () -> Obs.Clock.advance fake 0.5);
  Obs.Profile.record prof "runner.evaluate" 2.;
  Alcotest.check_raises "negative duration"
    (Invalid_argument "Profile.record: negative duration") (fun () ->
      Obs.Profile.record prof "runner.evaluate" (-1.));
  Alcotest.(check (list (pair string (triple int (float 1e-9) (float 1e-9)))))
    "phases sorted by name, exact totals on the fake clock"
    [ ("runner.evaluate", (1, 2., 2.)); ("sweep.run", (2, 2., 1.5)) ]
    (Obs.Profile.phases prof);
  let m = Obs.Metrics.create () in
  Obs.Profile.register prof m;
  let runs phase =
    Obs.Metrics.counter_value
      (Obs.Metrics.counter m
         ~labels:[ ("phase", phase) ]
         "dbp_profile_phase_runs_total")
  in
  check_float "exported run counts" 2. (runs "sweep.run");
  check_float "exported seconds" 2.
    (Obs.Metrics.counter_value
       (Obs.Metrics.counter m
          ~labels:[ ("phase", "runner.evaluate") ]
          "dbp_profile_phase_seconds_total"))

let test_runner_profile_integration () =
  (* evaluate/sweep charge exactly one sample to their phase. *)
  let inst = instance [ (0.5, 0., 2.); (0.3, 1., 4.) ] in
  let prof = Obs.Profile.create () in
  ignore
    (Dbp_sim.Runner.evaluate ~profile:prof
       [ Dbp_sim.Runner.online Dbp_online.Any_fit.first_fit ]
       inst
      : Dbp_sim.Runner.score list);
  match Obs.Profile.phases prof with
  | [ ("runner.evaluate", (1, total, _)) ] ->
      check_bool "nonnegative total" true (total >= 0.)
  | phases ->
      Alcotest.failf "expected one runner.evaluate sample, got %d"
        (List.length phases)

let suite =
  trace_identity_tests @ trace_identity_adversarial_tests
  @ trace_identity_large_tests
  @ [
      trace_two_runs_identical;
      observer_does_not_perturb;
      resilient_empty_plan_trace;
      resilient_faulty_plan_trace;
      Alcotest.test_case "trace event order and headers" `Quick
        test_trace_event_order;
      Alcotest.test_case "trace ring capacity" `Quick test_ring_capacity;
      Alcotest.test_case "Observer.pair fans out" `Quick test_observer_pair;
      Alcotest.test_case "golden Prometheus exposition" `Quick
        test_golden_prometheus;
      Alcotest.test_case "golden JSON exposition" `Quick test_golden_json;
      Alcotest.test_case "exposition is deterministic" `Quick
        test_exposition_deterministic;
      Alcotest.test_case "registration guards" `Quick test_registration_guards;
      Alcotest.test_case "histogram bucketing" `Quick test_histogram_bucketing;
      Alcotest.test_case "fake clock" `Quick test_fake_clock;
      Alcotest.test_case "latency buckets on a fake clock" `Quick
        test_metrics_observer_latency_buckets;
      Alcotest.test_case "engine counts through the observer" `Quick
        test_metrics_observer_engine_counts;
      Alcotest.test_case "profile phases on a fake clock" `Quick
        test_profile_phases;
      Alcotest.test_case "runner charges one evaluate sample" `Quick
        test_runner_profile_integration;
    ]
