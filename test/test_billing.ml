open Dbp_core
open Helpers
module BM = Dbp_billing.Billing_model
module BE = Dbp_billing.Billed_engine

(* ---- billing model ---- *)

let test_per_second_cost () =
  check_float "exact" 3.5 (BM.rental_cost BM.per_second ~acquired:1. ~released:4.5)

let test_quantum_rounds_up () =
  let m = BM.quantum 60. in
  check_float "70 min -> 2 hours" 120. (BM.rental_cost m ~acquired:0. ~released:70.);
  check_int "2 quanta" 2 (BM.quanta_used m ~acquired:0. ~released:70.);
  check_float "exactly one quantum" 60. (BM.rental_cost m ~acquired:0. ~released:60.);
  check_float "one second -> full quantum" 60.
    (BM.rental_cost m ~acquired:0. ~released:1.)

let test_quantum_empty_session () =
  let m = BM.quantum 60. in
  check_float "zero session" 0. (BM.rental_cost m ~acquired:5. ~released:5.)

let test_quantum_validation () =
  check_bool "zero quantum" true
    (match BM.quantum 0. with exception Invalid_argument _ -> true | _ -> false);
  check_bool "released < acquired" true
    (match BM.rental_cost BM.per_second ~acquired:2. ~released:1. with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_next_boundary () =
  let m = BM.quantum 10. in
  check_float "mid-quantum" 15. (BM.next_boundary m ~acquired:5. ~after:7.);
  check_float "on boundary goes next" 25. (BM.next_boundary m ~acquired:5. ~after:15.);
  check_bool "per-second infinite" true
    (Float.is_integer (BM.next_boundary BM.per_second ~acquired:0. ~after:3.) = false)

(* ---- billed engine ---- *)

let ff = Dbp_online.Any_fit.first_fit

(* The learned classifier learns from the departure hook, so it places
   like the plain engine only if the billed engine calls that hook. *)
let test_per_second_equals_plain_engine () =
  List.iter
    (fun (algo, inst) ->
      let billed = BE.run ~model:BM.per_second algo inst in
      let plain = Dbp_online.Engine.run algo inst in
      check_float "cost = usage" billed.BE.usage billed.BE.cost;
      check_float "same usage as plain engine"
        (Packing.total_usage_time plain)
        billed.BE.usage;
      check_int "same bins" (Packing.bin_count plain)
        (Packing.bin_count billed.BE.packing);
      check_bool "same placements" true
        (List.for_all
           (fun r ->
             Packing.bin_of_item plain (Item.id r)
             = Packing.bin_of_item billed.BE.packing (Item.id r))
           (Instance.items inst)))
    [
      (ff, instance [ (0.5, 0., 2.); (0.6, 1., 3.); (0.5, 2.5, 4.) ]);
      ( Dbp_forecast.Learned_classifier.make ~rho:2. (),
        Dbp_workload.Generator.with_mu ~seed:3 ~items:200 ~mu:8. () );
    ]

let test_quantum_cost_rounds_each_server () =
  (* one item of duration 70 under hourly billing costs 2 hours *)
  let inst = instance [ (0.5, 0., 70.) ] in
  let r = BE.run ~model:(BM.quantum 60.) ff inst in
  check_float "rounded" 120. r.BE.cost;
  check_float "usage unrounded" 70. r.BE.usage

let test_paid_idle_reuse () =
  (* item departs at 30; a new item arrives at 40, still inside the paid
     hour: with reuse it lands on the same server (1 quantum), without it
     a second server is paid *)
  let inst = instance [ (0.9, 0., 30.); (0.9, 40., 55.) ] in
  let with_reuse = BE.run ~reuse_idle:true ~model:(BM.quantum 60.) ff inst in
  let without = BE.run ~reuse_idle:false ~model:(BM.quantum 60.) ff inst in
  check_int "one server with reuse" 1 (List.length with_reuse.BE.servers);
  check_float "one hour" 60. with_reuse.BE.cost;
  check_int "two servers without" 2 (List.length without.BE.servers);
  check_float "two hours" 120. without.BE.cost

let test_released_server_not_reused () =
  (* second item arrives after the paid hour ended: server was released
     at the boundary, so a new one is acquired even with reuse on *)
  let inst = instance [ (0.9, 0., 30.); (0.9, 70., 100.) ] in
  let r = BE.run ~reuse_idle:true ~model:(BM.quantum 60.) ff inst in
  check_int "two servers" 2 (List.length r.BE.servers);
  (* first server: released at its hour boundary *)
  let first = List.hd r.BE.servers in
  check_float "released at boundary" 60. first.BE.released

let test_renewal_while_active () =
  (* an item spanning 2.5 hours keeps renewing: 3 quanta *)
  let inst = instance [ (0.5, 0., 150.) ] in
  let r = BE.run ~model:(BM.quantum 60.) ff inst in
  check_int "three quanta" 3 (List.hd r.BE.servers).BE.quanta

let test_arrival_exactly_at_release_boundary () =
  (* item departs at 60 (exactly the boundary): server released at 60;
     an arrival at 60 must get a fresh server *)
  let inst = instance [ (0.9, 0., 60.); (0.9, 60., 90.) ] in
  let r = BE.run ~reuse_idle:true ~model:(BM.quantum 60.) ff inst in
  check_int "two servers" 2 (List.length r.BE.servers)

let test_cost_of_packing () =
  let inst = instance [ (0.5, 0., 70.); (0.4, 10., 50.) ] in
  let p = Dbp_offline.Ddff.pack inst in
  check_float "repriced" 120. (BE.cost_of_packing ~model:(BM.quantum 60.) p);
  check_float "per-second reprice = usage" (Packing.total_usage_time p)
    (BE.cost_of_packing ~model:BM.per_second p)

(* ---- properties ---- *)

let prop_cost_at_least_usage =
  qtest ~count:60 "quantized cost >= usage" (gen_instance ()) (fun inst ->
      let r = BE.run ~model:(BM.quantum 2.) ff inst in
      r.BE.cost >= r.BE.usage -. 1e-6)

(* Reuse merges rentals, which per-server never costs more (ceil is
   subadditive over a paid window) -- but it also changes First Fit's
   downstream choices, so the *global* bill can go either way; E8
   measures the direction empirically.  What always holds: both policies
   yield valid packings, and reuse never acquires more servers. *)
let prop_reuse_never_acquires_more_servers =
  qtest ~count:60 "idle reuse never acquires more servers" (gen_instance ())
    (fun inst ->
      let model = BM.quantum 3. in
      let with_reuse = BE.run ~reuse_idle:true ~model ff inst in
      let without = BE.run ~reuse_idle:false ~model ff inst in
      List.length with_reuse.BE.servers <= List.length without.BE.servers)

(* Without idle reuse a server's rental is gap-free (it closes the moment
   it empties), so the bill exceeds the usage only by the final round-up:
   strictly less than one quantum per server.  With reuse this is false —
   each paid-idle gap adds more. *)
let prop_rounding_overhead_bounded_without_reuse =
  qtest ~count:60 "no-reuse: cost - usage < one quantum per server"
    (gen_instance ()) (fun inst ->
      let q = 2. in
      let r = BE.run ~reuse_idle:false ~model:(BM.quantum q) ff inst in
      r.BE.cost -. r.BE.usage
      < (q *. float_of_int (List.length r.BE.servers)) +. 1e-6)

let prop_per_second_cost_is_usage =
  qtest ~count:60 "per-second cost = usage" (gen_instance ()) (fun inst ->
      let r = BE.run ~model:BM.per_second ff inst in
      Float.abs (r.BE.cost -. r.BE.usage) < 1e-6)

let prop_servers_cover_items =
  qtest ~count:60 "server sessions contain their items" (gen_instance ())
    (fun inst ->
      let r = BE.run ~model:(BM.quantum 2.) ff inst in
      List.for_all2
        (fun (srv : BE.server_report) bin ->
          List.for_all
            (fun item ->
              Item.arrival item >= srv.BE.acquired -. 1e-9
              && Item.departure item <= srv.BE.released +. 1e-9)
            (Bin_state.items bin))
        r.BE.servers
        (Packing.bins r.BE.packing))

(* A stateful, category-based algorithm must also run correctly on the
   billed engine (it sees extra level-0 idle bins in its views). *)
let test_classifier_on_billed_engine () =
  let inst =
    Dbp_workload.Generator.generate ~seed:6
      { Dbp_workload.Generator.default with horizon = 40. }
  in
  let r =
    BE.run ~model:(BM.quantum 3.)
      (Dbp_online.Classify_departure.make ~rho:5. ())
      inst
  in
  check_bool "valid" true (Packing.bin_count r.BE.packing >= 1);
  check_bool "cost >= usage" true (r.BE.cost >= r.BE.usage -. 1e-6)

let prop_classifier_on_billed_engine_valid =
  qtest ~count:40 "classifiers run on the billed engine" (gen_instance ())
    (fun inst ->
      List.for_all
        (fun algo ->
          let r = BE.run ~model:(BM.quantum 2.) algo inst in
          Packing.bin_count r.BE.packing >= 1)
        [
          Dbp_online.Classify_departure.make ~rho:2. ();
          Dbp_online.Classify_duration.make ~alpha:2. ();
          Dbp_online.Departure_aligned.make ~window:2. ();
        ])

let test_experiment_e8_runs () =
  let table = Dbp_sim.Experiments.billing_sweep ~seeds:1 () in
  check_bool "renders" true
    (String.length (Dbp_sim.Report.to_text table) > 40)

let suite =
  [
    Alcotest.test_case "per-second cost" `Quick test_per_second_cost;
    Alcotest.test_case "quantum rounds up" `Quick test_quantum_rounds_up;
    Alcotest.test_case "empty session" `Quick test_quantum_empty_session;
    Alcotest.test_case "validation" `Quick test_quantum_validation;
    Alcotest.test_case "next boundary" `Quick test_next_boundary;
    Alcotest.test_case "per-second equals plain engine" `Quick
      test_per_second_equals_plain_engine;
    Alcotest.test_case "quantum rounds each server" `Quick
      test_quantum_cost_rounds_each_server;
    Alcotest.test_case "paid idle reuse" `Quick test_paid_idle_reuse;
    Alcotest.test_case "released server not reused" `Quick
      test_released_server_not_reused;
    Alcotest.test_case "renewal while active" `Quick test_renewal_while_active;
    Alcotest.test_case "arrival at release boundary" `Quick
      test_arrival_exactly_at_release_boundary;
    Alcotest.test_case "cost of packing" `Quick test_cost_of_packing;
    prop_cost_at_least_usage;
    prop_reuse_never_acquires_more_servers;
    prop_rounding_overhead_bounded_without_reuse;
    prop_per_second_cost_is_usage;
    prop_servers_cover_items;
    Alcotest.test_case "classifier on billed engine" `Quick
      test_classifier_on_billed_engine;
    prop_classifier_on_billed_engine_valid;
    Alcotest.test_case "E8 experiment runs" `Slow test_experiment_e8_runs;
  ]
