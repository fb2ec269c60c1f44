open Dbp_core
open Helpers
module E = Dbp_online.Engine

(* An algorithm that always opens a new bin. *)
let always_open =
  Algo_oracle.of_views "always-open" (fun ~now:_ ~open_bins:_ _ -> E.Open_new)

let test_always_open run () =
  let inst = instance [ (0.1, 0., 2.); (0.1, 0.5, 3.) ] in
  let p = run always_open inst in
  check_int "one bin per item" 2 (Packing.bin_count p)

let test_open_bins_view_excludes_closed run () =
  (* second item arrives after the first departed; a "place into bin 0"
     algorithm must fail because bin 0 is closed *)
  let place_zero =
    Algo_oracle.of_views "place-zero" (fun ~now:_ ~open_bins _ ->
        match open_bins with
        | [] -> E.Open_new
        | v :: _ -> E.Place v.E.index)
  in
  let inst = instance [ (0.5, 0., 1.); (0.5, 2., 3.) ] in
  let p = run place_zero inst in
  (* bin 0 closed at t=2, so view is empty and a new bin opens *)
  check_int "two bins" 2 (Packing.bin_count p)

let test_invalid_place_unknown_bin run () =
  let bad =
    Algo_oracle.of_views "bad" (fun ~now:_ ~open_bins:_ _ -> E.Place 99)
  in
  let inst = instance [ (0.5, 0., 1.) ] in
  check_bool "raises" true
    (match run bad inst with
    | exception E.Invalid_decision _ -> true
    | _ -> false)

let test_invalid_place_closed_bin run () =
  (* remember bin 0 and try to reuse it after it closed *)
  let stubborn =
    Algo_oracle.of_views "stubborn" (fun ~now ~open_bins:_ _ ->
        if now < 1.5 then E.Open_new else E.Place 0)
  in
  let inst = instance [ (0.5, 0., 1.); (0.5, 2., 3.) ] in
  check_bool "raises" true
    (match run stubborn inst with
    | exception E.Invalid_decision _ -> true
    | _ -> false)

let test_invalid_overflow_decision run () =
  let cram =
    Algo_oracle.of_views "cram" (fun ~now:_ ~open_bins _ ->
        match open_bins with [] -> E.Open_new | v :: _ -> E.Place v.E.index)
  in
  let inst = instance [ (0.7, 0., 2.); (0.7, 0.5, 2.5) ] in
  check_bool "raises" true
    (match run cram inst with
    | exception E.Invalid_decision _ -> true
    | _ -> false)

let test_departure_frees_capacity_at_same_instant () =
  (* item 1 arrives exactly when item 0 departs; half-open semantics means
     bin 0 is already closed, so the engine reports no open bins *)
  let observed = ref (-1) in
  let observer =
    Algo_oracle.of_views "observer" (fun ~now:_ ~open_bins _ ->
        observed := List.length open_bins;
        E.Open_new)
  in
  let inst = instance [ (1.0, 0., 5.); (1.0, 5., 6.) ] in
  ignore (E.run observer inst);
  check_int "no open bins at second arrival" 0 !observed

let test_levels_reported_at_now () =
  let seen_levels = ref [] in
  let spy =
    Algo_oracle.of_views "spy" (fun ~now:_ ~open_bins _ ->
        seen_levels := List.map (fun v -> v.E.level) open_bins :: !seen_levels;
        match open_bins with
        | v :: _ when Dbp_online.Any_fit.fits v (item ~id:9 ~size:0.1 0. 1.) ->
            E.Place v.E.index
        | _ -> E.Open_new)
  in
  let inst = instance [ (0.4, 0., 10.); (0.3, 1., 2.); (0.2, 5., 6.) ] in
  ignore (E.run spy inst);
  match List.rev !seen_levels with
  | [ []; [ l1 ]; [ l2 ] ] ->
      check_float "level before second arrival" 0.4 l1;
      (* the 0.3 item departed at 2, so at t=5 level is back to 0.4 *)
      check_float "level after departure" 0.4 l2
  | other ->
      Alcotest.failf "unexpected level trace length %d" (List.length other)

let test_notify_reports_final_index () =
  let notified = ref [] in
  let algo =
    {
      E.name = "notify-spy";
      make =
        (fun () ->
          {
            E.decide = (fun ~now:_ ~index:_ _ -> E.Open_new);
            notify =
              (fun ~item ~index -> notified := (Item.id item, index) :: !notified);
            departed = E.default_departed;
          });
    }
  in
  let inst = instance [ (0.5, 0., 1.); (0.5, 0.5, 2.) ] in
  ignore (E.run algo inst);
  Alcotest.(check (list (pair int int)))
    "notifications" [ (0, 0); (1, 1) ] (List.rev !notified)

let test_fresh_stepper_per_run () =
  (* a stateful algorithm must not leak state between runs *)
  let algo = Dbp_online.Any_fit.next_fit in
  let inst = instance [ (0.6, 0., 2.); (0.6, 1., 3.) ] in
  let p1 = E.run algo inst and p2 = E.run algo inst in
  check_int "same result" (Packing.bin_count p1) (Packing.bin_count p2)

let prop_usage_time_matches_packing =
  qtest "usage_time = total of run" (gen_instance ()) (fun inst ->
      Float.abs
        (E.usage_time Dbp_online.Any_fit.first_fit inst
        -. Packing.total_usage_time (E.run Dbp_online.Any_fit.first_fit inst))
      < 1e-9)

(* The engine contract must hold for both implementations: the default
   indexed engine and the frozen reference oracle. *)
let per_engine =
  List.concat_map
    (fun (engine, run) ->
      let case name f =
        Alcotest.test_case (Printf.sprintf "%s (%s)" name engine) `Quick (f run)
      in
      [
        case "always-open baseline" test_always_open;
        case "closed bins leave the view" test_open_bins_view_excludes_closed;
        case "unknown bin rejected" test_invalid_place_unknown_bin;
        case "closed bin rejected" test_invalid_place_closed_bin;
        case "overflow decision rejected" test_invalid_overflow_decision;
      ])
    [
      ("indexed", fun algo inst -> E.run_indexed algo inst);
      ("reference", fun algo inst -> E.run_reference algo inst);
    ]

(* ---- the index surface, under every engine ------------------------------

   A spy algorithm checks on every arrival that [fold] visits exactly
   the open bins, in ascending index order, and that each view's
   [latest_departure] is the maximum departure of the items placed in
   that bin.  The ledger it checks against is built from the observer
   stream.  Billed_engine has no observer: its ledger's placements come
   from [notify], and since an idle server stays placeable until its
   quantum boundary (which the stream does not report), the check there
   is that every bin holding an active item is visited. *)
type ledger = {
  opened : (int, unit) Hashtbl.t;
  latest : (int, float) Hashtbl.t;
  mutable idle_views : int;  (* views of bins with no active item *)
}

let new_ledger () =
  { opened = Hashtbl.create 16; latest = Hashtbl.create 16; idle_views = 0 }

let record_place l ~item ~bin =
  let prev =
    Option.value ~default:neg_infinity (Hashtbl.find_opt l.latest bin)
  in
  Hashtbl.replace l.latest bin (Float.max prev (Item.departure item))

let ledger_observer l =
  Observer.v
    ~on_open_bin:(fun ~time:_ ~bin -> Hashtbl.replace l.opened bin ())
    ~on_close_bin:(fun ~time:_ ~bin -> Hashtbl.remove l.opened bin)
    ~on_place:(fun ~time:_ ~item ~bin -> record_place l ~item ~bin)
    ()

let index_spy ~observed l =
  let decide ~now ~index item =
    let views = List.rev (index.E.fold (fun acc v -> v :: acc) []) in
    let idxs = List.map (fun v -> v.E.index) views in
    if idxs <> List.sort_uniq Int.compare idxs then
      Alcotest.failf "t=%g: fold out of index order" now;
    if observed then begin
      let want =
        List.sort Int.compare
          (Hashtbl.fold (fun b () acc -> b :: acc) l.opened [])
      in
      if idxs <> want then
        Alcotest.failf "t=%g: fold visits %d bins, %d open" now
          (List.length idxs) (List.length want)
    end
    else
      Hashtbl.iter
        (fun b dep ->
          if dep > now && not (List.mem b idxs) then
            Alcotest.failf "t=%g: bin %d holds an active item, not visited"
              now b)
        l.latest;
    List.iter
      (fun v ->
        (match Hashtbl.find_opt l.latest v.E.index with
        | Some d when Float.equal d v.E.latest_departure -> ()
        | _ ->
            Alcotest.failf "t=%g: bin %d latest_departure %h is stale" now
              v.E.index v.E.latest_departure);
        if v.E.latest_departure <= now then l.idle_views <- l.idle_views + 1)
      views;
    match List.find_opt (fun v -> Dbp_online.Any_fit.fits v item) views with
    | Some v -> E.Place v.E.index
    | None -> E.Open_new
  in
  {
    E.name = "index-spy";
    make =
      (fun () ->
        {
          E.decide;
          notify =
            (fun ~item ~index ->
              if not observed then record_place l ~item ~bin:index);
          departed = E.default_departed;
        });
  }

let test_index_surface_every_engine () =
  List.iter
    (fun seed ->
      let inst = Dbp_workload.Generator.with_mu ~seed ~items:300 ~mu:8. () in
      let observed f =
        let l = new_ledger () in
        f (index_spy ~observed:true l) (ledger_observer l);
        check_int "an open bin holds an active item" 0 l.idle_views
      in
      observed (fun algo observer -> ignore (E.run_indexed ~observer algo inst));
      observed (fun algo observer ->
          ignore (E.run_reference ~observer algo inst));
      observed (fun algo observer ->
          let e = Dbp_serve.Stream_engine.create ~observer algo in
          List.iter
            (fun item ->
              match Dbp_serve.Stream_engine.arrive e item with
              | Ok _ -> ()
              | Error err -> Alcotest.fail (E.error_to_string err))
            (Instance.arrivals_in_order inst));
      observed (fun algo observer ->
          let plan =
            Dbp_faults.Fault_plan.generate ~seed
              {
                Dbp_faults.Fault_plan.default_spec with
                crash_rate = 0.2;
                slip_prob = 0.2;
              }
              inst
          in
          let o = Dbp_faults.Resilient.run ~observer algo inst plan in
          check_bool "crashes fired" true
            (o.Dbp_faults.Resilient.crashes_fired > 0);
          check_bool "jobs slipped" true (o.Dbp_faults.Resilient.slipped > 0));
      let l = new_ledger () in
      ignore
        (Dbp_billing.Billed_engine.run ~reuse_idle:true
           ~model:(Dbp_billing.Billing_model.Quantum 5.)
           (index_spy ~observed:false l) inst);
      check_bool "billing: idle servers offered" true (l.idle_views > 0))
    [ 1; 2; 3 ]

let suite =
  per_engine
  @ [
      Alcotest.test_case "departure frees capacity at same instant" `Quick
        test_departure_frees_capacity_at_same_instant;
      Alcotest.test_case "levels reported at arrival instant" `Quick
        test_levels_reported_at_now;
      Alcotest.test_case "notify gets final bin index" `Quick
        test_notify_reports_final_index;
      Alcotest.test_case "fresh stepper per run" `Quick test_fresh_stepper_per_run;
      prop_usage_time_matches_packing;
      Alcotest.test_case "index fold and latest_departure, every engine"
        `Quick test_index_surface_every_engine;
    ]
