open Dbp_core
open Helpers

let test_order () =
  let inst = instance [ (0.5, 0., 2.); (0.5, 1., 3.) ] in
  let kinds =
    Event.of_instance inst
    |> List.map (fun e -> (e.Event.time, Event.kind_to_string e.Event.kind))
  in
  Alcotest.(check (list (pair (float 1e-12) string)))
    "sorted"
    [ (0., "arrival"); (1., "arrival"); (2., "departure"); (3., "departure") ]
    kinds

let test_departure_before_arrival_at_same_time () =
  (* item 0 leaves exactly when item 1 arrives: departure delivered first *)
  let inst = instance [ (0.5, 0., 5.); (0.5, 5., 6.) ] in
  let kinds =
    Event.of_instance inst
    |> List.filter (fun e -> Float.equal e.Event.time 5.)
    |> List.map (fun e -> Event.kind_to_string e.Event.kind)
  in
  Alcotest.(check (list string)) "departure first" [ "departure"; "arrival" ]
    kinds

let test_arrivals () =
  let inst = instance [ (0.5, 2., 3.); (0.5, 0., 9.) ] in
  let ids = Event.arrivals (Event.of_instance inst) |> List.map Item.id in
  Alcotest.(check (list int)) "arrival order" [ 1; 0 ] ids

let prop_event_count =
  qtest "two events per item" (gen_instance ()) (fun inst ->
      List.length (Event.of_instance inst) = 2 * Instance.length inst)

let prop_events_sorted =
  qtest "events nondecreasing in time" (gen_instance ()) (fun inst ->
      let times = List.map (fun e -> e.Event.time) (Event.of_instance inst) in
      let rec sorted = function
        | a :: (b :: _ as rest) -> a <= b && sorted rest
        | _ -> true
      in
      sorted times)

(* --- flat source: must preserve the of_instance delivery order ------ *)

(* Drain [Event.Flat] dry into boxed events. *)
let flat_drain inst =
  let items = Instance.to_array inst in
  let src = Event.Flat.of_items items in
  let rec go acc =
    if Event.Flat.is_empty src then List.rev acc
    else
      let kind = Event.Flat.pop src in
      let e =
        {
          Event.time = Event.Flat.time src;
          kind;
          item = items.(Event.Flat.slot src);
        }
      in
      go (e :: acc)
  in
  go []

let event_key e =
  (e.Event.time, Event.kind_to_string e.Event.kind, Item.id e.Event.item)

let test_queue_ties_pinned () =
  (* All four tie dimensions at once: items 0 and 1 share arrival 0;
     item 0 departs exactly when items 2 and 3 arrive; items 2 and 3
     share both times so their events tie down to the id. *)
  let inst =
    instance [ (0.2, 0., 5.); (0.2, 0., 3.); (0.2, 5., 7.); (0.2, 5., 7.) ]
  in
  let popped = flat_drain inst |> List.map event_key in
  Alcotest.(check (list (triple (float 1e-12) string int)))
    "departures before arrivals, ties by id"
    [
      (0., "arrival", 0);
      (0., "arrival", 1);
      (3., "departure", 1);
      (5., "departure", 0);
      (5., "arrival", 2);
      (5., "arrival", 3);
      (7., "departure", 2);
      (7., "departure", 3);
    ]
    popped

let prop_queue_matches_of_instance =
  qtest ~count:300 "heap queue = sorted event list" (gen_instance ())
    (fun inst ->
      let sorted = Event.of_instance inst |> List.map event_key in
      let popped = flat_drain inst |> List.map event_key in
      sorted = popped)

let prop_queue_departures_first =
  (* Integer-grid instances to force many equal-time events. *)
  let gen =
    QCheck2.Gen.(
      let* n = int_range 2 20 in
      let* items =
        flatten_l
          (List.init n (fun id ->
               let* a = int_range 0 5 in
               let* d = int_range 1 4 in
               return
                 (Dbp_core.Item.make ~id ~size:0.25
                    ~arrival:(float_of_int a)
                    ~departure:(float_of_int (a + d)))))
      in
      return (Instance.of_items items))
  in
  qtest ~count:300 "queue: departures precede arrivals at equal times" gen
    (fun inst ->
      let popped = flat_drain inst in
      let rec ok = function
        | a :: (b :: _ as rest) ->
            (a.Event.time < b.Event.time
            || (a.Event.time = b.Event.time
               && not
                    (a.Event.kind = Event.Arrival
                    && b.Event.kind = Event.Departure)))
            && ok rest
        | _ -> true
      in
      ok popped)

let suite =
  [
    Alcotest.test_case "global order" `Quick test_order;
    Alcotest.test_case "departures precede arrivals at ties" `Quick
      test_departure_before_arrival_at_same_time;
    Alcotest.test_case "arrivals extraction" `Quick test_arrivals;
    Alcotest.test_case "queue tie-breaking pinned" `Quick test_queue_ties_pinned;
    prop_event_count;
    prop_events_sorted;
    prop_queue_matches_of_instance;
    prop_queue_departures_first;
  ]
