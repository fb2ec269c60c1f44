(* qcheck invariants on [Packing.t], recomputed from scratch — never
   through the cached level profiles the engines maintain:

   - capacity: at every arrival instant of every bin, the total size of
     the bin's items active at that instant stays within
     capacity + tolerance (between events the level only falls, so the
     arrival instants dominate);
   - online liveness: an online bin never receives an item after closing
     (every item but the bin's first arrives strictly before the latest
     departure seen so far) — offline packings are exempt, a rented bin
     may legitimately be reused after a gap;
   - usage accounting: [Packing.total_usage_time] (and the figure
     surfaced by [Metrics]) equals the sum over bins of the measure of
     the union of the items' intervals.

   Run against every online algorithm (through the default, indexed
   engine) and both offline approximation algorithms. *)

open Dbp_core
open Helpers

let online_packers =
  [
    ("first-fit", Dbp_online.Engine.run Dbp_online.Any_fit.first_fit);
    ("best-fit", Dbp_online.Engine.run Dbp_online.Any_fit.best_fit);
    ("worst-fit", Dbp_online.Engine.run Dbp_online.Any_fit.worst_fit);
    ("next-fit", Dbp_online.Engine.run Dbp_online.Any_fit.next_fit);
    ("random-fit", Dbp_online.Engine.run (Dbp_online.Any_fit.random_fit ~seed:11));
    ( "biased-open",
      Dbp_online.Engine.run (Dbp_online.Any_fit.biased_open ~p:0.3 ~seed:5) );
    ("hybrid-ff", Dbp_online.Engine.run (Dbp_online.Hybrid_first_fit.make ()));
    ( "aligned-ff",
      Dbp_online.Engine.run (Dbp_online.Departure_aligned.make ~window:3. ()) );
    ( "cbdt-ff",
      fun inst ->
        Dbp_online.Engine.run (Dbp_online.Classify_departure.tuned inst) inst );
    ( "cbd-ff",
      fun inst ->
        Dbp_online.Engine.run (Dbp_online.Classify_duration.tuned inst) inst );
    ( "combined-ff",
      fun inst ->
        Dbp_online.Engine.run (Dbp_online.Classify_combined.tuned inst) inst );
  ]

let offline_packers =
  [
    ("ddff", Dbp_offline.Ddff.pack);
    ("dual-coloring", fun inst -> Dbp_offline.Dual_coloring.pack inst);
  ]

(* Level at time t recomputed directly from the item list. *)
let level_from_items items t =
  List.fold_left
    (fun acc r -> if Item.active_at r t then acc +. Item.size r else acc)
    0. items

let capacity_ok packing =
  List.for_all
    (fun b ->
      let items = Bin_state.items b in
      List.for_all
        (fun r ->
          level_from_items items (Item.arrival r)
          <= Bin_state.capacity +. Bin_state.tolerance)
        items)
    (Packing.bins packing)

let no_closed_bin_placement packing =
  List.for_all
    (fun b ->
      let by_arrival =
        List.sort
          (fun a b ->
            match Float.compare (Item.arrival a) (Item.arrival b) with
            | 0 -> Item.compare_by_id a b
            | c -> c)
          (Bin_state.items b)
      in
      match by_arrival with
      | [] -> true
      | first :: rest ->
          let _, ok =
            List.fold_left
              (fun (latest, ok) r ->
                ( Float.max latest (Item.departure r),
                  ok && Item.arrival r < latest ))
              (Item.departure first, true)
              rest
          in
          ok)
    (Packing.bins packing)

let usage_from_scratch packing =
  List.fold_left
    (fun acc b ->
      let span =
        Bin_state.items b
        |> List.map Item.interval
        |> Interval.union
        |> List.fold_left (fun acc i -> acc +. Interval.length i) 0.
      in
      acc +. span)
    0. (Packing.bins packing)

let usage_ok packing =
  let scratch = usage_from_scratch packing in
  Float.abs (Packing.total_usage_time packing -. scratch) <= 1e-9
  && Float.abs ((Dbp_core.Metrics.of_packing packing).Metrics.total_usage -. scratch)
     <= 1e-9

let invariant_tests ~online (name, pack) =
  [
    qtest ~count:120
      (Printf.sprintf "capacity within tolerance: %s" name)
      (gen_instance ~max_items:14 ())
      (fun inst -> capacity_ok (pack inst));
    qtest ~count:120
      (Printf.sprintf "usage = recomputed spans: %s" name)
      (gen_instance ~max_items:14 ())
      (fun inst -> usage_ok (pack inst));
  ]
  @
  if online then
    [
      qtest ~count:120
        (Printf.sprintf "no placement into closed bin: %s" name)
        (gen_instance ~max_items:14 ())
        (fun inst -> no_closed_bin_placement (pack inst));
    ]
  else []

(* ---- flat event source: tie-break preservation -----------------------

   The flat engine reads arrivals from a cursor over the id-sorted item
   array and keeps only pending departures in a (float key, int slot)
   heap; merging the two must reproduce the boxed comparator: increasing
   time, departures before arrivals at equal times, then item id.  Pin
   that by draining the source dry and comparing the full (time, kind,
   id) sequence against [Event.of_instance]. *)

module Ev = Dbp_core.Event

let flat_pop_order inst =
  let items = Instance.to_array inst in
  let src = Ev.Flat.of_items items in
  let rec drain acc =
    if Ev.Flat.is_empty src then List.rev acc
    else
      let kind = Ev.Flat.pop src in
      drain ((Ev.Flat.time src, kind, Item.id items.(Ev.Flat.slot src)) :: acc)
  in
  drain []

let boxed_order inst =
  List.map
    (fun e -> (e.Ev.time, e.Ev.kind, Item.id e.Ev.item))
    (Ev.of_instance inst)

(* Explicit equality — no polymorphic compare on float tuples. *)
let same_event (t1, k1, i1) (t2, k2, i2) =
  Float.equal t1 t2 && i1 = i2
  &&
  match (k1, k2) with
  | Ev.Arrival, Ev.Arrival | Ev.Departure, Ev.Departure -> true
  | _ -> false

let same_order inst = List.equal same_event (flat_pop_order inst) (boxed_order inst)

let test_flat_heap_tie_break_unit () =
  (* Three items colliding at t = 2: item 0 departs, items 1 and 2
     arrive.  The departure must pop first, then the arrivals in id
     order — the half-open-interval handoff the engines rely on. *)
  let inst =
    instance [ (0.6, 0., 2.); (0.6, 2., 3.); (0.3, 2., 4.) ]
  in
  let order = flat_pop_order inst in
  let expected =
    [
      (0., Ev.Arrival, 0);
      (2., Ev.Departure, 0);
      (2., Ev.Arrival, 1);
      (2., Ev.Arrival, 2);
      (3., Ev.Departure, 1);
      (4., Ev.Departure, 2);
    ]
  in
  check_bool "departure before equal-time arrivals, ids ascending" true
    (List.equal same_event expected order)

let test_flat_source_permuted_unit () =
  (* Ids against arrival order, with an arrival tie (ids 1 and 3 at
     t = 1) and a departure landing on an arrival (id 2 leaves at 3,
     when id 0 arrives): the cursor must walk the stable permutation. *)
  let inst =
    instance [ (0.5, 3., 5.); (0.2, 1., 4.); (0.3, 0., 3.); (0.2, 1., 2.) ]
  in
  let expected =
    [
      (0., Ev.Arrival, 2);
      (1., Ev.Arrival, 1);
      (1., Ev.Arrival, 3);
      (2., Ev.Departure, 3);
      (3., Ev.Departure, 2);
      (3., Ev.Arrival, 0);
      (4., Ev.Departure, 1);
      (5., Ev.Departure, 0);
    ]
  in
  check_bool "permuted cursor: arrival order, departures first, ids ascending"
    true
    (List.equal same_event expected (flat_pop_order inst));
  check_bool "permuted cursor = Event.of_instance" true (same_order inst)

(* Relabel ids in (arrival, id) order: the cursor's identity path. *)
let in_arrival_order inst =
  Instance.arrivals_in_order inst
  |> List.mapi (fun id r ->
         Item.make ~id ~size:(Item.size r) ~arrival:(Item.arrival r)
           ~departure:(Item.departure r))
  |> Instance.of_items

let flat_heap_tests =
  [
    Alcotest.test_case "flat source: ids against arrival order" `Quick
      test_flat_source_permuted_unit;
    qtest ~count:300
      "flat source pop order = Event.of_instance (ids in arrival order)"
      (QCheck2.Gen.map in_arrival_order (gen_burst_instance ()))
      same_order;
    Alcotest.test_case "flat heap: departure-before-arrival tie-break" `Quick
      test_flat_heap_tie_break_unit;
    qtest ~count:300 "flat heap pop order = Event.of_instance (general)"
      (gen_instance ~max_items:30 ())
      same_order;
    qtest ~count:300 "flat heap pop order = Event.of_instance (bursts)"
      (gen_burst_instance ())
      same_order;
    qtest ~count:300 "flat heap pop order = Event.of_instance (one-ulp)"
      (gen_tiny_duration_instance ())
      same_order;
  ]

(* ---- Bin_state.of_placement = the place_unchecked fold -----------------

   The flat engine records only each bin's placement chain and rebuilds
   the boxed [Bin_state] through [of_placement]; its contract is
   bit-identity with the incremental fold, including the canonical level
   profile.  Feed it placement chains the engine could actually produce
   (prefixes of first-fit bins) and arbitrary item lists alike — the
   contract covers both. *)

let breaks_equal p q =
  List.equal
    (fun (x1, v1) (x2, v2) -> Float.equal x1 x2 && Float.equal v1 v2)
    (Step_function.breaks p) (Step_function.breaks q)

let of_placement_matches placed =
  let folded =
    List.fold_left Bin_state.place_unchecked (Bin_state.empty ~index:3) placed
  in
  let rebuilt = Bin_state.of_placement ~index:3 placed in
  breaks_equal (Bin_state.level_profile folded) (Bin_state.level_profile rebuilt)
  && List.equal
       (fun a b -> Item.id a = Item.id b)
       (Bin_state.items folded) (Bin_state.items rebuilt)
  && Float.equal (Bin_state.usage_time folded) (Bin_state.usage_time rebuilt)
  && Bin_state.index rebuilt = 3

let of_placement_tests =
  [
    qtest ~count:400 "of_placement = place_unchecked fold (general)"
      (QCheck2.Gen.map Instance.items (gen_instance ~max_items:20 ()))
      of_placement_matches;
    qtest ~count:300 "of_placement = place_unchecked fold (bursts)"
      (QCheck2.Gen.map Instance.items (gen_burst_instance ~max_items:25 ()))
      of_placement_matches;
    qtest ~count:300 "of_placement = place_unchecked fold (engine bins)"
      (gen_instance ~max_items:25 ())
      (fun inst ->
        Dbp_online.Engine.run Dbp_online.Any_fit.first_fit inst
        |> Packing.bins
        |> List.for_all (fun b -> of_placement_matches (Bin_state.items b)));
  ]

let suite =
  List.concat_map (invariant_tests ~online:true) online_packers
  @ List.concat_map (invariant_tests ~online:false) offline_packers
  @ flat_heap_tests @ of_placement_tests
