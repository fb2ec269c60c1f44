(* Differential testing of the indexed engine against the frozen
   reference engine: on random instances, every deterministic algorithm
   run by the indexed engine must produce the *same packing* (same bin
   index for every item) as its view-list twin from Algo_oracle run by
   the reference engine, and the usage times must match exactly.

   Two instance generators: general float-valued instances, and a
   tie-heavy grid generator (integer times, discrete sizes) that forces
   equal-time arrival/departure collisions and exactly-equal bin levels —
   the cases where heap ordering and index tie-breaking could silently
   diverge from the list engine. *)

open Dbp_core
open Helpers
module E = Dbp_online.Engine

let pairs = Algo_oracle.twins
let algorithms = List.map fst pairs

(* Integer arrival/departure grid with sizes from a small discrete set:
   maximal tie pressure. *)
let gen_tie_instance =
  QCheck2.Gen.(
    let* n = int_range 2 30 in
    let sizes = [| 0.1; 0.2; 0.25; 0.3; 0.5; 0.5; 1.0 |] in
    let* items =
      flatten_l
        (List.init n (fun id ->
             let* si = int_range 0 (Array.length sizes - 1) in
             let* arrival = int_range 0 8 in
             let* duration = int_range 1 5 in
             return
               (Item.make ~id ~size:sizes.(si)
                  ~arrival:(float_of_int arrival)
                  ~departure:(float_of_int (arrival + duration)))))
    in
    return (Instance.of_items items))

let same_packing inst (algo, oracle) =
  assert (String.equal algo.E.name oracle.E.name);
  let reference = E.run_reference oracle inst in
  let indexed = E.run_indexed algo inst in
  let same_bins =
    List.for_all
      (fun r ->
        Packing.bin_of_item reference (Item.id r)
        = Packing.bin_of_item indexed (Item.id r))
      (Instance.items inst)
  in
  same_bins
  && Packing.bin_count reference = Packing.bin_count indexed
  && Float.equal
       (Packing.total_usage_time reference)
       (Packing.total_usage_time indexed)

let differential_tests =
  List.concat_map
    (fun ((algo, _) as pair) ->
      let name = algo.E.name in
      [
        qtest ~count:400
          (Printf.sprintf "indexed = reference: %s" name)
          (gen_instance ~max_items:25 ())
          (fun inst -> same_packing inst pair);
        qtest ~count:200
          (Printf.sprintf "indexed = reference (ties): %s" name)
          gen_tie_instance
          (fun inst -> same_packing inst pair);
      ])
    pairs

(* The tuned classifiers pick their parameters from the instance; their
   twins re-derive the parameters, so the plumbing is checked too. *)
let tuned_tests =
  [
    qtest ~count:500 "indexed = reference: cbdt-tuned"
      (gen_instance ~max_items:20 ())
      (fun inst ->
        same_packing inst
          (Dbp_online.Classify_departure.tuned inst, Algo_oracle.cbdt_tuned inst));
    qtest ~count:500 "indexed = reference: cbd-tuned"
      (gen_instance ~max_items:20 ())
      (fun inst ->
        same_packing inst
          (Dbp_online.Classify_duration.tuned inst, Algo_oracle.cbd_tuned inst));
  ]

(* ---- adversarial instances against the flat engine ---------------------

   The flat engine drains all equal-time departures before touching the
   fit index (deferred via a per-bin dirty stack) and recycles arena
   rows when bins close.  These generators are built to break exactly
   that machinery: dense equal-timestamp bursts, one-ulp lifetimes that
   open and close a bin inside a single drain, and monotone-duration
   ramps that retire one item per instant from shared bins. *)
let adversarial_tests =
  List.concat_map
    (fun ((algo, _) as pair) ->
      let name = algo.E.name in
      [
        qtest ~count:200
          (Printf.sprintf "indexed = reference (bursts): %s" name)
          (gen_burst_instance ())
          (fun inst -> same_packing inst pair);
        qtest ~count:200
          (Printf.sprintf "indexed = reference (one-ulp jobs): %s" name)
          (gen_tiny_duration_instance ())
          (fun inst -> same_packing inst pair);
        qtest ~count:200
          (Printf.sprintf "indexed = reference (duration ramps): %s" name)
          (gen_ramp_instance ())
          (fun inst -> same_packing inst pair);
      ])
    pairs

(* Instances large enough to cross the fit index's and the arena's
   doubling boundaries (both start well below 200 leaves/rows), so
   growth-time blits are covered, not just the small steady state. *)
let large_instance_tests =
  List.map
    (fun ((algo, _) as pair) ->
      qtest ~count:30
        (Printf.sprintf "indexed = reference (200 items): %s" algo.E.name)
        (gen_instance ~max_items:200 ())
        (fun inst -> same_packing inst pair))
    (List.filter
       (fun (algo, _) ->
         List.mem algo.E.name
           [ "first-fit"; "best-fit"; "worst-fit"; "next-fit"; "hybrid-ff(4)" ])
       pairs)

(* run_usage is the bench's serving-path metric: it must agree bitwise
   with folding the full packing, on every generator in this file. *)
let usage_fast_path_tests =
  let agrees inst algo =
    Float.equal
      (E.run_usage algo inst)
      (Packing.total_usage_time (E.run_indexed algo inst))
  in
  [
    qtest ~count:300 "run_usage = total_usage_time (general)"
      (gen_instance ~max_items:30 ())
      (fun inst -> List.for_all (agrees inst) algorithms);
    qtest ~count:200 "run_usage = total_usage_time (bursts)"
      (gen_burst_instance ())
      (fun inst -> List.for_all (agrees inst) algorithms);
  ]

let suite =
  differential_tests @ tuned_tests @ adversarial_tests @ large_instance_tests
  @ usage_fast_path_tests
