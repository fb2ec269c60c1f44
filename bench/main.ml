(* The benchmark harness.

   Three parts:

   1. Experiment tables — regenerates every table/figure of the paper's
      evaluation (see DESIGN.md section 4 for the experiment index).  This
      is the part whose *shape* is compared against the paper in
      EXPERIMENTS.md.

   2. Bechamel micro-benchmarks — packing throughput of each algorithm and
      of the supporting machinery, one Test.make per subject.

   3. Engine sweep — indexed vs. reference online engine over generated
      workloads from 10^3 to 10^6 jobs.  Asserts bit-identical usage
      between the engines wherever both run, prints a table and writes
      the machine-readable results to BENCH_engine.json in the current
      directory.

   4. Fault degradation sweep — usage-time inflation of the resilient
      engine vs. crash rate and slippage probability, averaged over fault
      seeds.  Writes BENCH_faults.json.

   5. Parallel scaling sweep — one Sweep.run workload timed at 1/2/4/8
      domains through the dbp.par pool.  The point lists are asserted
      bit-identical to the sequential 1-domain baseline (the pool's
      determinism contract, enforced here and not just in the tests) and
      the wall-clock speedup is reported per row, except on rows with more
      domains than cores, where it is null.  Writes BENCH_par.json.

   6. Observer overhead sweep — the indexed engine with no observer vs.
      with a recording trace observer, over generated workloads.  Usage
      is asserted identical (observation must not perturb packing) and
      the run fails loudly if the observed run costs more than 2x the
      bare run on the largest (10^5-job) row.  Writes BENCH_obs.json.

   7. Serve sweep — the streaming session's four robustness contracts
      measured end to end: line-parse-to-decision throughput per
      portfolio algorithm, a 10^6-arrival bounded-memory soak under a
      major-heap ceiling, crash-restart (journal replay) latency with a
      digest-equality assert, and admission-ladder transitions under a
      synthetic queue-depth wave.  Writes BENCH_serve.json.

   Run everything: `dune exec bench/main.exe`
   Tables only:    `dune exec bench/main.exe -- tables [--domains N]`
   Micro only:     `dune exec bench/main.exe -- micro`
   Engine sweep:   `dune exec bench/main.exe -- engine [--quick]`
   Fault sweep:    `dune exec bench/main.exe -- faults [--quick]`
   Parallel sweep: `dune exec bench/main.exe -- par [--quick] [--domains N]`
   Observer sweep: `dune exec bench/main.exe -- obs [--quick]`
   Serve sweep:    `dune exec bench/main.exe -- serve [--quick]`

   `--domains 0` means auto (Pool.default_domains).  All wall timing goes
   through Dbp_obs.Clock (best-of-reps reducer). *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Part 1: experiment tables.                                           *)

let run_tables ~domains () =
  print_endline "=== Experiment tables (paper reproduction) ===";
  let tables =
    match domains with
    | None | Some 1 -> Dbp_sim.Experiments.all ()
    | Some n ->
        Dbp_par.Pool.with_pool ~domains:n (fun pool ->
            Dbp_sim.Experiments.all ~pool ())
  in
  List.iter
    (fun (name, table) -> Dbp_sim.Report.print ~title:name table)
    tables;
  Printf.printf "\nFigure-8 crossover mu (paper: 4): %.2f\n"
    (Dbp_sim.Experiments.figure8_crossover ())

(* ------------------------------------------------------------------ *)
(* Part 2: micro-benchmarks.                                            *)

let medium_instance =
  lazy (Dbp_workload.Generator.generate ~seed:42 Dbp_workload.Generator.default)

let small_instance =
  lazy
    (Dbp_workload.Generator.generate ~seed:42
       { Dbp_workload.Generator.default with arrival_rate = 0.4; horizon = 30. })

let sized_instance n =
  lazy
    (Dbp_workload.Generator.generate ~seed:42
       {
         Dbp_workload.Generator.default with
         horizon = float_of_int n /. 2.;
       })

let instance_1k = sized_instance 1000
let instance_3k = sized_instance 3000

let vector_instance =
  lazy
    (Dbp_multidim.Vector_workload.generate ~seed:42
       Dbp_multidim.Vector_workload.default)

let flex_jobs =
  lazy
    (Dbp_core.Instance.items (Lazy.force small_instance)
    |> List.map (fun item ->
           Dbp_flex.Flex_job.of_item
             ~slack:(Dbp_core.Item.duration item)
             item))

let pack_test name pack =
  Test.make ~name
    (Staged.stage (fun () -> pack (Lazy.force medium_instance)))

let online_test name algo =
  pack_test name (Dbp_online.Engine.run algo)

let tests () =
  let inst = Lazy.force medium_instance in
  [
    pack_test "offline/ddff" Dbp_offline.Ddff.pack;
    pack_test "offline/dual-coloring" Dbp_offline.Dual_coloring.pack;
    pack_test "offline/arrival-ff" Dbp_offline.First_fit_offline.arrival_order;
    online_test "online/first-fit" Dbp_online.Any_fit.first_fit;
    online_test "online/best-fit" Dbp_online.Any_fit.best_fit;
    online_test "online/worst-fit" Dbp_online.Any_fit.worst_fit;
    online_test "online/next-fit" Dbp_online.Any_fit.next_fit;
    online_test "online/hybrid-ff" (Dbp_online.Hybrid_first_fit.make ());
    online_test "online/cbdt-ff" (Dbp_online.Classify_departure.tuned inst);
    online_test "online/cbd-ff" (Dbp_online.Classify_duration.tuned inst);
    online_test "online/combined-ff" (Dbp_online.Classify_combined.tuned inst);
    Test.make ~name:"substrate/size-profile"
      (Staged.stage (fun () -> Dbp_core.Instance.size_profile inst));
    Test.make ~name:"substrate/lower-bounds"
      (Staged.stage (fun () -> Dbp_opt.Lower_bounds.best inst));
    Test.make ~name:"substrate/demand-chart-phase1"
      (Staged.stage (fun () ->
           Dbp_offline.Demand_chart.place_all
             (Dbp_core.Instance.restrict inst (fun r ->
                  Dbp_core.Item.size r <= 0.5))));
    Test.make ~name:"substrate/opt-total-small"
      (Staged.stage (fun () -> Dbp_opt.Opt_total.value (Lazy.force small_instance)));
    Test.make ~name:"substrate/workload-generate"
      (Staged.stage (fun () ->
           Dbp_workload.Generator.generate ~seed:7 Dbp_workload.Generator.default));
    Test.make ~name:"theory/figure8-series"
      (Staged.stage (fun () -> Dbp_theory.Figure8.series ()));
    Test.make ~name:"multidim/first-fit-3d"
      (Staged.stage (fun () ->
           Dbp_multidim.Vector_algorithms.first_fit
             (Lazy.force vector_instance)));
    Test.make ~name:"multidim/ddff-3d"
      (Staged.stage (fun () ->
           Dbp_multidim.Vector_algorithms.ddff (Lazy.force vector_instance)));
    Test.make ~name:"flex/greedy"
      (Staged.stage (fun () ->
           Dbp_flex.Flex_schedule.greedy (Lazy.force flex_jobs)));
    Test.make ~name:"flex/asap"
      (Staged.stage (fun () ->
           Dbp_flex.Flex_schedule.asap (Lazy.force flex_jobs)));
    Test.make ~name:"scale/first-fit-1k"
      (Staged.stage (fun () ->
           Dbp_online.Engine.run Dbp_online.Any_fit.first_fit
             (Lazy.force instance_1k)));
    Test.make ~name:"scale/first-fit-3k"
      (Staged.stage (fun () ->
           Dbp_online.Engine.run Dbp_online.Any_fit.first_fit
             (Lazy.force instance_3k)));
    Test.make ~name:"scale/ddff-1k"
      (Staged.stage (fun () -> Dbp_offline.Ddff.pack (Lazy.force instance_1k)));
    Test.make ~name:"scale/ddff-3k"
      (Staged.stage (fun () -> Dbp_offline.Ddff.pack (Lazy.force instance_3k)));
  ]

let run_micro () =
  print_endline "\n=== Micro-benchmarks (bechamel) ===";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let rows =
    List.map
      (fun test ->
        let results = Benchmark.all cfg instances test in
        let analyzed = Analyze.all ols Instance.monotonic_clock results in
        Hashtbl.fold
          (fun name ols_result acc ->
            let ns_per_run =
              match Analyze.OLS.estimates ols_result with
              | Some [ est ] -> est
              | _ -> Float.nan
            in
            [ (if String.length name > 0 && name.[0] = '/' then String.sub name 1 (String.length name - 1) else name); Printf.sprintf "%.3f" (ns_per_run /. 1e6) ] :: acc)
          analyzed [])
      (List.map (fun t -> Test.make_grouped ~name:"" [ t ]) (tests ()))
    |> List.concat
    |> List.sort (List.compare String.compare)
  in
  Dbp_sim.Report.print ~title:"packing throughput"
    (Dbp_sim.Report.make
       ~columns:
         [ ("benchmark", Dbp_sim.Report.Left); ("ms/run", Dbp_sim.Report.Right) ]
       ~rows)

(* ------------------------------------------------------------------ *)
(* Part 3: engine sweep (indexed vs. reference, BENCH_engine.json).     *)

(* The reference engine rebuilds views of every bin ever opened at every
   event, so it is quadratic in practice; past ~10^5 jobs it takes hours
   and we report the indexed engine alone. *)
let reference_job_cap = 150_000

let engine_algorithms () =
  [
    ("first-fit", Dbp_online.Any_fit.first_fit);
    ("best-fit", Dbp_online.Any_fit.best_fit);
    ("worst-fit", Dbp_online.Any_fit.worst_fit);
    ("next-fit", Dbp_online.Any_fit.next_fit);
    ("hybrid-ff", Dbp_online.Hybrid_first_fit.make ());
  ]

(* Same shape as sized_instance: default config (rate 2, uniform sizes,
   exponential durations) with the horizon scaled so ~n jobs arrive. *)
let engine_instance n =
  Dbp_workload.Generator.generate ~seed:42
    { Dbp_workload.Generator.default with horizon = float_of_int n /. 2. }

let time_best reps f = Dbp_obs.Clock.time_best ~reps f

type engine_row = {
  jobs : int;
  algo : string;
  indexed_s : float;
  reference_s : float option; (* None above reference_job_cap *)
  usage : float;
}

(* Gc knobs for the large engine rows: a 256 MB minor heap (words) so
   the flat engine's short-lived view/decision garbage stays minor, and
   a relaxed space_overhead so the big backing arrays are not compacted
   mid-measurement.  Applied once, before the sweep. *)
let tune_gc_for_engine () =
  Gc.set
    {
      (Gc.get ()) with
      Gc.minor_heap_size = 1 lsl 25;
      space_overhead = 200;
    }

let engine_sweep sizes =
  List.concat_map
    (fun n ->
      let inst = engine_instance n in
      let jobs = Dbp_core.Instance.length inst in
      let reps =
        if jobs <= 2_000 then 15 else if jobs <= 20_000 then 5 else 1
      in
      List.map
        (fun (name, algo) ->
          (* [run_usage] is the serving-path metric: the full event loop
             with identical decisions, without materialising the packing
             (usage is bit-identical; the suite pins that). *)
          let indexed_s, usage =
            time_best reps (fun () -> Dbp_online.Engine.run_usage algo inst)
          in
          let reference_s =
            if jobs > reference_job_cap then None
            else
              let s, ref_usage =
                time_best reps (fun () ->
                    Dbp_core.Packing.total_usage_time
                      (Dbp_online.Engine.run_reference algo inst))
              in
              if not (Float.equal usage ref_usage) then
                failwith
                  (Printf.sprintf
                     "engine mismatch: %s on %d jobs: indexed %.9f vs \
                      reference %.9f"
                     name jobs usage ref_usage);
              Some s
          in
          let row = { jobs; algo = name; indexed_s; reference_s; usage } in
          (match reference_s with
          | Some r ->
              Printf.printf
                "  %7d jobs  %-10s indexed %8.4fs  reference %8.4fs  (%.1fx)\n\
                 %!"
                jobs name indexed_s r (r /. indexed_s)
          | None ->
              Printf.printf
                "  %7d jobs  %-10s indexed %8.4fs  reference   (skipped)\n%!"
                jobs name indexed_s);
          row)
        (engine_algorithms ()))
    sizes

let engine_json rows =
  let row_json { jobs; algo; indexed_s; reference_s; usage } =
    let reference_fields =
      match reference_s with
      | Some r ->
          Printf.sprintf
            "\"reference_s\": %.6f, \"speedup\": %.3f, \"reference_skipped\": \
             false"
            r (r /. indexed_s)
      | None ->
          (* Explicit omission marker: the reference engine is quadratic
             and is skipped above reference_job_cap, not merely missing. *)
          "\"reference_s\": null, \"speedup\": null, \"reference_skipped\": \
           true"
    in
    Printf.sprintf
      "    {\"jobs\": %d, \"algorithm\": \"%s\", \"indexed_s\": %.6f, %s, \
       \"usage\": %.9f}"
      jobs algo indexed_s reference_fields usage
  in
  String.concat ""
    [
      "{\n";
      "  \"benchmark\": \"online engine sweep (indexed vs. reference)\",\n";
      "  \"command\": \"dune exec bench/main.exe -- engine\",\n";
      "  \"workload\": \"Generator.default, seed 42, horizon = jobs/2\",\n";
      Printf.sprintf "  \"nproc\": %d,\n" (Dbp_par.Pool.available_cores ());
      Printf.sprintf
        "  \"note\": \"reference engine omitted above %d jobs (quadratic); \
         usage checked bit-identical between engines on every row where \
         both ran\",\n"
        reference_job_cap;
      "  \"results\": [\n";
      String.concat ",\n" (List.map row_json rows);
      "\n  ]\n}\n";
    ]

(* The 1.3x perf-regression gate: compare the fresh sweep against the
   committed BENCH_engine.json (the baseline this run may be about to
   replace).  Full sweeps fail hard on a breach of a large row; quick
   sweeps (the check.sh smoke stage) only warn — their 1e3/1e4 rows are
   millisecond-scale and noisy, and the smoke stage must stay green on
   slow machines. *)
let gate_baseline_file = "BENCH_engine.json"

(* Only rows at least this big are enforced: below it, timing noise
   dwarfs real regressions.  The committed 1e6 row is the contract. *)
let gate_min_jobs = 500_000

let engine_gate ~warn_only rows =
  if not (Sys.file_exists gate_baseline_file) then
    Printf.printf "perf gate: no %s baseline, skipping\n%!" gate_baseline_file
  else begin
    let ic = open_in_bin gate_baseline_file in
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    let baseline = Dbp_sim.Perf_gate.parse_rows text in
    let current =
      List.map
        (fun r ->
          {
            Dbp_sim.Perf_gate.algorithm = r.algo;
            jobs = r.jobs;
            indexed_s = r.indexed_s;
          })
        rows
    in
    let min_jobs = if warn_only then 0 else gate_min_jobs in
    let breaches =
      Dbp_sim.Perf_gate.check ~min_jobs ~baseline ~current ()
    in
    match breaches with
    | [] ->
        Printf.printf "perf gate: ok (threshold %.2fx, %d baseline rows)\n%!"
          Dbp_sim.Perf_gate.default_threshold (List.length baseline)
    | _ ->
        List.iter
          (fun b ->
            Printf.printf "perf gate %s: %s\n%!"
              (if warn_only then "WARNING" else "FAILURE")
              (Dbp_sim.Perf_gate.breach_to_string b))
          breaches;
        if not warn_only then
          failwith
            (Printf.sprintf
               "perf gate: %d row(s) slower than %.2fx the committed %s"
               (List.length breaches) Dbp_sim.Perf_gate.default_threshold
               gate_baseline_file)
  end

let run_engine ~quick () =
  let sizes =
    if quick then [ 1_000; 10_000 ]
    else [ 1_000; 10_000; 100_000; 1_000_000; 10_000_000 ]
  in
  Printf.printf "=== Engine sweep (%s) ===\n%!"
    (if quick then "quick" else "full");
  tune_gc_for_engine ();
  let rows = engine_sweep sizes in
  (* Gate before writing: a full sweep that regressed must not replace
     the baseline it just failed against. *)
  engine_gate ~warn_only:quick rows;
  (* Quick runs (the check.sh smoke) must not clobber the committed
     full-sweep results. *)
  let out = if quick then "BENCH_engine_quick.json" else "BENCH_engine.json" in
  let oc = open_out out in
  output_string oc (engine_json rows);
  close_out oc;
  Printf.printf "wrote %s\n" out

(* ------------------------------------------------------------------ *)
(* Part 4: fault degradation sweep (BENCH_faults.json).                 *)

module FP = Dbp_faults.Fault_plan

let fault_algorithms =
  [
    ("first-fit", Dbp_online.Any_fit.first_fit);
    ("best-fit", Dbp_online.Any_fit.best_fit);
  ]

type fault_row = {
  family : string;  (* "crash" | "slip" *)
  param : float;  (* crash rate resp. slip probability *)
  f_algo : string;
  inflation : float;  (* mean over fault seeds *)
  f_usage : float;  (* mean faulted usage *)
  fault_free : float;
  f_evicted : float;  (* means over fault seeds *)
  f_recovered : float;
  f_rejected : float;
  f_slipped : float;
}

let fault_sweep ~seeds ~family ~params ~spec_of inst =
  List.concat_map
    (fun param ->
      List.map
        (fun (name, algo) ->
          let fault_free = Dbp_online.Engine.usage_time algo inst in
          let outcomes =
            List.map
              (fun seed ->
                Dbp_faults.Resilient.run algo inst
                  (FP.generate ~seed (spec_of param) inst))
              seeds
          in
          let mean f =
            List.fold_left (fun acc o -> acc +. f o) 0. outcomes
            /. float_of_int (List.length outcomes)
          in
          let usage = mean (fun o -> o.Dbp_faults.Resilient.usage_time) in
          let row =
            {
              family;
              param;
              f_algo = name;
              inflation = usage /. fault_free;
              f_usage = usage;
              fault_free;
              f_evicted =
                mean (fun o -> float_of_int o.Dbp_faults.Resilient.evicted);
              f_recovered =
                mean (fun o -> float_of_int o.Dbp_faults.Resilient.recovered);
              f_rejected =
                mean (fun o -> float_of_int o.Dbp_faults.Resilient.rejected);
              f_slipped =
                mean (fun o -> float_of_int o.Dbp_faults.Resilient.slipped);
            }
          in
          Printf.printf
            "  %s %-5.2f  %-10s inflation %.4f  (usage %.1f / %.1f)\n%!" family
            param name row.inflation usage fault_free;
          row)
        fault_algorithms)
    params

let faults_json ~jobs ~seeds rows =
  let row_json r =
    Printf.sprintf
      "    {\"family\": \"%s\", \"param\": %g, \"algorithm\": \"%s\", \
       \"inflation\": %.6f, \"usage\": %.4f, \"fault_free_usage\": %.4f, \
       \"evicted\": %.1f, \"recovered\": %.1f, \"rejected\": %.1f, \
       \"slipped\": %.1f}"
      r.family r.param r.f_algo r.inflation r.f_usage r.fault_free r.f_evicted
      r.f_recovered r.f_rejected r.f_slipped
  in
  String.concat ""
    [
      "{\n";
      "  \"benchmark\": \"fault degradation sweep (resilient engine)\",\n";
      "  \"command\": \"dune exec bench/main.exe -- faults\",\n";
      Printf.sprintf
        "  \"workload\": \"Generator.default, seed 42, %d jobs\",\n" jobs;
      Printf.sprintf
        "  \"note\": \"inflation = faulted usage / fault-free usage, mean \
         over fault seeds %s; crash family sweeps crashes per unit time \
         (slips off), slip family sweeps overstay probability (crashes \
         off, stretch 0.5); elastic recovery policy\",\n"
        (String.concat "," (List.map string_of_int seeds));
      "  \"results\": [\n";
      String.concat ",\n" (List.map row_json rows);
      "\n  ]\n}\n";
    ]

let run_faults ~quick () =
  let n = if quick then 1_000 else 5_000 in
  let seeds = if quick then [ 1 ] else [ 1; 2; 3 ] in
  let inst = engine_instance n in
  let jobs = Dbp_core.Instance.length inst in
  Printf.printf "=== Fault degradation sweep (%s, %d jobs) ===\n%!"
    (if quick then "quick" else "full")
    jobs;
  let crash_rates =
    if quick then [ 0.; 0.1; 0.4 ] else [ 0.; 0.05; 0.1; 0.2; 0.4 ]
  in
  let slip_probs = if quick then [ 0.; 0.2 ] else [ 0.; 0.1; 0.2; 0.4 ] in
  let crash_rows =
    fault_sweep ~seeds ~family:"crash" ~params:crash_rates
      ~spec_of:(fun crash_rate -> { FP.no_faults with crash_rate })
      inst
  in
  let slip_rows =
    fault_sweep ~seeds ~family:"slip" ~params:slip_probs
      ~spec_of:(fun slip_prob ->
        { FP.no_faults with slip_prob; slip_stretch = 0.5 })
      inst
  in
  (* The zero-fault row must agree with the plain engine: inflation 1. *)
  List.iter
    (fun r ->
      if Float.equal r.param 0. && Float.abs (r.inflation -. 1.) > 1e-9 then
        failwith
          (Printf.sprintf
             "fault sweep: zero-fault inflation %.12f <> 1 for %s (%s)"
             r.inflation r.f_algo r.family))
    (crash_rows @ slip_rows);
  let out = if quick then "BENCH_faults_quick.json" else "BENCH_faults.json" in
  let oc = open_out out in
  output_string oc (faults_json ~jobs ~seeds (crash_rows @ slip_rows));
  close_out oc;
  Printf.printf "wrote %s\n" out

(* ------------------------------------------------------------------ *)
(* Part 5: parallel scaling sweep (BENCH_par.json).                     *)

let par_packers () =
  [
    Dbp_sim.Runner.online Dbp_online.Any_fit.first_fit;
    Dbp_sim.Runner.online Dbp_online.Any_fit.best_fit;
    Dbp_sim.Runner.online Dbp_online.Any_fit.worst_fit;
    Dbp_sim.Runner.online (Dbp_online.Hybrid_first_fit.make ());
    Dbp_sim.Runner.offline "ddff" Dbp_offline.Ddff.pack;
  ]

let par_sweep ~items ~seeds ~mus pool =
  let generate ~seed mu =
    (* Replicate seeds go through the same splitmix64 stream derivation
       the pool's determinism contract prescribes for per-task
       randomness (Prng.derive), so each workload is a pure function of
       (root, replicate) no matter which domain generates it. *)
    let seed =
      Dbp_workload.Prng.int
        (Dbp_workload.Prng.derive ~root:42 ~index:seed)
        1_000_000
    in
    Dbp_workload.Generator.with_mu ~seed ~items ~mu ()
  in
  Dbp_sim.Sweep.run ?pool ~seeds ~parameters:mus ~generate
    ~packers:(par_packers ())
    ~metric:(fun _ packing -> Dbp_core.Packing.total_usage_time packing)
    ()

let points_equal ps qs =
  List.length ps = List.length qs
  && List.for_all2
       (fun (p : Dbp_sim.Sweep.point) (q : Dbp_sim.Sweep.point) ->
         Float.equal p.parameter q.parameter
         && String.equal p.label q.label
         && p.ratios.Dbp_sim.Stats.n = q.ratios.Dbp_sim.Stats.n
         && Float.equal p.ratios.mean q.ratios.mean
         && Float.equal p.ratios.stddev q.ratios.stddev
         && Float.equal p.ratios.min q.ratios.min
         && Float.equal p.ratios.max q.ratios.max)
       ps qs

let usage_total points =
  List.fold_left
    (fun acc (p : Dbp_sim.Sweep.point) ->
      acc +. (p.ratios.Dbp_sim.Stats.mean *. float_of_int p.ratios.n))
    0. points

type par_row = {
  p_domains : int;
  seconds : float;
  speedup : float option;  (* None when oversubscribed *)
  p_usage : float;
  identical : bool;
}

let par_json ~items ~seeds ~mus ~cores rows =
  let row_json { p_domains; seconds; speedup; p_usage; identical } =
    Printf.sprintf
      "    {\"domains\": %d, \"seconds\": %.6f, \"speedup\": %s, \
       \"oversubscribed\": %b, \"usage_total\": %.9f, \
       \"identical_to_baseline\": %b}"
      p_domains seconds
      (match speedup with Some x -> Printf.sprintf "%.3f" x | None -> "null")
      (p_domains > cores) p_usage identical
  in
  String.concat ""
    [
      "{\n";
      "  \"benchmark\": \"parallel scaling sweep (dbp.par domain pool)\",\n";
      "  \"command\": \"dune exec bench/main.exe -- par\",\n";
      Printf.sprintf
        "  \"workload\": \"Sweep.run, Generator.with_mu %d items, mus [%s], \
         %d Prng.derive-keyed seed replicates, 5 packers\",\n"
        items
        (String.concat "; " (List.map (Printf.sprintf "%g") mus))
        seeds;
      "  \"note\": \"every row's full point list is asserted bit-identical \
       to the sequential 1-domain baseline (pool determinism contract); \
       speedup is baseline seconds / row seconds, best of the timing \
       repetitions, and null on rows with more domains than nproc \
       (oversubscribed: the domains share cores, so the ratio says nothing \
       about scaling)\",\n";
      Printf.sprintf "  \"nproc\": %d,\n" cores;
      "  \"results\": [\n";
      String.concat ",\n" (List.map row_json rows);
      "\n  ]\n}\n";
    ]

let run_par ~quick ~domains_limit () =
  let items = if quick then 300 else 2_000 in
  let seeds = if quick then 2 else 6 in
  let mus = if quick then [ 2.; 8. ] else [ 2.; 8.; 32.; 64. ] in
  let reps = if quick then 1 else 3 in
  let cores = Dbp_par.Pool.available_cores () in
  let grid =
    let base = if quick then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
    match domains_limit with
    | None -> base
    | Some limit ->
        let limit = max 1 limit in
        List.sort_uniq Int.compare
          (1 :: limit :: List.filter (fun d -> d < limit) base)
  in
  Printf.printf "=== Parallel scaling sweep (%s; %d core%s available) ===\n%!"
    (if quick then "quick" else "full")
    cores
    (if cores = 1 then "" else "s");
  let baseline = ref None in
  let rows =
    List.map
      (fun domains ->
        let seconds, points =
          if domains = 1 then
            time_best reps (fun () -> par_sweep ~items ~seeds ~mus None)
          else
            Dbp_par.Pool.with_pool ~domains (fun pool ->
                time_best reps (fun () ->
                    par_sweep ~items ~seeds ~mus (Some pool)))
        in
        let base_seconds, base_points =
          match !baseline with
          | Some b -> b
          | None ->
              baseline := Some (seconds, points);
              (seconds, points)
        in
        let identical = points_equal points base_points in
        if not identical then
          failwith
            (Printf.sprintf
               "par sweep: point list at %d domains differs from the \
                1-domain baseline (determinism contract violated)"
               domains);
        let speedup =
          if domains > cores then None else Some (base_seconds /. seconds)
        in
        Printf.printf
          "  %2d domains  %8.4fs  speedup %s  usage total %.3f  \
           identical yes\n\
           %!"
          domains seconds
          (match speedup with
          | Some x -> Printf.sprintf "%5.2fx" x
          | None -> "  n/a (oversubscribed)")
          (usage_total points);
        { p_domains = domains; seconds; speedup; p_usage = usage_total points;
          identical })
      grid
  in
  (if cores >= 4 then
     match List.find_opt (fun r -> r.p_domains = 4) rows with
     | Some { speedup = Some x; _ } when x < 2.5 ->
         Printf.printf
           "  WARNING: 4-domain speedup %.2fx is below the 2.5x target on \
            a %d-core machine\n\
            %!"
           x cores
     | _ -> ());
  let out = if quick then "BENCH_par_quick.json" else "BENCH_par.json" in
  let oc = open_out out in
  output_string oc (par_json ~items ~seeds ~mus ~cores rows);
  close_out oc;
  Printf.printf "wrote %s\n" out

(* ------------------------------------------------------------------ *)
(* Part 6: observer overhead sweep (BENCH_obs.json).                     *)

let obs_algorithms () =
  [
    ("first-fit", Dbp_online.Any_fit.first_fit);
    ("best-fit", Dbp_online.Any_fit.best_fit);
  ]

(* Loud-failure threshold for the largest row: tracing every decision
   may not double the engine's cost. *)
let obs_overhead_limit = 2.0
let obs_assert_floor = 50_000

type obs_row = {
  o_jobs : int;
  o_algo : string;
  off_s : float;
  on_s : float;
  o_overhead : float; (* on_s / off_s *)
  o_events : int;
  o_usage : float;
}

let obs_sweep sizes =
  List.concat_map
    (fun n ->
      let inst = engine_instance n in
      let jobs = Dbp_core.Instance.length inst in
      let reps =
        if jobs <= 2_000 then 15 else if jobs <= 20_000 then 5 else 3
      in
      List.map
        (fun (name, algo) ->
          let off_s, usage =
            time_best reps (fun () ->
                Dbp_core.Packing.total_usage_time
                  (Dbp_online.Engine.run algo inst))
          in
          let recorder = Dbp_obs.Trace.create () in
          let observer = Dbp_obs.Trace.observer recorder in
          let on_s, on_usage =
            time_best reps (fun () ->
                Dbp_obs.Trace.clear recorder;
                Dbp_core.Packing.total_usage_time
                  (Dbp_online.Engine.run ~observer algo inst))
          in
          if not (Float.equal usage on_usage) then
            failwith
              (Printf.sprintf
                 "obs sweep: observer perturbed the packing: %s on %d \
                  jobs: bare %.9f vs observed %.9f"
                 name jobs usage on_usage);
          let row =
            {
              o_jobs = jobs;
              o_algo = name;
              off_s;
              on_s;
              o_overhead = on_s /. off_s;
              o_events = Dbp_obs.Trace.emitted recorder;
              o_usage = usage;
            }
          in
          Printf.printf
            "  %7d jobs  %-10s bare %8.4fs  observed %8.4fs  (%.2fx, %d \
             events)\n\
             %!"
            jobs name off_s on_s row.o_overhead row.o_events;
          row)
        (obs_algorithms ()))
    sizes

let obs_json ~span_section rows =
  let row_json r =
    Printf.sprintf
      "    {\"jobs\": %d, \"algorithm\": \"%s\", \"bare_s\": %.6f, \
       \"observed_s\": %.6f, \"overhead\": %.3f, \"events\": %d, \
       \"usage\": %.9f}"
      r.o_jobs r.o_algo r.off_s r.on_s r.o_overhead r.o_events r.o_usage
  in
  String.concat ""
    [
      "{\n";
      "  \"benchmark\": \"observer overhead sweep (indexed engine, trace \
       recorder)\",\n";
      "  \"command\": \"dune exec bench/main.exe -- obs\",\n";
      "  \"workload\": \"Generator.default, seed 42, horizon = jobs/2\",\n";
      Printf.sprintf
        "  \"note\": \"overhead = observed seconds / bare seconds, best of \
         the timing repetitions; usage asserted identical between bare and \
         observed runs on every row; rows with >= %d jobs must stay under \
         %.1fx overhead or the bench fails\",\n"
        obs_assert_floor obs_overhead_limit;
      "  \"results\": [\n";
      String.concat ",\n" (List.map row_json rows);
      "\n  ],\n";
      span_section;
      "}\n";
    ]

(* ------------------------------------------------------------------ *)
(* Part 7: serve sweep (BENCH_serve.json).                              *)

module Sv = Dbp_serve

let serve_lines inst =
  List.map Sv.Arrival.render (Dbp_core.Instance.arrivals_in_order inst)

let serve_session ?journal ?checkpoint ?watermarks ~snapshot_every name =
  let algo =
    match Sv.Portfolio.by_name name with
    | Some a -> a
    | None -> failwith ("serve bench: unknown algorithm " ^ name)
  in
  Sv.Session.create ?journal ?checkpoint
    (Sv.Session.config ?watermarks ~snapshot_every ~name algo)

(* Feed every line through one session; any Fatal is a bench bug.
   [depth] synthesises the queue-depth signal (the ladder driver). *)
let serve_feed ?(depth = fun _ -> 0) s lines =
  let snaps = ref 0 in
  List.iteri
    (fun i line ->
      (match Sv.Session.feed s ~depth:(depth i) line with
      | Sv.Session.Emit _ | Sv.Session.Replayed | Sv.Session.Skipped _ -> ()
      | Sv.Session.Fatal f ->
          failwith ("serve bench: " ^ Sv.Session.fatal_to_string f));
      if Sv.Session.snapshot_due s then begin
        ignore (Sv.Session.take_snapshot s);
        incr snaps
      end)
    lines;
  (match Sv.Session.finish s with
  | Ok () -> ()
  | Error f -> failwith ("serve bench: " ^ Sv.Session.fatal_to_string f));
  !snaps

(* ---- span-pipeline overhead (PR 10, the "spans" section of
   BENCH_obs.json) ---------------------------------------------------------

   Three variants of the same session drive loop: bare (no span calls
   at all), disabled (issue/commit against a sample=0 recorder — the
   shape every daemon line now runs), and sampled at the stride the
   acceptance gate names.  Sessions are stateful, so every timed
   repetition feeds a fresh one; all variants pay the same creation
   cost.  The sampled sink swallows the rendered line, i.e. the full
   daemon-side span cost minus only the final write(2). *)

let span_sample_stride = 16
let span_overhead_limit = 1.3
let span_assert_floor = 50_000

(* Ceilings on the *extra* minor words per line over the bare loop:
   the disabled path may not allocate at all (measurement jitter
   allowance only); the sampled path amortises one armed ticket (a
   12-word floatarray plus the [Some] boxing at the [?span] call) and
   one rendered JSONL line (~280 words of Buffer/Printf churn) over
   [span_sample_stride] arrivals — measured ~19 words/line at 1/16. *)
let span_disabled_words_ceiling = 2.
let span_sampled_words_ceiling = 24.

type span_row = {
  sp_lines : int;
  sp_bare_s : float;
  sp_disabled_s : float;
  sp_sampled_s : float;
  sp_overhead : float; (* sampled / bare *)
  sp_committed : int;
  sp_disabled_dwpl : float; (* extra minor words/line, disabled recorder *)
  sp_sampled_dwpl : float; (* extra minor words/line, sampled recorder *)
}

let span_session ?span_clock () =
  match Sv.Portfolio.by_name "first-fit" with
  | Some algo ->
      Sv.Session.create ?span_clock
        (Sv.Session.config ~snapshot_every:0 ~name:"first-fit" algo)
  | None -> failwith "span bench: first-fit missing"

let span_feed_bare lines =
  let s = span_session () in
  Array.iter
    (fun line ->
      match Sv.Session.feed s ~depth:0 line with
      | Sv.Session.Emit _ | Sv.Session.Replayed | Sv.Session.Skipped _ -> ()
      | Sv.Session.Fatal f ->
          failwith ("span bench: " ^ Sv.Session.fatal_to_string f))
    lines

(* One full drive-loop pass with issue/stamp-in-session/commit, like
   the daemon's.  Returns the recorder so callers can read counters. *)
let span_feed_spans ~sample lines =
  let spans =
    if sample = 0 then Dbp_obs.Span.disabled
    else Dbp_obs.Span.create ~sink:ignore ~sample ~shards:1 ()
  in
  let span_clock =
    if Dbp_obs.Span.enabled spans then Some (Dbp_obs.Span.clock spans)
    else None
  in
  let s = span_session ?span_clock () in
  Array.iter
    (fun line ->
      let tk = Dbp_obs.Span.issue spans in
      (* Branch like the daemon: [~span] on an optional parameter boxes
         a [Some] per call, so unarmed tickets take the bare path. *)
      let outcome =
        if Dbp_obs.Span.active tk then Sv.Session.feed s ~span:tk ~depth:0 line
        else Sv.Session.feed s ~depth:0 line
      in
      (match outcome with
      | Sv.Session.Emit _ | Sv.Session.Replayed | Sv.Session.Skipped _ -> ()
      | Sv.Session.Fatal f ->
          failwith ("span bench: " ^ Sv.Session.fatal_to_string f));
      Dbp_obs.Span.commit spans tk)
    lines;
  spans

let span_sweep sizes =
  List.map
    (fun n ->
      let inst = engine_instance n in
      let lines = Array.of_list (serve_lines inst) in
      let m = Array.length lines in
      let reps = if m <= 20_000 then 7 else 3 in
      let sp_bare_s, () = time_best reps (fun () -> span_feed_bare lines) in
      let sp_disabled_s, _ =
        time_best reps (fun () -> span_feed_spans ~sample:0 lines)
      in
      let sp_sampled_s, spans =
        time_best reps (fun () ->
            span_feed_spans ~sample:span_sample_stride lines)
      in
      let words f =
        f ();
        (* warm *)
        let before = Gc.minor_words () in
        f ();
        (Gc.minor_words () -. before) /. float_of_int m
      in
      let bare_wpl = words (fun () -> span_feed_bare lines) in
      let disabled_wpl =
        words (fun () -> ignore (span_feed_spans ~sample:0 lines))
      in
      let sampled_wpl =
        words (fun () ->
            ignore (span_feed_spans ~sample:span_sample_stride lines))
      in
      let row =
        {
          sp_lines = m;
          sp_bare_s;
          sp_disabled_s;
          sp_sampled_s;
          sp_overhead = sp_sampled_s /. sp_bare_s;
          sp_committed = Dbp_obs.Span.committed spans;
          sp_disabled_dwpl = disabled_wpl -. bare_wpl;
          sp_sampled_dwpl = sampled_wpl -. bare_wpl;
        }
      in
      Printf.printf
        "  %7d lines  bare %8.4fs  disabled %8.4fs  sampled(1/%d) %8.4fs \
         (%.2fx)  +%.2f w/line disabled, +%.2f w/line sampled\n\
         %!"
        m sp_bare_s sp_disabled_s span_sample_stride sp_sampled_s
        row.sp_overhead row.sp_disabled_dwpl row.sp_sampled_dwpl;
      row)
    sizes

let span_gate rows =
  List.iter
    (fun r ->
      if r.sp_lines >= span_assert_floor then begin
        if r.sp_overhead > span_overhead_limit then
          failwith
            (Printf.sprintf
               "span bench: sampled overhead %.2fx exceeds the %.1fx \
                budget on %d lines"
               r.sp_overhead span_overhead_limit r.sp_lines);
        if r.sp_disabled_dwpl > span_disabled_words_ceiling then
          failwith
            (Printf.sprintf
               "span bench: disabled spans allocate %.2f extra minor \
                words/line (ceiling %.0f) on %d lines"
               r.sp_disabled_dwpl span_disabled_words_ceiling r.sp_lines);
        if r.sp_sampled_dwpl > span_sampled_words_ceiling then
          failwith
            (Printf.sprintf
               "span bench: sampled spans allocate %.2f extra minor \
                words/line (ceiling %.0f) on %d lines"
               r.sp_sampled_dwpl span_sampled_words_ceiling r.sp_lines)
      end)
    rows

let span_section rows =
  let row_json r =
    Printf.sprintf
      "      {\"lines\": %d, \"bare_s\": %.6f, \"disabled_s\": %.6f, \
       \"sampled_s\": %.6f, \"overhead\": %.3f, \"committed\": %d, \
       \"disabled_delta_words_per_line\": %.2f, \
       \"sampled_delta_words_per_line\": %.2f}"
      r.sp_lines r.sp_bare_s r.sp_disabled_s r.sp_sampled_s r.sp_overhead
      r.sp_committed r.sp_disabled_dwpl r.sp_sampled_dwpl
  in
  String.concat ""
    [
      "  \"spans\": {\n";
      Printf.sprintf
        "    \"note\": \"Session.feed drive loop, first-fit; sampled = \
         --span-sample %d with a swallowing sink; overhead = sampled \
         seconds / bare seconds, gated at %.1fx on rows with >= %d lines; \
         delta words/line gated at %.0f (disabled) and %.0f (sampled)\",\n"
        span_sample_stride span_overhead_limit span_assert_floor
        span_disabled_words_ceiling span_sampled_words_ceiling;
      "    \"results\": [\n";
      String.concat ",\n" (List.map row_json rows);
      "\n    ]\n  }\n";
    ]

let run_obs ~quick () =
  let sizes = if quick then [ 1_000; 100_000 ] else [ 1_000; 10_000; 100_000 ] in
  Printf.printf "=== Observer overhead sweep (%s) ===\n%!"
    (if quick then "quick" else "full");
  let rows = obs_sweep sizes in
  List.iter
    (fun r ->
      if r.o_jobs >= obs_assert_floor && r.o_overhead > obs_overhead_limit then
        failwith
          (Printf.sprintf
             "obs sweep: observer overhead %.2fx exceeds the %.1fx budget \
              for %s on %d jobs"
             r.o_overhead obs_overhead_limit r.o_algo r.o_jobs))
    rows;
  Printf.printf "=== Span pipeline overhead ===\n%!";
  let spans = span_sweep sizes in
  span_gate spans;
  let out = if quick then "BENCH_obs_quick.json" else "BENCH_obs.json" in
  let oc = open_out out in
  output_string oc (obs_json ~span_section:(span_section spans) rows);
  close_out oc;
  Printf.printf "wrote %s\n" out

type serve_tp_row = {
  sv_algo : string;
  sv_arrivals : int;
  sv_s : float;
  sv_lps : float;
}

let serve_throughput ~sizes ~algos =
  List.concat_map
    (fun n ->
      let inst = engine_instance n in
      let lines = serve_lines inst in
      let arrivals = List.length lines in
      let reps = if arrivals <= 20_000 then 5 else 1 in
      List.map
        (fun name ->
          let sv_s, _ =
            time_best reps (fun () ->
                serve_feed (serve_session ~snapshot_every:0 name) lines)
          in
          let row =
            {
              sv_algo = name;
              sv_arrivals = arrivals;
              sv_s;
              sv_lps = float_of_int arrivals /. sv_s;
            }
          in
          Printf.printf "  %7d arrivals  %-10s %8.4fs  (%.0f lines/s)\n%!"
            arrivals name sv_s row.sv_lps;
          row)
        algos)
    sizes

(* Bounded-memory contract: heap growth while streaming must be
   O(open jobs), not O(arrivals processed).  We compact once after the
   workload is materialised (the driver's own O(n) cost), then watch the
   major heap every [soak_sample_every] lines; a session that retained
   its decision stream (10^6 lines ~ 30M words) would blow the delta
   ceiling several times over, while the real O(open) state stays well
   under a megaword. *)
let soak_heap_ceiling_words = 8_000_000
let soak_sample_every = 16_384

type soak_result = {
  sk_arrivals : int;
  sk_snapshots : int;
  sk_baseline_words : int;
  sk_max_delta_words : int;
  sk_max_open_jobs : int;
  sk_s : float;
}

let serve_soak ~arrivals =
  let inst = engine_instance arrivals in
  let items = Dbp_core.Instance.arrivals_in_order inst in
  let n = List.length items in
  let s = serve_session ~snapshot_every:8192 "first-fit" in
  Gc.compact ();
  let baseline = (Gc.quick_stat ()).Gc.heap_words in
  let max_delta = ref 0 in
  let max_open = ref 0 in
  let snaps = ref 0 in
  let t0 = Dbp_obs.Clock.now Dbp_obs.Clock.monotonic in
  List.iteri
    (fun i item ->
      (* Render on the fly: retaining the rendered stream would make the
         driver itself O(n) and mask a session leak. *)
      (match Sv.Session.feed s ~depth:0 (Sv.Arrival.render item) with
      | Sv.Session.Emit _ -> ()
      | Sv.Session.Replayed | Sv.Session.Skipped _ -> ()
      | Sv.Session.Fatal f ->
          failwith ("serve soak: " ^ Sv.Session.fatal_to_string f));
      if Sv.Session.snapshot_due s then begin
        ignore (Sv.Session.take_snapshot s);
        incr snaps
      end;
      if i land (soak_sample_every - 1) = 0 then begin
        let heap = (Gc.quick_stat ()).Gc.heap_words in
        if heap - baseline > !max_delta then max_delta := heap - baseline;
        let open_jobs = Sv.Stream_engine.open_jobs (Sv.Session.engine s) in
        if open_jobs > !max_open then max_open := open_jobs
      end)
    items;
  (match Sv.Session.finish s with
  | Ok () -> ()
  | Error f -> failwith ("serve soak: " ^ Sv.Session.fatal_to_string f));
  let sk_s = Dbp_obs.Clock.now Dbp_obs.Clock.monotonic -. t0 in
  if !max_delta > soak_heap_ceiling_words then
    failwith
      (Printf.sprintf
         "serve soak: major heap grew %d words over the post-build baseline \
          (ceiling %d) — session memory is not O(open jobs)"
         !max_delta soak_heap_ceiling_words);
  Printf.printf
    "  soak %7d arrivals  %8.4fs  heap delta %d words (ceiling %d)  max \
     open jobs %d  %d snapshots\n\
     %!"
    n sk_s !max_delta soak_heap_ceiling_words !max_open !snaps;
  {
    sk_arrivals = n;
    sk_snapshots = !snaps;
    sk_baseline_words = baseline;
    sk_max_delta_words = !max_delta;
    sk_max_open_jobs = !max_open;
    sk_s;
  }

type restart_result = {
  rs_arrivals : int;
  rs_live_s : float;
  rs_replay_s : float;
}

(* Crash-restart latency: run a stream once (phase 1), keep its decision
   lines as the journal and its last snapshot as the checkpoint, then
   time the full resume path — replay the same input against journal +
   checkpoint through to live — and assert the rebuilt engine digest
   matches phase 1's.  This is the `--resume` cost a supervisor pays. *)
let serve_restart ~arrivals =
  let inst = engine_instance arrivals in
  let lines = serve_lines inst in
  let n = List.length lines in
  let emitted = ref [] in
  let last_snap = ref None in
  let s1 = serve_session ~snapshot_every:(max 1 (n / 2)) "first-fit" in
  let live_s, () =
    time_best 1 (fun () ->
        List.iter
          (fun line ->
            (match Sv.Session.feed s1 ~depth:0 line with
            | Sv.Session.Emit out -> emitted := out :: !emitted
            | Sv.Session.Replayed | Sv.Session.Skipped _ -> ()
            | Sv.Session.Fatal f ->
                failwith ("serve restart: " ^ Sv.Session.fatal_to_string f));
            if Sv.Session.snapshot_due s1 then
              last_snap := Some (Sv.Session.take_snapshot s1))
          lines)
  in
  (match Sv.Session.finish s1 with
  | Ok () -> ()
  | Error f -> failwith ("serve restart: " ^ Sv.Session.fatal_to_string f));
  let journal_lines = List.rev !emitted in
  let digest1 = Sv.Stream_engine.digest (Sv.Session.engine s1) in
  let checkpoint =
    Option.map Sv.Session.checkpoint_of_snapshot !last_snap
  in
  let reps = if n <= 20_000 then 5 else 1 in
  let rs_replay_s, () =
    time_best reps (fun () ->
        let remaining = ref journal_lines in
        let journal () =
          match !remaining with
          | [] -> None
          | l :: tl ->
              remaining := tl;
              Some (Sv.Decision.parse l)
        in
        let s2 = serve_session ~journal ?checkpoint ~snapshot_every:0
            "first-fit"
        in
        ignore (serve_feed s2 lines);
        let digest2 = Sv.Stream_engine.digest (Sv.Session.engine s2) in
        if not (String.equal digest1 digest2) then
          failwith
            (Printf.sprintf
               "serve restart: replayed digest %s <> live digest %s"
               digest2 digest1))
  in
  Printf.printf
    "  restart %5d arrivals  live %8.4fs  replay-to-live %8.4fs  (%.2fx)  \
     digest ok\n\
     %!"
    n live_s rs_replay_s
    (rs_replay_s /. live_s);
  { rs_arrivals = n; rs_live_s = live_s; rs_replay_s }

type ladder_result = {
  ld_arrivals : int;
  ld_shed : int;
  ld_coarsen : int;
  ld_reject : int;
  ld_rejected : int;
}

(* Graceful-degradation contract: a triangle-wave depth signal sweeping
   0..2*reject must engage (and later release) every rung, and rejects
   must appear only while the wave is above the reject watermark. *)
let serve_ladder ~arrivals =
  let wm = { Sv.Admission.shed = 100; coarsen = 200; reject = 300 } in
  let inst = engine_instance arrivals in
  let lines = serve_lines inst in
  let n = List.length lines in
  let depth i =
    let p = i mod 1200 in
    if p < 600 then p else 1200 - p
  in
  let s = serve_session ~watermarks:wm ~snapshot_every:0 "first-fit" in
  ignore (serve_feed ~depth s lines);
  let shed, coarsen, reject = Sv.Session.transitions s in
  let rejected = Sv.Session.rejected s in
  if shed = 0 || coarsen = 0 || reject = 0 then
    failwith
      (Printf.sprintf
         "serve ladder: some rung never engaged (shed %d, coarsen %d, \
          reject %d transitions)"
         shed coarsen reject);
  if rejected = 0 then
    failwith "serve ladder: top rung engaged but nothing was rejected";
  Printf.printf
    "  ladder %6d arrivals  transitions shed %d / coarsen %d / reject %d  \
     rejected %d\n\
     %!"
    n shed coarsen reject rejected;
  {
    ld_arrivals = n;
    ld_shed = shed;
    ld_coarsen = coarsen;
    ld_reject = reject;
    ld_rejected = rejected;
  }

(* ---- shard-scaling sweep (PR 9) ---------------------------------------

   Time the sharded daemon end-to-end (file in, merged file + segments
   out) at 1/2/4 shards over a tenant-striped workload, asserting the
   determinism contract before trusting any number: every journal
   segment must be byte-identical to an unsharded session driven over
   the router-filtered input for that shard.  The >= 1.8x-at-4-shards
   gate only holds where 4 cores exist; on smaller hosts the sweep
   still runs (correctness is core-count independent) and the gate
   records "cores_available" instead of failing. *)

type shard_row = {
  sh_shards : int;
  sh_s : float;
  sh_lps : float;
  sh_speedup : float;  (* vs the 1-shard run *)
}

type shard_gate = {
  sg_enforced : bool;
  sg_reason : string;  (* "enforced" or why not *)
  sg_speedup4 : float;
}

let shard_speedup_required = 1.8

let serve_shard_sweep ~arrivals =
  let inst = engine_instance arrivals in
  let items = Dbp_core.Instance.arrivals_in_order inst in
  let lines =
    List.map
      (fun item ->
        Sv.Arrival.render
          ~tenant:(Printf.sprintf "t%d" (Dbp_core.Item.id item mod 17))
          item)
      items
  in
  let n = List.length lines in
  let scfg =
    match Sv.Portfolio.by_name "first-fit" with
    | Some algo -> Sv.Session.config ~snapshot_every:0 ~name:"first-fit" algo
    | None -> failwith "serve shard bench: unknown algorithm first-fit"
  in
  let dir = Filename.temp_file "dbp_bench_shard" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> Sys.remove (Filename.concat dir e))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let input = Filename.concat dir "input.jsonl" in
      let oc = open_out_bin input in
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines;
      close_out oc;
      let read_lines path =
        In_channel.with_open_bin path (fun ic ->
            let rec go acc =
              match In_channel.input_line ic with
              | Some l -> go (l :: acc)
              | None -> List.rev acc
            in
            go [])
      in
      let unsharded_reference filtered =
        let s = serve_session ~snapshot_every:0 "first-fit" in
        let out = ref [] in
        List.iter
          (fun line ->
            match Sv.Session.feed s ~depth:0 line with
            | Sv.Session.Emit l -> out := l :: !out
            | Sv.Session.Replayed | Sv.Session.Skipped _ -> ()
            | Sv.Session.Fatal f ->
                failwith ("serve shard bench: " ^ Sv.Session.fatal_to_string f))
          filtered;
        (match Sv.Session.finish s with
        | Ok () -> ()
        | Error f ->
            failwith ("serve shard bench: " ^ Sv.Session.fatal_to_string f));
        List.rev !out
      in
      let run_at k =
        let output = Filename.concat dir (Printf.sprintf "s%d.out" k) in
        let cfg =
          {
            Sv.Shard.base =
              {
                Sv.Daemon.default_config with
                Sv.Daemon.input = Sv.Daemon.In_file input;
                output;
              };
            shards = k;
            routes = [];
            metrics_port = None;
          }
        in
        let t0 = Dbp_obs.Clock.now Dbp_obs.Clock.monotonic in
        (match Sv.Shard.run cfg scfg with
        | Ok _ -> ()
        | Error e -> failwith ("serve shard bench: " ^ e));
        let s = Dbp_obs.Clock.now Dbp_obs.Clock.monotonic -. t0 in
        (* the determinism contract, checked before the number counts *)
        let router = Sv.Router.create ~shards:k () in
        let sc = Sv.Arrival.scratch () in
        for i = 0 to k - 1 do
          let filtered =
            List.filter
              (fun line ->
                match Sv.Arrival.parse_into sc line with
                | Ok () -> Sv.Arrival.shard_for router sc = i
                | Error _ -> i = 0)
              lines
          in
          let want = unsharded_reference filtered in
          let got = read_lines (Sv.Shard.segment_path output i) in
          if want <> got then
            failwith
              (Printf.sprintf
                 "serve shard bench: segment %d of %d-shard run diverges \
                  from the router-filtered unsharded run"
                 i k)
        done;
        s
      in
      let t1 = run_at 1 in
      let rows =
        List.map
          (fun k ->
            let s = if k = 1 then t1 else run_at k in
            let row =
              {
                sh_shards = k;
                sh_s = s;
                sh_lps = float_of_int n /. s;
                sh_speedup = t1 /. s;
              }
            in
            Printf.printf
              "  shards %d  %7d arrivals  %8.4fs  (%.0f lines/s, %.2fx, \
               segments verified)\n\
               %!"
              k n s row.sh_lps row.sh_speedup;
            row)
          [ 1; 2; 4 ]
      in
      let speedup4 =
        match List.find_opt (fun r -> r.sh_shards = 4) rows with
        | Some r -> r.sh_speedup
        | None -> 0.
      in
      let cores = Dbp_par.Pool.available_cores () in
      let gate =
        if cores >= 4 then begin
          if speedup4 < shard_speedup_required then
            failwith
              (Printf.sprintf
                 "serve shard bench: %.2fx at 4 shards on %d cores (gate \
                  %.1fx)"
                 speedup4 cores shard_speedup_required);
          { sg_enforced = true; sg_reason = "enforced"; sg_speedup4 = speedup4 }
        end
        else begin
          Printf.printf
            "  WARNING: speedup gate skipped — %d core(s) available, 4 \
             needed\n\
             %!"
            cores;
          {
            sg_enforced = false;
            sg_reason = "cores_available";
            sg_speedup4 = speedup4;
          }
        end
      in
      (rows, gate))

(* ---- allocation microbench (PR 9) --------------------------------------

   Minor words per arrival through the in-place parse_into scratch path
   (the one arrival parser), and through the whole Session.feed path it
   sits on (parse, admission, engine decision, decision render) for
   first-fit.  The committed ceiling holds parse_into to its budget: a
   regression that re-boxes the hot path fails the bench, not just a
   profile. *)

type alloc_result = {
  al_lines : int;
  al_feed_wpl : float;
  al_parse_into_wpl : float;
}

let parse_into_words_ceiling = 48.

let serve_alloc ~lines:n =
  let inst = engine_instance n in
  let items = Dbp_core.Instance.arrivals_in_order inst in
  let arr =
    Array.of_list
      (List.mapi
         (fun i item ->
           Sv.Arrival.render ~tenant:(Printf.sprintf "t%d" (i mod 17)) item)
         items)
  in
  let m = Array.length arr in
  (* [f] runs twice, the first pass warming caches and the minor heap
     shape; [fresh] builds its per-pass state outside the measurement. *)
  let per_line fresh f =
    f (fresh ());
    let st = fresh () in
    let before = Gc.minor_words () in
    f st;
    (Gc.minor_words () -. before) /. float_of_int m
  in
  let al_feed_wpl =
    per_line
      (fun () -> serve_session ~snapshot_every:0 "first-fit")
      (fun s ->
        Array.iter
          (fun line ->
            match Sv.Session.feed s ~depth:0 line with
            | Sv.Session.Emit _ -> ()
            | Sv.Session.Replayed | Sv.Session.Skipped _ ->
                failwith "serve alloc bench: line not decided"
            | Sv.Session.Fatal f ->
                failwith ("serve alloc bench: " ^ Sv.Session.fatal_to_string f))
          arr)
  in
  let al_parse_into_wpl =
    per_line Sv.Arrival.scratch (fun sc ->
        Array.iter
          (fun line ->
            match Sv.Arrival.parse_into sc line with
            | Ok () -> ()
            | Error e -> failwith ("serve alloc bench: " ^ e))
          arr)
  in
  if al_parse_into_wpl > parse_into_words_ceiling then
    failwith
      (Printf.sprintf
         "serve alloc bench: parse_into allocates %.1f minor words/line \
          (ceiling %.0f)"
         al_parse_into_wpl parse_into_words_ceiling);
  Printf.printf
    "  alloc %7d lines  parse_into %.1f w/line (ceiling %.0f)  \
     Session.feed %.1f w/line\n\
     %!"
    m al_parse_into_wpl parse_into_words_ceiling al_feed_wpl;
  { al_lines = m; al_feed_wpl; al_parse_into_wpl }

let serve_json ~tp_rows ~soak ~restart ~ladder ~shard_rows ~shard_gate ~alloc =
  let tp_json r =
    Printf.sprintf
      "    {\"algorithm\": \"%s\", \"arrivals\": %d, \"seconds\": %.6f, \
       \"lines_per_s\": %.0f}"
      r.sv_algo r.sv_arrivals r.sv_s r.sv_lps
  in
  String.concat ""
    [
      "{\n";
      "  \"benchmark\": \"serve streaming sweep (session feed path)\",\n";
      "  \"command\": \"dune exec bench/main.exe -- serve\",\n";
      "  \"workload\": \"Generator.default, seed 42, horizon = arrivals/2, \
       rendered through Arrival.render\",\n";
      Printf.sprintf
        "  \"note\": \"throughput is parse-to-decision through \
         Session.feed; soak asserts major-heap growth over the post-build \
         baseline stays under %d words across the stream (bounded-memory \
         contract); restart times the full journal-replay resume path and \
         asserts digest equality with the live run; ladder drives a \
         triangle queue-depth wave through watermarks 100/200/300 and \
         asserts every rung engages; shards times the sharded daemon at \
         1/2/4 shards with every journal segment byte-compared against a \
         router-filtered unsharded run before the number counts (speedup \
         gate %.1fx at 4 shards, enforced only with >= 4 cores); alloc \
         holds the zero-alloc arrival path to %.0f minor words/line\",\n"
        soak_heap_ceiling_words shard_speedup_required
        parse_into_words_ceiling;
      "  \"throughput\": [\n";
      String.concat ",\n" (List.map tp_json tp_rows);
      "\n  ],\n";
      Printf.sprintf
        "  \"soak\": {\"arrivals\": %d, \"seconds\": %.4f, \
         \"heap_ceiling_words\": %d, \"max_heap_delta_words\": %d, \
         \"baseline_heap_words\": %d, \"max_open_jobs\": %d, \
         \"snapshots\": %d},\n"
        soak.sk_arrivals soak.sk_s soak_heap_ceiling_words
        soak.sk_max_delta_words soak.sk_baseline_words soak.sk_max_open_jobs
        soak.sk_snapshots;
      Printf.sprintf
        "  \"restart\": {\"arrivals\": %d, \"live_s\": %.6f, \"replay_s\": \
         %.6f, \"replay_ratio\": %.3f, \"digest_match\": true},\n"
        restart.rs_arrivals restart.rs_live_s restart.rs_replay_s
        (restart.rs_replay_s /. restart.rs_live_s);
      Printf.sprintf
        "  \"ladder\": {\"arrivals\": %d, \"watermarks\": {\"shed\": 100, \
         \"coarsen\": 200, \"reject\": 300}, \"shed_transitions\": %d, \
         \"coarsen_transitions\": %d, \"reject_transitions\": %d, \
         \"rejected\": %d},\n"
        ladder.ld_arrivals ladder.ld_shed ladder.ld_coarsen ladder.ld_reject
        ladder.ld_rejected;
      "  \"shards\": [\n";
      String.concat ",\n"
        (List.map
           (fun r ->
             Printf.sprintf
               "    {\"shards\": %d, \"seconds\": %.6f, \"lines_per_s\": \
                %.0f, \"speedup\": %.3f, \"segments_verified\": true}"
               r.sh_shards r.sh_s r.sh_lps r.sh_speedup)
           shard_rows);
      "\n  ],\n";
      Printf.sprintf
        "  \"shard_gate\": {\"required_speedup_at_4\": %.1f, \"enforced\": \
         %b, \"reason\": \"%s\", \"speedup_at_4\": %.3f, \
         \"cores_available\": %d},\n"
        shard_speedup_required shard_gate.sg_enforced shard_gate.sg_reason
        shard_gate.sg_speedup4
        (Dbp_par.Pool.available_cores ());
      Printf.sprintf
        "  \"alloc\": {\"lines\": %d, \
         \"parse_into_minor_words_per_line\": %.1f, \
         \"parse_into_ceiling_words\": %.0f, \
         \"session_feed_minor_words_per_line\": %.1f}\n"
        alloc.al_lines alloc.al_parse_into_wpl parse_into_words_ceiling
        alloc.al_feed_wpl;
      "}\n";
    ]

let run_serve ~quick () =
  Printf.printf "=== Serve sweep (%s) ===\n%!"
    (if quick then "quick" else "full");
  tune_gc_for_engine ();
  let tp_sizes = if quick then [ 10_000 ] else [ 100_000; 1_000_000 ] in
  let tp_rows =
    serve_throughput ~sizes:tp_sizes ~algos:[ "first-fit"; "best-fit" ]
  in
  let soak = serve_soak ~arrivals:(if quick then 100_000 else 1_000_000) in
  let restart = serve_restart ~arrivals:(if quick then 10_000 else 100_000) in
  let ladder = serve_ladder ~arrivals:(if quick then 5_000 else 20_000) in
  let shard_rows, shard_gate =
    serve_shard_sweep ~arrivals:(if quick then 20_000 else 100_000)
  in
  let alloc = serve_alloc ~lines:(if quick then 20_000 else 100_000) in
  let out = if quick then "BENCH_serve_quick.json" else "BENCH_serve.json" in
  let oc = open_out out in
  output_string oc
    (serve_json ~tp_rows ~soak ~restart ~ladder ~shard_rows ~shard_gate ~alloc);
  close_out oc;
  Printf.printf "wrote %s\n" out

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let quick =
    Array.exists (fun a -> a = "--quick") Sys.argv
  in
  let domains_limit =
    let r = ref None in
    Array.iteri
      (fun i a ->
        if a = "--domains" && i + 1 < Array.length Sys.argv then
          r := int_of_string_opt Sys.argv.(i + 1))
      Sys.argv;
    match !r with
    | Some 0 -> Some (Dbp_par.Pool.default_domains ())
    | limit -> limit
  in
  (match mode with
  | "tables" -> run_tables ~domains:domains_limit ()
  | "micro" -> run_micro ()
  | "engine" -> run_engine ~quick ()
  | "faults" -> run_faults ~quick ()
  | "par" -> run_par ~quick ~domains_limit ()
  | "obs" -> run_obs ~quick ()
  | "serve" -> run_serve ~quick ()
  | _ ->
      run_tables ~domains:domains_limit ();
      run_micro ());
  print_newline ()
