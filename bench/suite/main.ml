(* The repository benchmark.  Build and run from the repository root:

     dune build && ./_build/default/bench/suite/main.exe --seed 42 \
       [--workload NAME] [--seconds S] [--trace [0|1]] [--smoke] [--json FILE]

   (bench/suite/run.sh does both.)  Without --trace it measures every
   end-to-end metric of each workload; with it, every per-layer metric.
   Each metric prints as [workload metric value unit]; the last line per
   workload is one JSON object {correct, attempted, failed, metrics}.
   The exit status is non-zero when any output check fails.  README.md
   defines every metric and workload. *)

open Common
module W = Workload

let usage () =
  prerr_endline
    "usage: main.exe [--workload narrow|wide|tenants|batch] [--seed N] \
     [--seconds S] [--trace [0|1]] [--smoke] [--json FILE]";
  exit 2

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable smoke : bool;
  mutable json : string option;
}

let parse_args args =
  let o =
    { workload = None; seed = 42; seconds = 10.; trace = false; smoke = false;
      json = None }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> o.workload <- Some v; go rest
    | "--seed" :: v :: rest -> (
        match int_of_string_opt v with
        | Some s -> o.seed <- s; go rest
        | None -> usage ())
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0. -> o.seconds <- s; go rest
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as v) :: rest -> o.trace <- String.equal v "1"; go rest
    | "--trace" :: rest -> o.trace <- true; go rest
    | "--smoke" :: rest -> o.smoke <- true; go rest
    | "--json" :: v :: rest -> o.json <- Some v; go rest
    | _ -> usage ()
  in
  go args;
  o

let work_root = ".bench_work"

(* The serve shape the traced run drives for the batch workload: its
   instance rendered as narrow-style lines. *)
let serve_of w =
  match w.W.kind with
  | W.Serve s -> s
  | W.Batch _ -> (
      match (Option.get (W.find "narrow")).W.kind with
      | W.Serve s -> s
      | W.Batch _ -> invalid_arg "narrow is a serve workload")

(* ---- untraced: the end-to-end metrics ---------------------------------- *)

let serve_untraced (e : Serve.env) ~seed ~seconds ~nproc =
  let r = e.Serve.r and w = e.Serve.w and s = e.Serve.s in
  let jobs = max s.W.resume_n (W.open_loop_lines s ~seconds) in
  let input = Serve.path e "input.jsonl" in
  (* Set-up is repeated and its median reported; the last copy is kept. *)
  let setup () =
    let inst = W.instance w ~seed ~jobs in
    let items = W.in_order inst in
    let st = W.stream w ~seed items in
    write_lines input st.W.lines;
    (inst, items, st)
  in
  let kept = ref None in
  let setup_times =
    List.init 3 (fun _ ->
        kept := None;
        let t, made = timed setup in
        kept := Some made;
        t)
  in
  let inst, items, st = Option.get !kept in
  let reference = Serve.path e "sat.jsonl" in
  Serve.reference e st ~input ~output:reference;
  let crashed = Serve.crash e st ~input ~crash_k:s.W.crash_k in
  (* The timed saturated runs and resumes alternate, before and after
     the open loop. *)
  let saturated = ref [] and resumes = ref [] in
  let timed_pair i =
    saturated := Serve.saturated e st ~input ~reference i :: !saturated;
    resumes := Serve.resume e crashed ~input i :: !resumes
  in
  for i = 0 to (Serve.repeats / 2) - 1 do
    timed_pair i
  done;
  (* A run that measured the generator rather than the daemon is
     discarded and run again. *)
  let rec attempt k =
    let ol = Serve.open_loop e st ~input ~seconds ~tag:"open" [] in
    let g = ol.Serve.summary in
    note r
      "open loop attempt %d: generator lag p50 %.1f p99 %.1f max %.1f us, \
       longest stall %.1f us; %d echoes lost, %d wrong"
      k g.Loadgen.lag_p50_us g.Loadgen.lag_p99_us g.Loadgen.lag_max_us
      g.Loadgen.stall_us (Loadgen.lost g) g.Loadgen.mismatched;
    if (not (Loadgen.valid g)) && k < 3 then attempt (k + 1) else ol
  in
  let ol = attempt 1 in
  let g = ol.Serve.summary in
  check r "loadgen.valid" (Loadgen.valid g) "generator lag p99 %.1f us, limit %.0f"
    g.Loadgen.lag_p99_us Loadgen.max_lag_p99_us;
  Serve.prefix_of_reference e ~what:"open_loop.byte_identical" ~reference
    ~output:ol.Serve.output ~decisions:ol.Serve.decisions;
  let failed = Loadgen.failures g in
  check r "open_loop.echoes" (failed = 0)
    "%d lines sent; %d of %d echoes matched, %d mismatched, %d overload, \
     longest generator stall %.0f us"
    g.Loadgen.sent g.Loadgen.matched g.Loadgen.expected g.Loadgen.mismatched
    g.Loadgen.overload g.Loadgen.stall_us;
  r.attempted <- g.Loadgen.expected;
  r.failed <- failed;
  for i = Serve.repeats / 2 to Serve.repeats - 1 do
    timed_pair i
  done;
  Serve.complete e st crashed ~input ~reference ~resume_n:s.W.resume_n;
  let walls = List.rev_map fst !saturated and resumes = List.rev !resumes in
  let decisions = snd (List.hd !saturated) in
  note r "saturated runs (%d decisions each): %s s" decisions
    (String.concat " " (List.map (Printf.sprintf "%.3f") walls));
  note r "resume runs (%d decisions replayed each): %s s" crashed.Serve.journaled
    (String.concat " " (List.map (Printf.sprintf "%.3f") resumes));
  (* serve = batch: the usage replayed from the daemon's journal is the
     batch engine's on the same instance. *)
  if String.equal w.W.name "narrow" then begin
    let rp = Serve.replay_journal ~departure:(Serve.departures items) reference in
    let batch = Dbp_online.Engine.run_usage (Batch.algo s.W.algo) inst in
    check r "serve_equals_batch"
      (Float.abs (rp.Serve.usage -. batch) <= 1e-9 *. Float.abs batch)
      "journal usage %.17g, Engine.run_usage %.17g" rp.Serve.usage batch;
    note r "objective.usage_ratio %.6f (usage / max(span_lb, demand_lb))"
      (Serve.usage_ratio inst rp.Serve.usage)
  end;
  if s.W.shards > 0 then
    check r "multicore_host" (nproc >= 2)
      "nproc %d: a sharded daemon's numbers from fewer than 2 cores are not \
       published" nproc;
  metric r "setup_s" (median setup_times +. ol.Serve.connect_s) "s";
  metric r "items_per_s" (float_of_int decisions /. fastest walls) "1/s";
  metric r "latency_p50_us" g.Loadgen.p50_us "us";
  metric r "latency_p90_us" g.Loadgen.p90_us "us";
  metric r "resume_s" (fastest resumes) "s";
  metric r "peak_mem_mb" ol.Serve.peak_mb "MiB";
  note r
    "latency samples %d in %d windows; whole-run p50 %.1f p90 %.1f p99 %.1f \
     us; failed_ratio %g (%d of %d)"
    g.Loadgen.samples windows g.Loadgen.whole_p50_us
    g.Loadgen.whole_p90_us g.Loadgen.p99_us
    (float_of_int failed /. float_of_int (max 1 g.Loadgen.expected))
    failed g.Loadgen.expected

let batch_untraced r (w : W.t) (b : W.batch) ~seed ~dir =
  let job =
    {
      Batch.workload = w;
      seed;
      jobs = b.W.jobs;
      reps = b.W.reps;
      algos = Batch.algos;
      sweep = b.W.sweep;
      sweep_jobs = b.W.sweep_jobs;
      retime = false;
      check = true;
    }
  in
  let _, rep = Batch.spawn_child r ~dir job in
  Batch.check_repeatable r rep;
  (match rep.Batch.usage_check with
  | Some (fast, full) ->
      check r "run_usage_equals_packing" (Float.equal fast full)
        "run_usage %.17g, total_usage_time (run_indexed) %.17g at 10^5 jobs" fast
        full
  | None -> check r "run_usage_equals_packing" false "the child reported no check");
  (* Restart: a fresh child regenerates the instance from the seed and
     recomputes first-fit, the batch path's only way back to a result;
     the fastest of 3 is reported. *)
  let first_fit rep =
    match Batch.runs_of rep "first-fit" with
    | x :: _ -> x.Batch.usage
    | [] -> Float.nan
  in
  let restart_s =
    List.init 3 (fun _ ->
        let wall, again =
          Batch.spawn_child r ~dir
            { job with reps = 1; algos = [ "first-fit" ]; sweep = 0; check = false }
        in
        check r "restart.same_usage"
          (Float.equal (first_fit rep) (first_fit again))
          "first-fit usage %.17g after restart" (first_fit again);
        wall)
  in
  note r "restarts: %s s" (String.concat " " (List.map (Printf.sprintf "%.3f") restart_s));
  (* One repetition runs both algorithms; its time is their sum. *)
  let rep_times =
    List.init b.W.reps (fun k ->
        List.fold_left
          (fun acc x -> if x.Batch.rep = k then acc +. x.Batch.seconds else acc)
          0. rep.Batch.runs)
  in
  note r "repetitions (both algorithms, %d jobs): %s s" b.W.jobs
    (String.concat " " (List.map (Printf.sprintf "%.3f") rep_times));
  let sweep = Array.of_list rep.Batch.sweep_s in
  r.attempted <- b.W.jobs * List.length Batch.algos * b.W.reps;
  metric r "setup_s" rep.Batch.generate_s "s";
  metric r "items_per_s"
    (float_of_int (b.W.jobs * List.length Batch.algos) /. fastest rep_times)
    "1/s";
  let order = Array.mapi (fun k _ -> float_of_int k) sweep in
  metric r "latency_p50_us" (windowed sweep order 0.5 *. 1e6) "us";
  metric r "latency_p90_us" (windowed sweep order 0.9 *. 1e6) "us";
  metric r "resume_s" (fastest restart_s) "s";
  metric r "peak_mem_mb" rep.Batch.peak_rss_mb "MiB";
  note r "sweep samples %d (%d-job instances, both algorithms each)"
    (Array.length sweep) b.W.sweep_jobs

(* ---- one workload ------------------------------------------------------ *)

let run_workload o w ~seconds ~nproc =
  let r = result w.W.name in
  let dir = Filename.concat work_root w.W.name in
  remove_tree dir;
  if not (Sys.file_exists work_root) then Sys.mkdir work_root 0o755;
  note r "nproc %d seed %d seconds %g %s" nproc o.seed seconds
    (if o.trace then "traced" else "untraced");
  (try
     Sys.mkdir dir 0o755;
     let e = { Serve.r; w; s = serve_of w; dir } in
     if o.trace then Ledger.run e ~seed:o.seed ~seconds
     else
       match w.W.kind with
       | W.Serve _ -> serve_untraced e ~seed:o.seed ~seconds ~nproc
       | W.Batch b -> batch_untraced r w b ~seed:o.seed ~dir
   with exn ->
     check r "completed" false "%s" (Printexc.to_string exn));
  Proc.cleanup ();
  remove_tree dir;
  if r.attempted = 0 then r.attempted <- 1;
  let json = to_json r in
  print_endline json;
  Option.iter
    (fun path ->
      Out_channel.with_open_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path
        (fun oc -> output_string oc (json ^ "\n")))
    o.json;
  r.correct

let bench o =
  if not (Sys.file_exists Serve.dbp) then begin
    Printf.eprintf
      "bench/suite: %s is missing; run `dune build` at the repository root \
       first\n"
      Serve.dbp;
    exit 2
  end;
  let workloads =
    match o.workload with
    | None -> W.all
    | Some name -> ( match W.find name with Some w -> [ w ] | None -> usage ())
  in
  let workloads = if o.smoke then List.map (W.shrink 20) workloads else workloads in
  let seconds = if o.smoke then o.seconds /. 20. else o.seconds in
  let nproc = Dbp_par.Pool.available_cores () in
  let ok =
    List.fold_left (fun ok w -> run_workload o w ~seconds ~nproc && ok) true workloads
  in
  remove_tree work_root;
  if not ok then exit 1

let () =
  Proc.ignore_sigpipe ();
  Proc.cleanup_on_signals ();
  at_exit Proc.cleanup;
  match List.tl (Array.to_list Sys.argv) with
  | "--child" :: "loadgen" :: args -> Loadgen.main args
  | "--child" :: "batch" :: args -> Batch.main args
  | args -> bench (parse_args args)
