(* The research path, run in a child process of its own so its memory
   peak and Gc counters are its alone: generate an instance and fold it
   through Engine.run_usage with first-fit and cbdt-ff (the paper's
   Theorem 4 algorithm), as `dbp run` and the sweeps do. *)

open Common
module W = Workload
module Engine = Dbp_online.Engine

let algos = [ "first-fit"; "cbdt-ff" ]

let algo name =
  match Dbp_serve.Portfolio.by_name name with
  | Some a -> a
  | None -> invalid_arg ("no portfolio algorithm " ^ name)

type job = {
  workload : W.t;
  seed : int;
  jobs : int;
  reps : int;
  algos : string list;
  sweep : int;  (** small instances timed one by one (0 = none) *)
  sweep_jobs : int;
  retime : bool;  (** re-time first-fit on the 10^5-job engine-bench instance *)
  check : bool;  (** run_usage = total_usage_time (run_indexed) at 10^5 jobs *)
}

type run = {
  rep : int;
  algo_name : string;
  seconds : float;
  words : float;  (** minor words allocated *)
  usage : float;
}

type report = {
  generate_s : float;
  runs : run list;
  sweep_s : float list;  (** in the order the instances ran *)
  retime_1e5 : float option;
  usage_check : (float * float) option;  (** run_usage, total_usage_time *)
  top_heap_mb : float;
  peak_rss_mb : float;
}

let child j =
  let gen_s, inst = timed (fun () -> W.instance j.workload ~seed:j.seed ~jobs:j.jobs) in
  let runs =
    List.concat
      (List.init j.reps (fun k ->
           List.map
             (fun name ->
               let w0 = Gc.minor_words () in
               let seconds, usage = timed (fun () -> Engine.run_usage (algo name) inst) in
               { rep = k; algo_name = name; seconds; words = Gc.minor_words () -. w0; usage })
             j.algos))
  in
  let sweep_s =
    List.init j.sweep (fun i ->
        let small = W.instance j.workload ~seed:((j.seed * 1000) + i) ~jobs:j.sweep_jobs in
        fst
          (timed (fun () ->
               List.iter (fun name -> ignore (Engine.run_usage (algo name) small)) algos)))
  in
  let retime_1e5 =
    if not j.retime then None
    else
      (* bench engine's instance: the default generator at seed 42 *)
      let inst =
        Dbp_workload.Generator.generate ~seed:42
          { Dbp_workload.Generator.default with horizon = 50_000. }
      in
      Some (fst (timed (fun () -> Engine.run_usage (algo "first-fit") inst)))
  in
  let usage_check =
    if not j.check then None
    else
      let inst = W.instance j.workload ~seed:j.seed ~jobs:100_000 in
      let ff = algo "first-fit" in
      Some
        ( Engine.run_usage ff inst,
          Dbp_core.Packing.total_usage_time (Engine.run_indexed ff inst) )
  in
  report
    {
      generate_s = gen_s;
      runs;
      sweep_s;
      retime_1e5;
      usage_check;
      top_heap_mb =
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
        /. 1048576.;
      peak_rss_mb = Proc.peak_rss_mb 0;
    }

let child_args j =
  [
    "--child"; "batch"; "--workload"; j.workload.W.name; "--seed";
    string_of_int j.seed; "--jobs"; string_of_int j.jobs; "--reps";
    string_of_int j.reps; "--algos"; String.concat "," j.algos; "--sweep";
    string_of_int j.sweep; "--sweep-jobs"; string_of_int j.sweep_jobs;
    "--retime"; string_of_bool j.retime; "--check"; string_of_bool j.check;
  ]

(* The child's entry point: the arguments after [--child batch]. *)
let main args =
  let int k = int_of_string (arg args k) and bool k = bool_of_string (arg args k) in
  child
    {
      workload = Option.get (W.find (arg args "--workload"));
      seed = int "--seed";
      jobs = int "--jobs";
      reps = int "--reps";
      algos = String.split_on_char ',' (arg args "--algos");
      sweep = int "--sweep";
      sweep_jobs = int "--sweep-jobs";
      retime = bool "--retime";
      check = bool "--check";
    }

(* Run the child to completion: (spawn-to-exit seconds, its report). *)
let spawn_child r ~dir j =
  let out = Filename.concat dir "batch.out" in
  let t0 = now_ns () in
  let pid =
    Proc.spawn ~stdout:out ~stderr:(Filename.concat dir "batch.err")
      Sys.executable_name (child_args j)
  in
  let status = Proc.wait pid in
  let wall = since t0 in
  check r "batch.exit" (status = Proc.Exited 0) "%s" (Proc.status_to_string status);
  match (read_report out : report option) with
  | Some rep -> (wall, rep)
  | None -> invalid_arg "batch: the child reported nothing"

let runs_of rep name = List.filter (fun x -> String.equal x.algo_name name) rep.runs

(* Every repetition of an algorithm must reach the same usage, bit for
   bit: the engine is deterministic. *)
let check_repeatable r rep =
  List.iter
    (fun name ->
      match List.map (fun x -> x.usage) (runs_of rep name) with
      | [] -> check r ("batch.deterministic." ^ name) false "no repetitions"
      | u :: _ as usages ->
          check r ("batch.deterministic." ^ name)
            (List.for_all (Float.equal u) usages)
            "%d repetitions" (List.length usages))
    (List.sort_uniq String.compare (List.map (fun x -> x.algo_name) rep.runs))
