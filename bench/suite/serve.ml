(* The serve workloads: [dbp serve] driven as a separate process over a
   file (saturated), over its socket (open loop) and through a crash and
   resume.  A number is reported only after the daemon's output behind
   it has been checked. *)

open Common
module W = Workload
module Decision = Dbp_serve.Decision

let dbp = "_build/default/bin/dbp.exe"

(* Timed daemon runs per metric, spread over the whole workload run.
   The fastest is reported: on this host, noise only ever slows a run,
   and over 10 runs of each workload the spread of the fastest of 5 was
   6-12% where the median of 5 swung 8-27%. *)
let repeats = 5

type env = { r : result; w : W.t; s : W.serve; dir : string }

(* An unsharded daemon runs on CPU 1 and the load generator on CPU 0, so
   the two never share a CPU or trade places between runs.  A sharded
   daemon's domains keep both CPUs. *)
let daemon_cpu e =
  if e.s.W.shards = 0 && Dbp_par.Pool.available_cores () >= 2 then Some 1 else None

let generator_cpu e = Option.map (fun _ -> 0) (daemon_cpu e)

let path e name = Filename.concat e.dir name

(* ---- running the daemon ------------------------------------------------- *)

type stats = {
  lines : int;
  placed : int;
  rejected : int;
  skipped : int;
  replayed : int;
}

(* The daemon's closing stderr line. *)
let parse_stats file =
  Array.fold_left
    (fun acc l ->
      match
        Scanf.sscanf l
          "serve: %d lines in, %d placed, %d rejected, %d skipped, %d replayed"
          (fun lines placed rejected skipped replayed ->
            { lines; placed; rejected; skipped; replayed })
      with
      | st -> Some st
      | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> acc)
    None (read_lines file)

(* The journals a run writes: the decision file, plus the one segment of
   a single-shard daemon. *)
let journals e output =
  if e.s.shards > 0 then [ output; output ^ ".shard0" ] else [ output ]

let args e ~output extra =
  [
    "serve"; "--algo"; e.s.algo; "--output"; output; "--snapshot";
    output ^ ".snap"; "--snapshot-every"; string_of_int e.s.snapshot_every;
  ]
  @ (if e.s.shards > 0 then [ "--shards"; string_of_int e.s.shards ] else [])
  @ extra

(* Remove every file a run with this output path left behind. *)
let clear e output =
  let base = Filename.basename output in
  Array.iter
    (fun f -> if String.starts_with ~prefix:base f then remove (path e f))
    (Sys.readdir e.dir)

(* One daemon process to completion: (wall seconds, status, stats). *)
let run e ~tag argv =
  let err = path e (tag ^ ".err") in
  Proc.flush_dir e.dir;
  let t0 = now_ns () in
  let pid =
    Proc.spawn ?cpu:(daemon_cpu e) ~stdout:(path e (tag ^ ".out")) ~stderr:err
      dbp argv
  in
  let status = Proc.wait pid in
  (since t0, status, parse_stats err)

let exited_ok e ~what status =
  check e.r (what ^ ".exit") (status = Proc.Exited 0) "%s"
    (Proc.status_to_string status)

(* ---- the saturated file run -------------------------------------------- *)

(* Is each journal of [output] the first [decisions] lines of the
   corresponding reference journal? *)
let prefix_of_reference e ~what ~reference ~output ~decisions =
  List.iter2
    (fun full part ->
      check e.r what
        (Sys.file_exists part && is_line_prefix ~full ~part ~lines:decisions)
        "%s = first %d lines of %s" (Filename.basename part) decisions
        (Filename.basename full))
    (journals e reference) (journals e output)

(* Decisions among the first [n] lines of the stream. *)
let decisions_in (st : W.stream) n =
  let k = ref 0 in
  for i = 0 to n - 1 do
    if st.job.(i) >= 0 then incr k
  done;
  !k

(* Input lines up to and including the [d]-th decision. *)
let lines_for_decisions (st : W.stream) d =
  let rec go i seen =
    if seen = d then i
    else go (i + 1) (if st.job.(i) >= 0 then seen + 1 else seen)
  in
  go 0 0

let counts e what (stats : stats option) ~lines ~decisions ~malformed =
  match stats with
  | Some s ->
      check e.r what
        (s.lines = lines && s.placed + s.rejected = decisions
        && s.skipped = malformed)
        "%d lines in, %d placed, %d rejected, %d skipped; expected %d \
         decisions, %d malformed"
        s.lines s.placed s.rejected s.skipped decisions malformed
  | None -> check e.r what false "no stats line"

(* One run over the whole input: the journals every other run is
   compared against. *)
let reference e (st : W.stream) ~input ~output =
  clear e output;
  let _, status, stats =
    run e ~tag:"reference" (args e ~output [ "--input"; input ])
  in
  exited_ok e ~what:"reference" status;
  let lines = Array.length st.lines in
  counts e "reference.counts" stats ~lines ~decisions:(lines - st.malformed)
    ~malformed:st.malformed;
  check e.r "reference.rejects"
    (Option.fold ~none:false ~some:(fun s -> s.rejected = st.rejects) stats)
    "%d duplicate and out-of-order lines rejected" st.rejects

(* One timed saturated run over the first [saturated] lines: (seconds,
   decisions). *)
let saturated e (st : W.stream) ~input ~reference i =
  let prefix = min e.s.W.saturated (Array.length st.lines) in
  let decisions = decisions_in st prefix in
  let timed = path e "timed.jsonl" in
  clear e timed;
  let wall, status, stats =
    run e ~tag:(Printf.sprintf "saturated%d" i)
      (args e ~output:timed
         [ "--input"; input; "--max-arrivals"; string_of_int prefix ])
  in
  exited_ok e ~what:"saturated" status;
  counts e "saturated.counts" stats ~lines:prefix ~decisions
    ~malformed:(prefix - decisions);
  prefix_of_reference e ~what:"saturated.byte_identical" ~reference
    ~output:timed ~decisions;
  (wall, decisions)

(* ---- the open loop ------------------------------------------------------ *)

type open_loop = {
  summary : Loadgen.summary;
  connect_s : float;  (** daemon spawn to its first accepted connection *)
  peak_mb : float;  (** the daemon's VmHWM before it is stopped *)
  output : string;
  decisions : int;  (** decisions among the lines scheduled *)
}

(* The daemon on its socket, loaded by the generator process over the
   first [seconds] of the stream's schedule. *)
let open_loop e (st : W.stream) ~input ~seconds ~tag extra =
  let n, sched = W.schedule e.s st ~seconds in
  let schedule = path e (tag ^ ".sched") in
  Out_channel.with_open_bin schedule (fun oc ->
      for i = 0 to n - 1 do
        Printf.fprintf oc "%d %d\n" sched.(i) st.job.(i)
      done);
  let output = path e (tag ^ ".jsonl") in
  clear e output;
  let sock = path e (tag ^ ".sock") in
  let report = path e (tag ^ ".gen") in
  Proc.flush_dir e.dir;
  let t0 = now_ns () in
  let daemon =
    Proc.spawn ?cpu:(daemon_cpu e) ~stdout:(path e (tag ^ ".out"))
      ~stderr:(path e (tag ^ ".err")) dbp
      (args e ~output ([ "--socket"; sock ] @ extra))
  in
  let generator =
    Proc.spawn ?cpu:(generator_cpu e) ~stdout:report
      ~stderr:(path e (tag ^ ".gen.err"))
      Sys.executable_name
      (Loadgen.child_args ~socket:sock ~lines:input ~count:n ~schedule)
  in
  let gen_status = Proc.wait generator in
  let peak_mb = Proc.peak_rss_mb daemon in
  Proc.terminate daemon;
  let status = Proc.wait daemon in
  check e.r (tag ^ ".generator.exit") (gen_status = Proc.Exited 0) "%s"
    (Proc.status_to_string gen_status);
  exited_ok e ~what:(tag ^ ".daemon") status;
  match (read_report report : Loadgen.summary option) with
  | None -> invalid_arg ("open loop: no summary from the load generator in " ^ report)
  | Some summary ->
      {
        summary;
        connect_s = float_of_int (summary.Loadgen.connected_ns - t0) *. 1e-9;
        peak_mb;
        output;
        decisions = decisions_in st n;
      }

(* ---- crash and resume -------------------------------------------------- *)

type crashed = {
  c_output : string;
  c_files : string list;  (** what the crashed run left, copied aside *)
  journaled : int;  (** decisions the journal holds *)
  replay_lines : int;  (** input lines that replay exactly those *)
}

(* A file run killed by SIGKILL after [crash_k] decisions; its files are
   copied aside so the completing resume can start from them. *)
let crash e (st : W.stream) ~input ~crash_k =
  let output = path e "crash.jsonl" in
  clear e output;
  let _, status, _ =
    run e ~tag:"crash"
      (args e ~output
         [ "--input"; input; "--crash-after"; string_of_int crash_k ])
  in
  check e.r "crash.sigkill"
    (status = Proc.Signaled Sys.sigkill)
    "%s" (Proc.status_to_string status);
  let base = Filename.basename output in
  let files =
    List.filter
      (fun f -> String.starts_with ~prefix:base f)
      (Array.to_list (Sys.readdir e.dir))
  in
  List.iter (fun f -> copy_file (path e f) (path e ("crashed-" ^ f))) files;
  (* A sharded daemon may have journaled past the crash point: its
     segment, the last journal, is what resume replays. *)
  let segment = List.hd (List.rev (journals e output)) in
  let journaled = count_newlines (read_file segment) in
  { c_output = output; c_files = files; journaled;
    replay_lines = lines_for_decisions st journaled }

(* One timed pure-recovery resume: replay the journal, then stop.  It
   leaves the journal as it found it and only advances the snapshot, so
   timed resumes can follow one another. *)
let resume e c ~input i =
  let wall, status, stats =
    run e ~tag:(Printf.sprintf "resume%d" i)
      (args e ~output:c.c_output
         [
           "--input"; input; "--resume"; "--max-arrivals";
           string_of_int c.replay_lines;
         ])
  in
  exited_ok e ~what:"resume" status;
  let replayed = Option.fold ~none:(-1) ~some:(fun s -> s.replayed) stats in
  check e.r "resume.replayed" (replayed = c.journaled)
    "%d of %d journaled decisions" replayed c.journaled;
  wall

(* From the crashed files, resume through the first [resume_n] lines:
   the journal must be the uninterrupted run's, byte for byte. *)
let complete e (st : W.stream) c ~input ~reference ~resume_n =
  clear e c.c_output;
  List.iter (fun f -> copy_file (path e ("crashed-" ^ f)) (path e f)) c.c_files;
  let _, status, _ =
    run e ~tag:"complete"
      (args e ~output:c.c_output
         [
           "--input"; input; "--resume"; "--max-arrivals";
           string_of_int resume_n;
         ])
  in
  exited_ok e ~what:"resume.complete" status;
  prefix_of_reference e ~what:"resume.byte_identical" ~reference
    ~output:c.c_output ~decisions:(decisions_in st resume_n)

(* ---- replaying a journal outside-in ------------------------------------- *)

type replay = {
  usage : float;  (** sum over bin episodes of close - open *)
  open_bins_mean : float;  (** open bins at each placement *)
  open_bins_max : int;
}

(* Bins open at the placing arrival and close at the latest departure
   of the jobs they received; bin ids are opening order. *)
let replay_journal ~departure journal =
  let opens = ref (Array.make 1024 0.) and closes = ref (Array.make 1024 0.) in
  let times = ref (Array.make 1024 0.) in
  let bins = ref 0 and placed = ref 0 in
  let grow a n =
    while n >= Array.length !a do
      a := Array.append !a (Array.make (Array.length !a) 0.)
    done
  in
  In_channel.with_open_bin journal (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> ()
        | Some l ->
            (match Decision.parse l with
            | Ok (Decision.Placed { job; bin; time; _ }) ->
                grow times !placed;
                !times.(!placed) <- time;
                incr placed;
                let dep = departure job in
                if bin >= !bins then begin
                  grow opens bin;
                  grow closes bin;
                  !opens.(bin) <- time;
                  !closes.(bin) <- dep;
                  bins := bin + 1
                end
                else if dep > !closes.(bin) then !closes.(bin) <- dep
            | Ok (Decision.Rejected _) -> ()
            | Error msg -> invalid_arg ("unreadable journal line: " ^ msg));
            go ()
      in
      go ());
  let usage = ref 0. in
  for b = 0 to !bins - 1 do
    usage := !usage +. (!closes.(b) -. !opens.(b))
  done;
  let sorted a = sort_floats (Array.sub !a 0 !bins) in
  let o = sorted opens and c = sorted closes in
  let io = ref 0 and ic = ref 0 and sum = ref 0 and mx = ref 0 in
  for k = 0 to !placed - 1 do
    let t = !times.(k) in
    while !io < !bins && o.(!io) <= t do incr io done;
    while !ic < !bins && c.(!ic) <= t do incr ic done;
    let openb = !io - !ic in
    sum := !sum + openb;
    mx := max !mx openb
  done;
  {
    usage = !usage;
    open_bins_mean = float_of_int !sum /. float_of_int (max 1 !placed);
    open_bins_max = !mx;
  }

let departures items =
  let tbl = Hashtbl.create (Array.length items) in
  Array.iter
    (fun it -> Hashtbl.replace tbl (Dbp_core.Item.id it) (Dbp_core.Item.departure it))
    items;
  fun job ->
    match Hashtbl.find_opt tbl job with
    | Some d -> d
    | None -> invalid_arg (Printf.sprintf "journal places unknown job %d" job)

(* The paper's objective against the better of its two lower bounds. *)
let usage_ratio inst usage =
  usage /. Float.max (Dbp_core.Instance.span inst) (Dbp_core.Instance.demand inst)
