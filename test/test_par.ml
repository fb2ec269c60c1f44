(* The dbp.par domain pool: parallel_map equivalence to List.map under
   random chunk/pool sizes, bit-identical sweeps and evaluations through
   ~pool, structured exception propagation (and pool survival), the
   Prng.derive seed-splitting contract, and the task queue's dealing and
   stealing. *)

open Helpers
module Pool = Dbp_par.Pool
module Q = Dbp_par.Task_queue
module P = Dbp_workload.Prng

(* ---- parallel_map = List.map ---- *)

let prop_map_matches_list_map =
  let gen =
    QCheck2.Gen.(
      let* xs = list_size (int_range 0 40) (int_range (-1000) 1000) in
      let* chunk = int_range 1 5 in
      let* domains = int_range 1 3 in
      return (xs, chunk, domains))
  in
  qtest ~count:30 "parallel_map = List.map under random chunk/pool sizes" gen
    (fun (xs, chunk, domains) ->
      let f x = (x * 31) + (x mod 7) in
      Pool.with_pool ~domains (fun pool ->
          Pool.parallel_map pool ~chunk f xs = List.map f xs))

let test_map_array_submission_order () =
  Pool.with_pool ~domains:2 (fun pool ->
      let input = Array.init 37 (fun i -> i) in
      let out = Pool.map_array pool ~chunk:3 (fun i -> i * i) input in
      Alcotest.(check (array int))
        "slot i holds f input.(i)"
        (Array.map (fun i -> i * i) input)
        out)

let test_parallel_for_covers_every_index () =
  Pool.with_pool ~domains:3 (fun pool ->
      let hits = Array.make 25 0 in
      (* task i writes only slot i, so no two domains share a cell *)
      Pool.parallel_for pool ~chunk:2 25 (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check (array int)) "each task ran exactly once"
        (Array.make 25 1) hits;
      Pool.parallel_for pool 0 (fun _ -> Alcotest.fail "n = 0 runs nothing"))

(* ---- bit-identical parallel sweeps and evaluations ---- *)

let small_packers () =
  [
    Dbp_sim.Runner.online Dbp_online.Any_fit.first_fit;
    Dbp_sim.Runner.online Dbp_online.Any_fit.best_fit;
    Dbp_sim.Runner.offline "ddff" Dbp_offline.Ddff.pack;
  ]

let sweep_points pool =
  let generate ~seed mu =
    Dbp_workload.Generator.with_mu ~seed ~items:60 ~mu ()
  in
  Dbp_sim.Sweep.run ?pool ~seeds:2 ~parameters:[ 2.; 8. ] ~generate
    ~packers:(small_packers ()) ()

let check_points_identical name ps qs =
  check_int (name ^ ": point count") (List.length ps) (List.length qs);
  List.iter2
    (fun (p : Dbp_sim.Sweep.point) (q : Dbp_sim.Sweep.point) ->
      check_string (name ^ ": label") p.label q.label;
      check_bool (name ^ ": parameter") true (Float.equal p.parameter q.parameter);
      check_int (name ^ ": n") p.ratios.Dbp_sim.Stats.n q.ratios.Dbp_sim.Stats.n;
      List.iter2
        (fun a b -> check_bool (name ^ ": summary field") true (Float.equal a b))
        [ p.ratios.mean; p.ratios.stddev; p.ratios.min; p.ratios.max ]
        [ q.ratios.mean; q.ratios.stddev; q.ratios.min; q.ratios.max ])
    ps qs

let test_sweep_bit_identical () =
  let sequential = sweep_points None in
  Pool.with_pool ~domains:2 (fun pool ->
      check_points_identical "2 domains" sequential (sweep_points (Some pool)));
  Pool.with_pool ~domains:3 (fun pool ->
      check_points_identical "3 domains" sequential (sweep_points (Some pool)))

let test_evaluate_bit_identical () =
  let inst = Dbp_workload.Generator.with_mu ~seed:5 ~items:80 ~mu:6. () in
  let sequential = Dbp_sim.Runner.evaluate (small_packers ()) inst in
  Pool.with_pool ~domains:2 (fun pool ->
      let parallel = Dbp_sim.Runner.evaluate ~pool (small_packers ()) inst in
      check_int "score count" (List.length sequential) (List.length parallel);
      List.iter2
        (fun (a : Dbp_sim.Runner.score) (b : Dbp_sim.Runner.score) ->
          check_string "label" a.label b.label;
          check_bool "usage bit-identical" true (Float.equal a.usage b.usage);
          check_int "bins" a.bins b.bins;
          check_int "max concurrent" a.max_concurrent b.max_concurrent;
          check_bool "ratio/LB bit-identical" true
            (Float.equal a.ratio_lb b.ratio_lb))
        sequential parallel)

let test_figure8_bit_identical () =
  let mus = [ 1.; 2.; 4.; 8.; 16.; 100. ] in
  let sequential = Dbp_theory.Figure8.series ~mus () in
  Pool.with_pool ~domains:2 (fun pool ->
      let parallel = Dbp_theory.Figure8.series ~pool ~mus () in
      check_int "row count" (List.length sequential) (List.length parallel);
      List.iter2
        (fun (a : Dbp_theory.Figure8.row) (b : Dbp_theory.Figure8.row) ->
          check_bool "row bit-identical" true
            (Float.equal a.mu b.mu && Float.equal a.cbdt b.cbdt
            && Float.equal a.cbd b.cbd && a.cbd_n = b.cbd_n
            && Float.equal a.first_fit b.first_fit))
        sequential parallel)

(* ---- exception propagation ---- *)

let test_error_propagation_parallel () =
  Pool.with_pool ~domains:2 (fun pool ->
      (match Pool.parallel_for pool ~chunk:2 20 (fun i -> if i = 7 then raise Exit) with
      | () -> Alcotest.fail "expected Task_error"
      | exception Pool.Task_error (i, Exit) -> check_int "failing index" 7 i);
      (* the failure cancelled the job, not the pool *)
      Alcotest.(check (list int))
        "pool usable after a failed job" [ 0; 2; 4 ]
        (Pool.parallel_map pool (fun x -> 2 * x) [ 0; 1; 2 ]))

let test_error_propagation_sequential () =
  Pool.with_pool ~domains:1 (fun pool ->
      match Pool.parallel_for pool 5 (fun i -> if i >= 2 then failwith "task") with
      | () -> Alcotest.fail "expected Task_error"
      | exception Pool.Task_error (i, Failure _) ->
          check_int "first failing index" 2 i)

let test_nested_submission_rejected () =
  Pool.with_pool ~domains:2 (fun pool ->
      match
        Pool.parallel_for pool 4 (fun _ ->
            Pool.parallel_for pool 2 (fun _ -> ()))
      with
      | () -> Alcotest.fail "nested submission should be rejected"
      | exception Pool.Task_error (_, Invalid_argument _) -> ())

let test_shutdown_rejects_further_jobs () =
  let pool = Pool.create ~domains:2 () in
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* idempotent *)
  match Pool.parallel_map pool (fun x -> x) [ 1 ] with
  | _ -> Alcotest.fail "expected Invalid_argument after shutdown"
  | exception Invalid_argument _ -> ()

(* ---- Prng.derive: the seed-splitting contract ---- *)

let test_derive_matches_split () =
  List.iter
    (fun index ->
      (* the documented equation: derive (root, k) = split after k draws *)
      let parent = P.create 42 in
      for _ = 1 to index do
        ignore (P.int64 parent)
      done;
      let from_split = P.split parent in
      let derived = P.derive ~root:42 ~index in
      for draw = 1 to 16 do
        Alcotest.(check int64)
          (Printf.sprintf "index %d, draw %d" index draw)
          (P.int64 from_split) (P.int64 derived)
      done)
    [ 0; 1; 3; 10 ]

let test_derive_streams_distinct () =
  let firsts = List.init 100 (fun i -> P.int64 (P.derive ~root:7 ~index:i)) in
  check_int "100 indices give 100 distinct first draws" 100
    (List.length (List.sort_uniq Int64.compare firsts))

let test_derive_floats_uniform () =
  let n = 500 in
  let sum = ref 0. in
  for i = 0 to n - 1 do
    let rng = P.derive ~root:11 ~index:i in
    let x = P.float rng in
    check_bool "in [0, 1)" true (0. <= x && x < 1.);
    sum := !sum +. x
  done;
  let mean = !sum /. float_of_int n in
  check_bool "mean of first draws near 1/2" true
    (Float.abs (mean -. 0.5) < 0.05)

let test_derive_rejects_negative_index () =
  match P.derive ~root:0 ~index:(-1) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ---- pool sizing and the task queue ---- *)

let test_default_domains_clamped () =
  let d = Pool.default_domains () in
  check_bool "default in [1, 8]" true (1 <= d && d <= 8);
  check_bool "at least one core" true (Pool.available_cores () >= 1)

let test_task_queue_deals_and_steals () =
  let q = Q.create ~workers:3 ~chunks:10 in
  check_int "workers" 3 (Q.workers q);
  check_int "all chunks queued" 10 (Q.remaining q);
  (* round-robin deal: worker 0 owns 0, 3, 6, 9 *)
  check_int "worker 0 dealt four chunks" 4 (Q.length q 0);
  (match Q.take q ~worker:0 with
  | Some c -> check_int "owner pops its own front" 0 c
  | None -> Alcotest.fail "worker 0 has chunks");
  (* one worker draining the rest (own queue, then steals) visits every
     remaining chunk exactly once *)
  let rec drain acc =
    match Q.take q ~worker:2 with
    | Some c -> drain (c :: acc)
    | None -> List.rev acc
  in
  let rest = drain [] in
  check_int "nine chunks left" 9 (List.length rest);
  check_int "no chunk handed out twice" 9
    (List.length (List.sort_uniq Int.compare rest));
  check_bool "chunk 0 not re-issued" false (List.mem 0 rest);
  check_int "queue empty" 0 (Q.remaining q)

(* ---- resident mailboxes and the collector (the sharded daemon's
   substrate: one long-lived domain per shard, results FIFO'd back) ---- *)

let test_resident_processes_in_post_order () =
  let seen = ref [] in
  let r = Pool.Resident.spawn (fun x -> seen := x :: !seen) in
  let n = 500 in
  for i = 1 to n do
    Pool.Resident.post r i
  done;
  Pool.Resident.sync r;
  (* sync's mutex pairing publishes the handler's writes *)
  Alcotest.(check (list int))
    "messages handled in post order"
    (List.init n (fun i -> i + 1))
    (List.rev !seen);
  check_int "posted" n (Pool.Resident.posted r);
  check_int "processed" n (Pool.Resident.processed r);
  check_int "depth drained" 0 (Pool.Resident.depth r);
  Pool.Resident.close r

let test_resident_close_drains () =
  let count = ref 0 in
  let r = Pool.Resident.spawn (fun () -> incr count) in
  for _ = 1 to 100 do
    Pool.Resident.post r ()
  done;
  Pool.Resident.close r;
  check_int "close drains the mailbox first" 100 !count;
  Pool.Resident.close r;
  (* idempotent *)
  match Pool.Resident.post r () with
  | () -> Alcotest.fail "post after close accepted"
  | exception Invalid_argument _ -> ()

let test_resident_failure_is_sticky () =
  (* Fail on the last message: [post] pushes under the mailbox lock, so
     the handler cannot reach message 9 before every [post] has returned,
     and none of them can see the failure. *)
  let r =
    Pool.Resident.spawn (fun x -> if x = 9 then failwith "boom")
  in
  for i = 0 to 9 do
    Pool.Resident.post r i
  done;
  (match Pool.Resident.sync r with
  | () -> Alcotest.fail "expected Resident_error"
  | exception Pool.Resident_error (Failure msg) ->
      check_string "original exception carried" "boom" msg);
  (* the failure is remembered: every later interaction re-raises, and
     none of them deadlocks *)
  (match Pool.Resident.post r 99 with
  | () -> Alcotest.fail "post after failure accepted"
  | exception Pool.Resident_error _ -> ());
  match Pool.Resident.close r with
  | () -> Alcotest.fail "close after failure must re-raise"
  | exception Pool.Resident_error _ -> ()

let test_resident_rejects_bad_capacity () =
  match Pool.Resident.spawn ~capacity:0 (fun () -> ()) with
  | _ -> Alcotest.fail "capacity 0 accepted"
  | exception Invalid_argument _ -> ()

let test_collector_fifo () =
  let c = Pool.Collector.create () in
  Alcotest.(check (list int)) "empty drain" [] (Pool.Collector.drain c);
  List.iter (Pool.Collector.push c) [ 1; 2; 3 ];
  check_int "length" 3 (Pool.Collector.length c);
  Alcotest.(check (list int)) "push order" [ 1; 2; 3 ] (Pool.Collector.drain c);
  Alcotest.(check (list int)) "drain empties" [] (Pool.Collector.drain c)

let test_collector_across_domains () =
  let c = Pool.Collector.create () in
  let r = Pool.Resident.spawn (fun x -> Pool.Collector.push c (x * x)) in
  let n = 200 in
  for i = 1 to n do
    Pool.Resident.post r i
  done;
  Pool.Resident.sync r;
  Alcotest.(check (list int))
    "collector sees every result in post order"
    (List.init n (fun i -> (i + 1) * (i + 1)))
    (Pool.Collector.drain c);
  Pool.Resident.close r

let suite =
  [
    prop_map_matches_list_map;
    Alcotest.test_case "map_array keeps submission order" `Quick
      test_map_array_submission_order;
    Alcotest.test_case "parallel_for covers every index" `Quick
      test_parallel_for_covers_every_index;
    Alcotest.test_case "sweep ~pool bit-identical" `Quick
      test_sweep_bit_identical;
    Alcotest.test_case "evaluate ~pool bit-identical" `Quick
      test_evaluate_bit_identical;
    Alcotest.test_case "figure8 ~pool bit-identical" `Quick
      test_figure8_bit_identical;
    Alcotest.test_case "Task_error carries the failing index" `Quick
      test_error_propagation_parallel;
    Alcotest.test_case "sequential path reports first failure" `Quick
      test_error_propagation_sequential;
    Alcotest.test_case "nested submission rejected" `Quick
      test_nested_submission_rejected;
    Alcotest.test_case "shutdown is final and idempotent" `Quick
      test_shutdown_rejects_further_jobs;
    Alcotest.test_case "derive = split after index draws" `Quick
      test_derive_matches_split;
    Alcotest.test_case "derive streams distinct" `Quick
      test_derive_streams_distinct;
    Alcotest.test_case "derive floats uniform in [0,1)" `Quick
      test_derive_floats_uniform;
    Alcotest.test_case "derive rejects negative index" `Quick
      test_derive_rejects_negative_index;
    Alcotest.test_case "default_domains clamped to [1,8]" `Quick
      test_default_domains_clamped;
    Alcotest.test_case "task queue deals and steals" `Quick
      test_task_queue_deals_and_steals;
    Alcotest.test_case "resident handles messages in post order" `Quick
      test_resident_processes_in_post_order;
    Alcotest.test_case "resident close drains, then rejects" `Quick
      test_resident_close_drains;
    Alcotest.test_case "resident failure is sticky, never deadlocks" `Quick
      test_resident_failure_is_sticky;
    Alcotest.test_case "resident rejects capacity < 1" `Quick
      test_resident_rejects_bad_capacity;
    Alcotest.test_case "collector is a FIFO" `Quick test_collector_fifo;
    Alcotest.test_case "collector routes resident results" `Quick
      test_collector_across_domains;
  ]
