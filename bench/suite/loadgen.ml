(* The open-loop load generator: a process of its own, one thread, one
   connection, and a heap that holds little beyond the send buffer, so
   no collection of the benchmark's large heap can stall it.  Every line
   is rendered into one buffer up front and written on its schedule with
   non-blocking writes and select, whatever pace the daemon keeps, so a
   stall shows as latency of the lines scheduled behind it.

   Echoes come back in line order, one per well-formed line.  The next
   echo is matched to the oldest well-formed line still waiting, with a
   job-id check; an echo the daemon dropped (a sharded daemon's echoes
   are best-effort) shows as an id further ahead, and the lines skipped
   over count as having no echo. *)

(* What one run measured. *)
type summary = {
  connected_ns : int;  (** monotonic instant the daemon accepted us *)
  sent : int;  (** lines completely written *)
  expected : int;  (** well-formed lines scheduled: echoes due *)
  matched : int;  (** echoes matched to their line *)
  mismatched : int;  (** echoes whose job id no waiting line carries *)
  overload : int;  (** [overload] rejects *)
  stall_us : float;  (** longest gap between two turns of the send loop *)
  samples : int;  (** matched echoes: latency samples *)
  p50_us : float;  (** median over windows of each window's p50 *)
  p90_us : float;  (** the same for p90 *)
  whole_p50_us : float;  (** over the whole run *)
  whole_p90_us : float;
  p99_us : float;
  max_us : float;
  lag_p50_us : float;
      (** lag: write completion minus scheduled send, i.e. how late the
          generator ran *)
  lag_p99_us : float;
  lag_max_us : float;
}

(* Generator lateness beyond which a run did not offer the load it
   claims, and is run again.  On a 2-vCPU VM the lag p99 is set by idle
   wake-up latency: 60-270 us at the 10k-50k lines/s rates used here. *)
let max_lag_p99_us = 500.

let valid s = s.lag_p99_us <= max_lag_p99_us

(* A generator that did not run for this long could not read its
   echoes, and a sharded daemon drops echoes (rather than stall) once
   about 200 wait unread: a few ms at these rates.  Host preemption
   stalls the generator that long a few times in most runs. *)
let max_stall_us = 2_000.

let lost s = s.expected - s.matched

(* Wrong echoes, overload rejects, and echoes lost while the generator
   was running.  Echoes lost while it was stalled are the generator's
   failure to read, not the daemon's: they are reported apart. *)
let failures s =
  s.mismatched + s.overload + if s.stall_us > max_stall_us then 0 else lost s

let job_marker = "\"job\":"
let overload_marker = "overload"

(* How far past the oldest waiting line an echo may match. *)
let match_window = 65_536

let find_sub b s e pat =
  let m = String.length pat in
  let rec at i j =
    j = m || (Char.equal (Bytes.get b (i + j)) pat.[j] && at i (j + 1))
  in
  let rec go i = if i + m > e then -1 else if at i 0 then i else go (i + 1) in
  go s

(* The job id of the echo line at [s, e) of [b]; -1 when absent. *)
let echo_job b s e =
  match find_sub b s e job_marker with
  | -1 -> -1
  | i ->
      let rec digits j acc =
        if j < e then
          match Bytes.get b j with
          | '0' .. '9' as c -> digits (j + 1) ((acc * 10) + Char.code c - 48)
          | _ -> acc
        else acc
      in
      digits (i + String.length job_marker) 0

(* Send [lines.(i)] at [t0 + sched.(i)] ns; [job.(i)] is the id its
   echo must carry (-1: malformed, no echo).  Stops when every echo is
   in, when the daemon closes the connection, or [drain] seconds after
   the last scheduled send. *)
let run conn ~connected_ns ~lines ~sched ~job ~drain =
  let n = Array.length sched in
  let ends = Array.make n 0 in
  let size = ref 0 in
  for i = 0 to n - 1 do
    size := !size + String.length lines.(i) + 1
  done;
  let buf = Bytes.create !size in
  let pos = ref 0 in
  for i = 0 to n - 1 do
    let l = lines.(i) in
    Bytes.blit_string l 0 buf !pos (String.length l);
    Bytes.set buf (!pos + String.length l) '\n';
    pos := !pos + String.length l + 1;
    ends.(i) <- !pos
  done;
  let wf =
    Array.of_list (List.filter (fun i -> job.(i) >= 0) (List.init n Fun.id))
  in
  let expected = Array.length wf in
  let latency = Array.make expected Float.nan in
  let lag = Array.make n Float.nan in
  let waiting = ref 0 and matched = ref 0 in
  let mismatched = ref 0 and overload = ref 0 in
  let rbuf = Bytes.create 65536 and partial = Buffer.create 256 in
  let t0 = Common.now_ns () + 1_000_000 in
  let last = if n = 0 then 0 else sched.(n - 1) in
  let deadline = t0 + last + int_of_float (drain *. 1e9) in
  let due = ref 0 and due_bytes = ref 0 and sent_bytes = ref 0 in
  let sent = ref 0 and closed = ref false in
  let on_echo b s e t =
    let id = echo_job b s e in
    let limit = min expected (!waiting + match_window) in
    let k = ref !waiting in
    while !k < limit && job.(wf.(!k)) <> id do
      incr k
    done;
    if !k >= limit then incr mismatched
    else begin
      if find_sub b s e overload_marker >= 0 then incr overload;
      latency.(!k) <- float_of_int (t - (t0 + sched.(wf.(!k)))) /. 1e3;
      incr matched;
      waiting := !k + 1
    end
  in
  let rec read_echoes () =
    match Proc.recv conn rbuf with
    | None -> ()
    | Some 0 -> closed := true
    | Some k ->
        let t = Common.now_ns () in
        let start = ref 0 in
        for i = 0 to k - 1 do
          if Char.equal (Bytes.get rbuf i) '\n' then begin
            if Buffer.length partial > 0 then begin
              Buffer.add_subbytes partial rbuf !start (i - !start);
              let line = Buffer.to_bytes partial in
              Buffer.clear partial;
              on_echo line 0 (Bytes.length line) t
            end
            else on_echo rbuf !start i t;
            start := i + 1
          end
        done;
        if !start < k then Buffer.add_subbytes partial rbuf !start (k - !start);
        read_echoes ()
  in
  let stall = ref 0 and turn = ref (Common.now_ns ()) in
  let finished () =
    !closed
    || (!sent = n && !waiting >= expected)
    || Common.now_ns () > deadline
  in
  while not (finished ()) do
    let now = Common.now_ns () in
    if now - !turn > !stall then stall := now - !turn;
    turn := now;
    while !due < n && t0 + sched.(!due) <= now do
      due_bytes := ends.(!due);
      incr due
    done;
    if !sent_bytes < !due_bytes then begin
      let w = Proc.send conn buf !sent_bytes (!due_bytes - !sent_bytes) in
      if w < 0 then closed := true else sent_bytes := !sent_bytes + w;
      let t = Common.now_ns () in
      while !sent < n && ends.(!sent) <= !sent_bytes do
        lag.(!sent) <- float_of_int (t - (t0 + sched.(!sent))) /. 1e3;
        incr sent
      done
    end;
    read_echoes ();
    let now = Common.now_ns () in
    let pending = !sent_bytes < !due_bytes in
    let wait_ns =
      if pending then 1_000_000
      else if !due < n then t0 + sched.(!due) - now
      else min (deadline - now) 50_000_000
    in
    if wait_ns > 0 && not !closed then begin
      Proc.await conn ~want_write:pending ~timeout:(float_of_int wait_ns *. 1e-9);
      (* sleeping on purpose is not a stall *)
      turn := max !turn (min (Common.now_ns ()) (now + wait_ns))
    end
  done;
  let got =
    List.filter (fun k -> Float.is_finite latency.(k)) (List.init expected Fun.id)
  in
  let in_order = Array.of_list (List.map (fun k -> latency.(k)) got) in
  let scheduled =
    Array.of_list (List.map (fun k -> float_of_int sched.(wf.(k))) got)
  in
  let lat = Common.sort_floats in_order in
  let lag = Common.sort_floats (Array.sub lag 0 !sent) in
  let q = Common.quantile in
  {
    connected_ns;
    sent = !sent;
    expected;
    matched = !matched;
    mismatched = !mismatched;
    overload = !overload;
    stall_us = float_of_int !stall /. 1e3;
    samples = Array.length lat;
    p50_us = Common.windowed in_order scheduled 0.5;
    p90_us = Common.windowed in_order scheduled 0.9;
    whole_p50_us = q lat 0.5;
    whole_p90_us = q lat 0.9;
    p99_us = q lat 0.99;
    max_us = q lat 1.;
    lag_p50_us = q lag 0.5;
    lag_p99_us = q lag 0.99;
    lag_max_us = q lag 1.;
  }

let child_args ~socket ~lines ~count ~schedule =
  [
    "--child"; "loadgen"; "--socket"; socket; "--lines"; lines; "--count";
    string_of_int count; "--schedule"; schedule;
  ]

(* The generator process, given the arguments after [--child loadgen]:
   connect to the socket, send the first [count] lines of the lines file
   on the schedule file's schedule ([sched_ns job] per line), report the
   summary.  Exits 3 when the daemon never listens. *)
let main args =
  let count = int_of_string (Common.arg args "--count") in
  let text = Array.sub (Common.read_lines (Common.arg args "--lines")) 0 count in
  let sched = Array.make count 0 and job = Array.make count 0 in
  In_channel.with_open_bin (Common.arg args "--schedule") (fun ic ->
      for i = 0 to count - 1 do
        match In_channel.input_line ic with
        | Some l ->
            Scanf.sscanf l "%d %d" (fun t j ->
                sched.(i) <- t;
                job.(i) <- j)
        | None -> invalid_arg "loadgen: the schedule is shorter than the lines"
      done);
  match Proc.connect (Common.arg args "--socket") ~timeout:10. with
  | None -> exit 3
  | Some conn ->
      let connected_ns = Common.now_ns () in
      let s =
        Fun.protect
          ~finally:(fun () -> Proc.close conn)
          (fun () -> run conn ~connected_ns ~lines:text ~sched ~job ~drain:2.)
      in
      Common.report (s : summary)
