(* The four workloads: what each generates from the seed and how it is
   driven.  README.md records why each one exists. *)

open Dbp_core
module G = Dbp_workload.Generator
module D = Dbp_workload.Distribution
module Arrival = Dbp_serve.Arrival

type serve = {
  algo : string;
  shards : int;  (** 0 = the unsharded daemon *)
  snapshot_every : int;
  saturated : int;  (** lines of each timed saturated file run *)
  rate : float;  (** open-loop mean lines/s *)
  burst : bool;  (** 100 ms at 2.5x the base rate every second *)
  crash_k : int;  (** decision lines before the injected crash *)
  resume_n : int;  (** input lines the completing resume covers *)
}

type batch = {
  jobs : int;
  reps : int;  (** alternating first-fit / cbdt-ff repetitions *)
  sweep : int;  (** small instances timed for the latency metrics *)
  sweep_jobs : int;
}

type kind = Serve of serve | Batch of batch

type t = {
  name : string;
  duration : D.t;
  tenants : [ `Round_robin of int | `Zipf of int * float ];
  anomalies : bool;  (** inject malformed, duplicate and out-of-order lines *)
  ledger : int;  (** lines the traced run times each layer over *)
  kind : kind;
}

let narrow_duration = G.default.G.duration

let all =
  [
    {
      name = "narrow";
      duration = narrow_duration;
      tenants = `Round_robin 17;
      anomalies = false;
      ledger = 100_000;
      kind =
        Serve
          {
            algo = "first-fit";
            shards = 0;
            snapshot_every = 10_000;
            saturated = 150_000;
            rate = 50_000.;
            burst = false;
            crash_k = 150_000;
            resume_n = 300_000;
          };
    };
    {
      name = "wide";
      duration = D.clamped ~lo:0.5 ~hi:2500. (D.exponential ~mean:250.);
      tenants = `Round_robin 17;
      anomalies = false;
      ledger = 40_000;
      kind =
        Serve
          {
            algo = "cbdt-ff";
            shards = 0;
            snapshot_every = 10_000;
            saturated = 30_000;
            rate = 10_000.;
            burst = false;
            crash_k = 50_000;
            resume_n = 100_000;
          };
    };
    {
      name = "tenants";
      duration = narrow_duration;
      tenants = `Zipf (64, 1.1);
      anomalies = true;
      ledger = 100_000;
      kind =
        Serve
          {
            algo = "best-fit";
            shards = 1;
            snapshot_every = 500;
            saturated = 300_000;
            rate = 25_000.;
            burst = true;
            crash_k = 150_000;
            resume_n = 300_000;
          };
    };
    {
      name = "batch";
      duration = narrow_duration;
      tenants = `Round_robin 17;
      anomalies = false;
      ledger = 100_000;
      kind = Batch { jobs = 1_000_000; reps = 3; sweep = 200; sweep_jobs = 5_000 };
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* Every size divided by [k] (the smoke mode), keeping the shapes. *)
let shrink k w =
  let d n = max 1_000 (n / k) in
  {
    w with
    ledger = d w.ledger;
    kind =
      (match w.kind with
      | Serve s ->
          Serve
            {
              s with
              saturated = d s.saturated;
              crash_k = d s.crash_k;
              resume_n = d s.resume_n;
            }
      | Batch b -> Batch { b with jobs = d b.jobs; sweep = max 10 (b.sweep / k) });
  }

(* ---- instances ---------------------------------------------------------- *)

(* Exactly [jobs] items: the generator's Poisson stream over a horizon
   long enough to hold them, cut after the first [jobs] arrivals (the
   generator numbers items in arrival order). *)
let instance w ~seed ~jobs =
  let rate = G.default.G.arrival_rate in
  let rec go slack =
    let horizon = ((float_of_int jobs *. slack) +. 100.) /. rate in
    let inst = G.generate ~seed { G.default with G.duration = w.duration; horizon } in
    if Instance.length inst >= jobs then
      Instance.restrict inst (fun it -> Item.id it < jobs)
    else go (slack *. 1.5)
  in
  go 1.05

(* The online input order. *)
let in_order inst = Array.of_list (Instance.arrivals_in_order inst)

(* ---- the serve line stream ---------------------------------------------- *)

type stream = {
  lines : string array;
  op : float array;
      (** unit-rate Poisson time of each line: the instance's own
          arrival times scaled by the generator's rate *)
  job : int array;
      (** job id the line's decision must echo; -1 for a malformed line,
          which is skipped without a decision *)
  malformed : int;
  rejects : int;  (** duplicate-id and out-of-order lines *)
}

let zipf_sampler n s rng =
  let cum = Array.make n 0. in
  let acc = ref 0. in
  for k = 0 to n - 1 do
    acc := !acc +. (1. /. (float_of_int (k + 1) ** s));
    cum.(k) <- !acc
  done;
  fun () ->
    let u = Random.State.float rng !acc in
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cum.(mid) > u then search lo mid else search (mid + 1) hi
    in
    search 0 (n - 1)

let num = Printf.sprintf "%.17g"

(* Render the items as serve lines.  With [anomalies], each item line
   is followed, with probability 1%, by a malformed line, 0.5% by a
   duplicate (the same job id again, at its own arrival time, while it
   is still active) and 0.5% by an out-of-order line (a fresh id
   arriving before the job just admitted); every item is still sent. *)
let stream w ~seed items =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let tenant =
    match w.tenants with
    | `Round_robin n -> fun i -> Printf.sprintf "t%d" (i mod n)
    | `Zipf (n, s) ->
        let draw = zipf_sampler n s rng in
        fun _ -> Printf.sprintf "t%d" (draw ())
  in
  let rate = G.default.G.arrival_rate in
  let lines = ref [] and malformed = ref 0 and rejects = ref 0 in
  let fresh = ref 1_000_000_000 in
  let push text op job = lines := (text, op, job) :: !lines in
  Array.iteri
    (fun i it ->
      let a = Item.arrival it and t = tenant i in
      let op = a *. rate in
      push (Arrival.render ~tenant:t it) op (Item.id it);
      if w.anomalies && i > 0 then begin
        let u = Random.State.float rng 1. in
        if u < 0.01 then begin
          incr malformed;
          let text =
            match Random.State.int rng 4 with
            | 0 ->
                let l = Arrival.render it in
                String.sub l 0 (String.length l / 2)
            | 1 ->
                Printf.sprintf
                  "{\"id\":%d,\"size\":\"large\",\"arrival\":%s,\"departure\":%s}"
                  !fresh (num a) (num (a +. 1.))
            | 2 ->
                Printf.sprintf
                  "{\"id\":%d,\"size\":1.5,\"arrival\":%s,\"departure\":%s}"
                  !fresh (num a) (num (a +. 1.))
            | _ -> "not a job"
          in
          incr fresh;
          push text op (-1)
        end
        else if u < 0.015 then begin
          incr rejects;
          push
            (Printf.sprintf
               "{\"id\":%d,\"size\":0.1,\"arrival\":%s,\"departure\":%s,\"tenant\":\"%s\"}"
               (Item.id it) (num a) (num (a +. 1.)) t)
            op (Item.id it)
        end
        else if u < 0.02 && a >= 0.25 then begin
          incr rejects;
          push
            (Printf.sprintf
               "{\"id\":%d,\"size\":0.1,\"arrival\":%s,\"departure\":%s,\"tenant\":\"%s\"}"
               !fresh
               (num (a -. 0.25))
               (num (a +. 1.)) t)
            op !fresh;
          incr fresh
        end
      end)
    items;
  let arr = Array.of_list (List.rev !lines) in
  {
    lines = Array.map (fun (t, _, _) -> t) arr;
    op = Array.map (fun (_, o, _) -> o) arr;
    job = Array.map (fun (_, _, j) -> j) arr;
    malformed = !malformed;
    rejects = !rejects;
  }

(* Lines of the stream a [rate] open loop sends within [seconds], and
   each one's scheduled send time in ns from the start.  The gaps are
   the instance's own Poisson gaps; with [burst] the rate is warped so
   each second holds 0.9 s at the base rate then 0.1 s at 2.5x, with the
   same mean. *)
let schedule s st ~seconds =
  let base = s.rate /. 1.15 in
  let wall op =
    if not s.burst then op /. s.rate
    else
      let whole = Float.of_int (int_of_float (op /. s.rate)) in
      let rem = op -. (whole *. s.rate) in
      if rem < 0.9 *. base then whole +. (rem /. base)
      else whole +. 0.9 +. ((rem -. (0.9 *. base)) /. (2.5 *. base))
  in
  let op0 = st.op.(0) in
  let n = Array.length st.lines in
  let rec count k =
    if k < n && wall (st.op.(k) -. op0) < seconds then count (k + 1) else k
  in
  let k = count 0 in
  (k, Array.init k (fun i -> int_of_float (wall (st.op.(i) -. op0) *. 1e9)))

(* Lines needed so the open loop never runs out within [seconds]. *)
let open_loop_lines s ~seconds = int_of_float (s.rate *. seconds *. 1.1) + 1_000
