open Dbp_core
module E = Dbp_online.Engine

type origin = Base of int | Overstay of int | Burst_job

type bin_report = {
  index : int;
  opened_at : float;
  crashed_at : float option;
  state : Bin_state.t;
  busy : Interval.t list;
}

type outcome = {
  packing : Packing.t option;
  bins : bin_report list;
  usage_time : float;
  bins_opened : int;
  crashes_fired : int;
  evicted : int;
  recovered : int;
  rejected : int;
  retries : int;
  slipped : int;
  injected : int;
  lost_demand : float;
}

(* Displaced work waiting to be re-placed.  Evicted jobs are not
   checkpointed: they lose their progress and must redo their
   placement's full duration from wherever they restart ([Work]).
   Overstay remainders are wall-pinned: the job physically leaves at
   its slipped departure no matter when (or whether) the remainder is
   re-placed ([Wall]). *)
type remainder = Work of float  (* duration to redo *) | Wall of float

type pending = {
  p_origin : origin;
  p_size : float;
  p_remainder : remainder;
  p_attempt : int;  (* 0 on the first try *)
}

type ev =
  | Primary_departure of Item.t
  | Synthetic_departure of { s_item : Item.t; s_origin : origin }
  | Crash_ev of Fault_plan.crash
  | Primary_arrival of Item.t
  | Burst_spec of float * float  (* size, duration; item built at fire time *)
  | Attempt of pending

(* Deterministic total order on injected events: time, then class
   (departures release capacity first, crashes hit before new work, all
   arrival-like events last), then insertion sequence.  Primary events
   are pushed in [Event.of_instance] order, so with an empty plan the
   pop sequence is exactly the plain engine's event stream. *)
type entry = { at : float; cls : int; seq : int; ev : ev }

let cls_departure = 0
let cls_crash = 1
let cls_arrival = 2

let compare_entry a b =
  match Float.compare a.at b.at with
  | 0 -> (
      match Int.compare a.cls b.cls with
      | 0 -> Int.compare a.seq b.seq
      | c -> c)
  | c -> c

(* Engine-side bin: the reference engine's bookkeeping (identical level
   arithmetic, so empty-plan runs are bit-identical) plus an intrusive
   open list, residency segments and the resident set. *)
type rbin = {
  idx : int;
  opened : float;
  mutable bin : Bin_state.t;
  mutable active : int;
  mutable level : float;
  mutable latest : float;  (* running max of placed departures *)
  mutable prev : int;
  mutable next : int;
  mutable crashed : float option;
  mutable segments : Interval.t list;  (* reverse chronological *)
  mutable residents : int list;  (* engine item ids, reverse placement order *)
}

let dummy_bin =
  {
    idx = -1;
    opened = nan;
    bin = Bin_state.empty ~index:(-1);
    active = 0;
    level = 0.;
    latest = neg_infinity;
    prev = -1;
    next = -1;
    crashed = None;
    segments = [];
    residents = [];
  }

type run = {
  algo : E.t;
  policy : Recovery.policy;
  instance : Instance.t;
  plan : Fault_plan.t;
  obs : Observer.t option;  (* not part of the checkpoint digest *)
  stepper : E.stepper;
  queue : entry Heap.t;
  homes : (int, rbin * Item.t * origin) Hashtbl.t;
  evicted_ids : (int, unit) Hashtbl.t;  (* stale departures to swallow *)
  slips : (int, float) Hashtbl.t;  (* unconsumed overstays, by base id *)
  mutable arr : rbin array;  (* slots >= count hold dummy_bin *)
  mutable count : int;
  mutable head : int;
  mutable tail : int;
  mutable seq : int;
  mutable next_id : int;  (* fresh engine-item ids for synthetic work *)
  mutable processed : int;
  mutable c_crashes : int;
  mutable c_evicted : int;
  mutable c_recovered : int;
  mutable c_rejected : int;
  mutable c_retries : int;
  mutable c_slipped : int;
  mutable c_injected : int;
  mutable c_lost : float;
}

exception Fatal of E.error

let push r ~at ~cls ev =
  let seq = r.seq in
  r.seq <- seq + 1;
  Heap.push r.queue { at; cls; seq; ev }

let bin_of r idx = r.arr.(idx)

let append_bin r now =
  if r.count = Array.length r.arr then begin
    let cap = max 16 (2 * r.count) in
    let arr = Array.make cap dummy_bin in
    Array.blit r.arr 0 arr 0 r.count;
    r.arr <- arr
  end;
  let idx = r.count in
  let lb =
    {
      idx;
      opened = now;
      bin = Bin_state.empty ~index:idx;
      active = 0;
      level = 0.;
      latest = neg_infinity;
      prev = r.tail;
      next = -1;
      crashed = None;
      segments = [];
      residents = [];
    }
  in
  r.arr.(idx) <- lb;
  r.count <- r.count + 1;
  if r.tail >= 0 then (bin_of r r.tail).next <- idx else r.head <- idx;
  r.tail <- idx;
  lb

let unlink r lb =
  if lb.prev >= 0 then (bin_of r lb.prev).next <- lb.next
  else r.head <- lb.next;
  if lb.next >= 0 then (bin_of r lb.next).prev <- lb.prev
  else r.tail <- lb.prev;
  lb.prev <- -1;
  lb.next <- -1

(* The index over the open bins in index order: the exact views the
   reference engine hands to [decide]. *)
let index r =
  let rec go idx acc =
    if idx < 0 then E.index_of_views (List.rev acc)
    else
      let lb = bin_of r idx in
      go lb.next
        ({
           E.index = lb.idx;
           opened_at = lb.opened;
           level = lb.level;
           latest_departure = lb.latest;
         }
        :: acc)
  in
  go r.head []

let fresh_id r =
  let id = r.next_id in
  r.next_id <- id + 1;
  id

let do_place r lb item origin =
  lb.bin <- Bin_state.place_unchecked lb.bin item;
  lb.active <- lb.active + 1;
  lb.level <- lb.level +. Item.size item;
  lb.latest <- Float.max lb.latest (Item.departure item);
  lb.residents <- Item.id item :: lb.residents;
  Hashtbl.replace r.homes (Item.id item) (lb, item, origin);
  (match r.obs with
  | Some o -> o.Observer.on_place ~time:(Item.arrival item) ~item ~bin:lb.idx
  | None -> ());
  r.stepper.E.notify ~item ~index:lb.idx

(* Primary-stream placement: invalid decisions are algorithm bugs and
   fatal, exactly as in the plain engines. *)
let place_checked r lb item origin =
  let now = Item.arrival item in
  if not (Bin_state.fits_at lb.bin ~at:now item) then
    raise
      (Fatal (E.Overflow { algo = r.algo.E.name; item; bin = lb.idx; time = now }));
  do_place r lb item origin

let arrival_target r ~now item =
  (match r.obs with
  | Some o -> o.Observer.on_arrival ~time:now ~item
  | None -> ());
  let decision = r.stepper.E.decide ~now ~index:(index r) item in
  (match r.obs with
  | Some o ->
      o.Observer.on_decision ~time:now ~item
        ~bin:(match decision with E.Place i -> Some i | E.Open_new -> None)
  | None -> ());
  match decision with
  | E.Open_new ->
      let lb = append_bin r now in
      (match r.obs with
      | Some o -> o.Observer.on_open_bin ~time:now ~bin:lb.idx
      | None -> ());
      lb
  | E.Place idx ->
      if idx < 0 || idx >= r.count then
        raise (Fatal (E.Unknown_bin { algo = r.algo.E.name; bin = idx; time = now }));
      let lb = bin_of r idx in
      if lb.active = 0 then
        raise (Fatal (E.Closed_bin { algo = r.algo.E.name; bin = idx; time = now }));
      lb

let enqueue_attempt r ~at p = push r ~at ~cls:cls_arrival (Attempt p)

let close_segment ~until lb item =
  lb.segments <- Interval.make (Item.arrival item) until :: lb.segments

(* A genuine departure (declared time for base items, deadline for
   synthetic remainders).  Departures of evicted engine-items are stale
   — the eviction already settled them — and are swallowed. *)
let handle_departure r ~now item origin =
  match Hashtbl.find_opt r.homes (Item.id item) with
  | None ->
      if Hashtbl.mem r.evicted_ids (Item.id item) then
        Hashtbl.remove r.evicted_ids (Item.id item)
      else
        raise
          (Fatal
             (E.Unplaced_departure
                { algo = r.algo.E.name; item_id = Item.id item }))
  | Some (lb, eitem, _) ->
      lb.active <- lb.active - 1;
      lb.level <- (if lb.active = 0 then 0. else lb.level -. Item.size eitem);
      lb.residents <- List.filter (fun i -> i <> Item.id eitem) lb.residents;
      close_segment ~until:now lb eitem;
      Hashtbl.remove r.homes (Item.id eitem);
      if lb.active = 0 then unlink r lb;
      (match r.obs with
      | Some o ->
          o.Observer.on_departure ~time:now ~item:eitem;
          if lb.active = 0 then o.Observer.on_close_bin ~time:now ~bin:lb.idx
      | None -> ());
      r.stepper.E.departed eitem;
      (* Departure slippage: the declared reservation just ended, but the
         job overstays; its remainder re-enters as displaced work. *)
      match origin with
      | Base oid -> (
          match Hashtbl.find_opt r.slips oid with
          | Some delta ->
              Hashtbl.remove r.slips oid;
              r.c_slipped <- r.c_slipped + 1;
              enqueue_attempt r ~at:now
                {
                  p_origin = Overstay oid;
                  p_size = Item.size eitem;
                  p_remainder = Wall (now +. delta);
                  p_attempt = 0;
                }
          | None -> ())
      | Overstay _ | Burst_job -> ()

let handle_crash r ~now (crash : Fault_plan.crash) =
  let open_bins =
    let rec go idx acc =
      if idx < 0 then List.rev acc else go (bin_of r idx).next (idx :: acc)
    in
    go r.head []
  in
  match open_bins with
  | [] -> () (* nothing to hit: the crash does not count as fired *)
  | _ ->
      r.c_crashes <- r.c_crashes + 1;
      let victim =
        bin_of r (List.nth open_bins (crash.victim mod List.length open_bins))
      in
      let settled =
        List.rev_map (fun id -> Hashtbl.find r.homes id) victim.residents
      in
      (* [settled] is in placement order: eviction, stepper callbacks and
         recovery attempts replay deterministically. *)
      List.iter
        (fun ((_, eitem, origin) : rbin * Item.t * origin) ->
          close_segment ~until:now victim eitem;
          Hashtbl.remove r.homes (Item.id eitem);
          Hashtbl.replace r.evicted_ids (Item.id eitem) ();
          (match r.obs with
          | Some o -> o.Observer.on_departure ~time:now ~item:eitem
          | None -> ());
          r.stepper.E.departed eitem;
          r.c_evicted <- r.c_evicted + 1;
          let p_remainder =
            match origin with
            | Overstay _ -> Wall (Item.departure eitem)
            | Base _ | Burst_job ->
                Work (Item.departure eitem -. Item.arrival eitem)
          in
          enqueue_attempt r ~at:now
            { p_origin = origin; p_size = Item.size eitem; p_remainder;
              p_attempt = 0 })
        settled;
      victim.residents <- [];
      victim.active <- 0;
      victim.level <- 0.;
      victim.crashed <- Some now;
      unlink r victim;
      (match r.obs with
      | Some o -> o.Observer.on_close_bin ~time:now ~bin:victim.idx
      | None -> ())

let reject r ~now p =
  r.c_rejected <- r.c_rejected + 1;
  let lost =
    match p.p_remainder with
    | Wall deadline -> Float.max 0. (deadline -. now)
    | Work duration -> duration
  in
  r.c_lost <- r.c_lost +. (p.p_size *. lost)

(* Re-place displaced work.  Unlike the primary stream, an infeasible or
   invalid decision here is data for the policy — retry with backoff,
   then admission-control rejection — never fatal. *)
let handle_attempt r ~now p =
  let expired =
    match p.p_remainder with Wall deadline -> now >= deadline | Work _ -> false
  in
  if expired then reject r ~now p
  else begin
    let departure =
      match p.p_remainder with
      | Wall deadline -> deadline
      | Work duration -> now +. duration
    in
    let item =
      Item.make ~id:(fresh_id r) ~size:p.p_size ~arrival:now ~departure
    in
    (match r.obs with
    | Some o -> o.Observer.on_arrival ~time:now ~item
    | None -> ());
    let decision = r.stepper.E.decide ~now ~index:(index r) item in
    (match r.obs with
    | Some o ->
        o.Observer.on_decision ~time:now ~item
          ~bin:(match decision with E.Place i -> Some i | E.Open_new -> None)
    | None -> ());
    let target =
      match decision with
      | E.Open_new ->
          if r.policy.Recovery.allow_new_bin then begin
            let lb = append_bin r now in
            (match r.obs with
            | Some o -> o.Observer.on_open_bin ~time:now ~bin:lb.idx
            | None -> ());
            Some lb
          end
          else None
      | E.Place idx ->
          if idx < 0 || idx >= r.count then None
          else
            let lb = bin_of r idx in
            if lb.active = 0 then None
            else if not (Bin_state.fits_at lb.bin ~at:now item) then None
            else Some lb
    in
    match target with
    | Some lb ->
        do_place r lb item p.p_origin;
        r.c_recovered <- r.c_recovered + 1;
        push r ~at:departure ~cls:cls_departure
          (Synthetic_departure { s_item = item; s_origin = p.p_origin })
    | None ->
        if p.p_attempt >= r.policy.Recovery.max_retries then reject r ~now p
        else begin
          r.c_retries <- r.c_retries + 1;
          let attempt = p.p_attempt + 1 in
          enqueue_attempt r
            ~at:(now +. Recovery.delay r.policy ~attempt)
            { p with p_attempt = attempt }
        end
  end

let handle_burst r ~now (size, duration) =
  let item =
    Item.make ~id:(fresh_id r) ~size ~arrival:now ~departure:(now +. duration)
  in
  let lb = arrival_target r ~now item in
  place_checked r lb item Burst_job;
  r.c_injected <- r.c_injected + 1;
  push r ~at:(Item.departure item) ~cls:cls_departure
    (Synthetic_departure { s_item = item; s_origin = Burst_job })

let handle r entry =
  let now = entry.at in
  match entry.ev with
  | Primary_departure item -> handle_departure r ~now item (Base (Item.id item))
  | Synthetic_departure { s_item; s_origin } ->
      handle_departure r ~now s_item s_origin
  | Crash_ev crash -> handle_crash r ~now crash
  | Primary_arrival item ->
      let lb = arrival_target r ~now item in
      place_checked r lb item (Base (Item.id item))
  | Burst_spec (size, duration) -> handle_burst r ~now (size, duration)
  | Attempt p -> handle_attempt r ~now p

let start ?(policy = Recovery.default) ?observer algo instance
    (plan : Fault_plan.t) =
  Recovery.validate policy;
  let r =
    {
      algo;
      policy;
      instance;
      plan;
      obs = observer;
      stepper = algo.E.make ();
      queue = Heap.create ~cmp:compare_entry ();
      homes = Hashtbl.create 64;
      evicted_ids = Hashtbl.create 16;
      slips = Hashtbl.create 16;
      arr = Array.make 16 dummy_bin;
      count = 0;
      head = -1;
      tail = -1;
      seq = 0;
      next_id = 0;
      processed = 0;
      c_crashes = 0;
      c_evicted = 0;
      c_recovered = 0;
      c_rejected = 0;
      c_retries = 0;
      c_slipped = 0;
      c_injected = 0;
      c_lost = 0.;
    }
  in
  List.iter
    (fun (e : Event.t) ->
      r.next_id <- max r.next_id (Item.id e.item + 1);
      match e.kind with
      | Event.Departure ->
          push r ~at:e.time ~cls:cls_departure (Primary_departure e.item)
      | Event.Arrival ->
          push r ~at:e.time ~cls:cls_arrival (Primary_arrival e.item))
    (Event.of_instance instance);
  List.iter
    (fun (c : Fault_plan.crash) -> push r ~at:c.time ~cls:cls_crash (Crash_ev c))
    plan.crashes;
  List.iter
    (fun (b : Fault_plan.burst) ->
      List.iter
        (fun (size, duration) ->
          push r ~at:b.burst_time ~cls:cls_arrival (Burst_spec (size, duration)))
        b.jobs)
    plan.bursts;
  List.iter
    (fun (s : Fault_plan.slip) -> Hashtbl.replace r.slips s.item_id s.delta)
    plan.slips;
  r

let step_exn r =
  match Heap.pop r.queue with
  | None -> false
  | Some entry ->
      handle r entry;
      r.processed <- r.processed + 1;
      true

let shim f =
  try f () with Fatal e -> raise (E.Invalid_decision (E.error_to_string e))

let step r = shim (fun () -> step_exn r)

let events_processed r = r.processed

let segment_length segments =
  List.fold_left (fun acc i -> acc +. Interval.length i) 0. segments

let outcome_of r =
  let bins = List.init r.count (fun i -> bin_of r i) in
  let reports =
    List.map
      (fun lb ->
        {
          index = lb.idx;
          opened_at = lb.opened;
          crashed_at = lb.crashed;
          state = lb.bin;
          busy = Interval.union lb.segments;
        })
      bins
  in
  let usage_time =
    List.fold_left (fun acc rep -> acc +. segment_length rep.busy) 0. reports
  in
  let packing =
    if Fault_plan.is_empty r.plan then
      Some (Packing.of_bins r.instance (List.map (fun lb -> lb.bin) bins))
    else None
  in
  {
    packing;
    bins = reports;
    usage_time;
    bins_opened = r.count;
    crashes_fired = r.c_crashes;
    evicted = r.c_evicted;
    recovered = r.c_recovered;
    rejected = r.c_rejected;
    retries = r.c_retries;
    slipped = r.c_slipped;
    injected = r.c_injected;
    lost_demand = r.c_lost;
  }

let finish_exn r =
  while step_exn r do
    ()
  done;
  outcome_of r

let finish r = shim (fun () -> finish_exn r)

let run ?policy ?observer algo instance plan =
  finish (start ?policy ?observer algo instance plan)

let run_result ?policy ?observer algo instance plan =
  match finish_exn (start ?policy ?observer algo instance plan) with
  | o -> Ok o
  | exception Fatal e -> Error e

(* ------------------------------------------------------------------ *)
(* Checkpoint / resume: event-sourced (see the interface preamble).     *)

type checkpoint = { events_done : int; state_digest : string }

type mismatch = {
  expected_digest : string;
  actual_digest : string option;
  events_done : int;
  detail : string;
}

exception Checkpoint_mismatch of mismatch

let mismatch_to_string m =
  Printf.sprintf "checkpoint mismatch after %d events (expected digest %s, \
                  replayed %s): %s"
    m.events_done m.expected_digest
    (match m.actual_digest with Some d -> d | None -> "nothing")
    m.detail

let digest r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "n=%d seq=%d id=%d homes=%d cr=%d ev=%d rec=%d rej=%d \
                     ret=%d sl=%d inj=%d lost=%Lx;"
       r.count r.seq r.next_id (Hashtbl.length r.homes) r.c_crashes r.c_evicted
       r.c_recovered r.c_rejected r.c_retries r.c_slipped r.c_injected
       (Int64.bits_of_float r.c_lost));
  for i = 0 to r.count - 1 do
    let lb = bin_of r i in
    Buffer.add_string buf
      (Printf.sprintf "b%d:%d:%Lx:%d:%d:%s[" lb.idx lb.active
         (Int64.bits_of_float lb.level)
         (List.length lb.segments)
         (List.length (Bin_state.items lb.bin))
         (match lb.crashed with
         | None -> "-"
         | Some t -> Printf.sprintf "%h" t));
    List.iter (fun id -> Buffer.add_string buf (Printf.sprintf "%d," id)) lb.residents;
    Buffer.add_string buf "]"
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let checkpoint r = { events_done = r.processed; state_digest = digest r }

let resume ?policy ?observer algo instance plan (cp : checkpoint) =
  let r = start ?policy ?observer algo instance plan in
  while
    r.processed < cp.events_done
    && (step r
       || raise
            (Checkpoint_mismatch
               {
                 expected_digest = cp.state_digest;
                 actual_digest = None;
                 events_done = cp.events_done;
                 detail =
                   Printf.sprintf
                     "event stream drained after %d events, checkpoint at %d"
                     r.processed cp.events_done;
               }))
  do
    ()
  done;
  let d = digest r in
  if not (String.equal d cp.state_digest) then
    raise
      (Checkpoint_mismatch
         {
           expected_digest = cp.state_digest;
           actual_digest = Some d;
           events_done = cp.events_done;
           detail =
             "different algorithm, instance, plan or policy — or broken \
              determinism";
         });
  r
