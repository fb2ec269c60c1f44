(* Live-state-only engine (see the interface).  The bookkeeping mirrors
   Dbp_faults.Resilient bin-for-bin — same level arithmetic, same
   callback order — except that closed bins are physically evicted
   instead of kept with active = 0. *)

open Dbp_core
module E = Dbp_online.Engine
module Fit_index = Dbp_online.Fit_index

type bin = {
  idx : int;
  opened_at : float;
  mutable level : float;
  mutable latest : float;  (* running max of placed departures *)
  mutable active : int;
  mutable residents : Item.t list;  (* reverse placement order *)
  mutable slot : int;  (* fit-index leaf *)
  mutable prev : int;  (* open-list links by bin index; -1 = none *)
  mutable next : int;
}

type t = {
  algo : E.t;
  stepper : E.stepper;
  index : E.index;  (* the stepper's window onto this engine *)
  bins : (int, bin) Hashtbl.t;  (* open bins only *)
  active_ids : (int, unit) Hashtbl.t;
  departures : (float * Item.t * int) Heap.t;  (* (departure, item, bin) *)
  (* Fit index over leaf slots.  Slots are handed out in opening order
     and repacked in open-list order, so slot order is bin-index order
     and the index's lowest-slot tie-breaks are lowest-index ones. *)
  mutable fit : Fit_index.t;
  mutable slot_bin : int array;  (* slot -> bin index, -1 = free *)
  mutable slots : int;  (* slots handed out since the last rebuild *)
  mutable rebuilds : int;
  mutable head : int;
  mutable tail : int;
  mutable bins_ever : int;
  mutable placed : int;
  mutable departed : int;
  mutable clock : float;  (* last arrival instant processed *)
  mutable obs : Observer.t option;
}

(* Departures pop in (time, id) order: the Event stream's tie-break, so
   a drain processes exactly the batch Engine's departure sequence. *)
let dep_cmp (t1, i1, _) (t2, i2, _) =
  let c = Float.compare t1 t2 in
  if c <> 0 then c else Int.compare (Item.id i1) (Item.id i2)

(* Smallest slot capacity; fixed, not configurable. *)
let min_slots = 16

let bin_of t idx =
  match Hashtbl.find_opt t.bins idx with
  | Some lb -> lb
  | None -> invalid_arg "Stream_engine.bin_of: not an open bin"

let view_of lb =
  {
    E.index = lb.idx;
    opened_at = lb.opened_at;
    level = lb.level;
    latest_departure = lb.latest;
  }

(* Open-bin views in index order. *)
let fold t f init =
  let rec go idx acc =
    if idx < 0 then acc
    else
      let lb = bin_of t idx in
      go lb.next (f acc (view_of lb))
  in
  go t.head init

let view t idx = Option.map view_of (Hashtbl.find_opt t.bins idx)

let fit_query q t item =
  match q t.fit ~size:(Item.size item) with
  | Some slot -> E.Place t.slot_bin.(slot)
  | None -> E.Open_new

let create ?observer algo =
  let rec t =
    {
      algo;
      stepper = algo.E.make ();
      index =
        {
          E.fold = (fun f init -> fold t f init);
          view = (fun idx -> view t idx);
          first_fit = (fun item -> fit_query Fit_index.first_fit t item);
          best_fit = (fun item -> fit_query Fit_index.best_fit t item);
          worst_fit = (fun item -> fit_query Fit_index.worst_fit t item);
        };
      bins = Hashtbl.create 64;
      active_ids = Hashtbl.create 64;
      departures = Heap.create ~cmp:dep_cmp ();
      fit = Fit_index.create ();
      slot_bin = Array.make min_slots (-1);
      slots = 0;
      rebuilds = 0;
      head = -1;
      tail = -1;
      bins_ever = 0;
      placed = 0;
      departed = 0;
      clock = Float.neg_infinity;
      obs = observer;
    }
  in
  t

let set_observer t obs = t.obs <- obs

(* Out of slots: rebuild the fit index over the open bins alone, packed
   into slots 0..k-1 in open-list order, with at least k free slots
   after them.  At most half the slots live, the capacity stays or
   shrinks; otherwise it doubles.  The rebuild costs O(k) index writes
   and buys at least k openings, so it is amortised O(1) per opened bin,
   and the index stays under four times the bins open at the last
   rebuild. *)
let rebuild t =
  let live = Hashtbl.length t.bins in
  let cap = ref min_slots in
  while !cap < 2 * live do
    cap := 2 * !cap
  done;
  let fit = Fit_index.create () and slot_bin = Array.make !cap (-1) in
  let rec go idx slot =
    if idx < 0 then slot
    else begin
      let lb = bin_of t idx in
      lb.slot <- slot;
      slot_bin.(slot) <- idx;
      Fit_index.open_bin fit slot;
      Fit_index.set_level fit slot lb.level;
      go lb.next (slot + 1)
    end
  in
  t.slots <- go t.head 0;
  t.fit <- fit;
  t.slot_bin <- slot_bin;
  t.rebuilds <- t.rebuilds + 1

let append_bin t now =
  if t.slots = Array.length t.slot_bin then rebuild t;
  let idx = t.bins_ever in
  t.bins_ever <- idx + 1;
  let slot = t.slots in
  t.slots <- slot + 1;
  t.slot_bin.(slot) <- idx;
  Fit_index.open_bin t.fit slot;
  let lb =
    { idx; opened_at = now; level = 0.; latest = neg_infinity; active = 0;
      residents = []; slot; prev = t.tail; next = -1 }
  in
  Hashtbl.replace t.bins idx lb;
  if t.tail >= 0 then (bin_of t t.tail).next <- idx else t.head <- idx;
  t.tail <- idx;
  lb

let unlink t lb =
  if lb.prev >= 0 then (bin_of t lb.prev).next <- lb.next
  else t.head <- lb.next;
  if lb.next >= 0 then (bin_of t lb.next).prev <- lb.prev
  else t.tail <- lb.prev;
  lb.prev <- -1;
  lb.next <- -1

let depart t ~now item idx =
  let lb = bin_of t idx in
  lb.active <- lb.active - 1;
  lb.level <- (if lb.active = 0 then 0. else lb.level -. Item.size item);
  lb.residents <-
    List.filter (fun r -> Item.id r <> Item.id item) lb.residents;
  Hashtbl.remove t.active_ids (Item.id item);
  t.departed <- t.departed + 1;
  if lb.active = 0 then begin
    Fit_index.close_bin t.fit lb.slot;
    t.slot_bin.(lb.slot) <- -1;
    unlink t lb;
    Hashtbl.remove t.bins lb.idx
  end
  else Fit_index.set_level t.fit lb.slot lb.level;
  (match t.obs with
  | Some o ->
      o.Observer.on_departure ~time:now ~item;
      if lb.active = 0 then o.Observer.on_close_bin ~time:now ~bin:lb.idx
  | None -> ());
  t.stepper.E.departed item

let drain_until t upto =
  let rec go () =
    match Heap.peek t.departures with
    | Some (at, item, idx) when at <= upto ->
        ignore (Heap.pop t.departures);
        depart t ~now:at item idx;
        go ()
    | _ -> ()
  in
  go ()

type placement = { bin : int; opened : bool }

let do_place t lb item =
  lb.active <- lb.active + 1;
  lb.level <- lb.level +. Item.size item;
  lb.latest <- Float.max lb.latest (Item.departure item);
  lb.residents <- item :: lb.residents;
  Fit_index.set_level t.fit lb.slot lb.level;
  Hashtbl.replace t.active_ids (Item.id item) ();
  Heap.push t.departures (Item.departure item, item, lb.idx);
  t.placed <- t.placed + 1;
  (match t.obs with
  | Some o -> o.Observer.on_place ~time:(Item.arrival item) ~item ~bin:lb.idx
  | None -> ());
  t.stepper.E.notify ~item ~index:lb.idx

let arrive t item =
  let now = Item.arrival item in
  if now < t.clock then
    invalid_arg "Stream_engine.arrive: arrivals must be time-ordered";
  drain_until t now;
  t.clock <- now;
  (match t.obs with
  | Some o -> o.Observer.on_arrival ~time:now ~item
  | None -> ());
  let decision = t.stepper.E.decide ~now ~index:t.index item in
  (match t.obs with
  | Some o ->
      o.Observer.on_decision ~time:now ~item
        ~bin:(match decision with E.Place i -> Some i | E.Open_new -> None)
  | None -> ());
  match decision with
  | E.Open_new ->
      let lb = append_bin t now in
      (match t.obs with
      | Some o -> o.Observer.on_open_bin ~time:now ~bin:lb.idx
      | None -> ());
      do_place t lb item;
      Ok { bin = lb.idx; opened = true }
  | E.Place idx -> (
      match Hashtbl.find_opt t.bins idx with
      | None ->
          if idx >= 0 && idx < t.bins_ever then
            Error (E.Closed_bin { algo = t.algo.E.name; bin = idx; time = now })
          else
            Error (E.Unknown_bin { algo = t.algo.E.name; bin = idx; time = now })
      | Some lb ->
          if
            lb.level +. Item.size item
            > Bin_state.capacity +. Bin_state.tolerance
          then
            Error
              (E.Overflow { algo = t.algo.E.name; item; bin = idx; time = now })
          else begin
            do_place t lb item;
            Ok { bin = idx; opened = false }
          end)

let is_active t id = Hashtbl.mem t.active_ids id

let digest t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "ever=%d placed=%d departed=%d active=%d clock=%Lx;"
       t.bins_ever t.placed t.departed
       (Hashtbl.length t.active_ids)
       (Int64.bits_of_float t.clock));
  let rec go idx =
    if idx >= 0 then begin
      let lb = bin_of t idx in
      Buffer.add_string buf
        (Printf.sprintf "b%d:%d:%Lx:%Lx[" lb.idx lb.active
           (Int64.bits_of_float lb.level)
           (Int64.bits_of_float lb.opened_at));
      List.iter
        (fun r -> Buffer.add_string buf (Printf.sprintf "%d," (Item.id r)))
        lb.residents;
      Buffer.add_string buf "]";
      go lb.next
    end
  in
  go t.head;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let bins_ever t = t.bins_ever
let placed t = t.placed
let departed t = t.departed
let open_bins t = Hashtbl.length t.bins
let open_jobs t = Hashtbl.length t.active_ids
let index_rebuilds t = t.rebuilds
let algo_name t = t.algo.E.name
