open Dbp_core

type bin_view = {
  index : int;
  opened_at : float;
  level : float;
  latest_departure : float;
}

type decision = Place of int | Open_new

type index = {
  fold : 'a. ('a -> bin_view -> 'a) -> 'a -> 'a;
  view : int -> bin_view option;
  first_fit : Item.t -> decision;
  best_fit : Item.t -> decision;
  worst_fit : Item.t -> decision;
}

type stepper = {
  decide : now:float -> index:index -> Item.t -> decision;
  notify : item:Item.t -> index:int -> unit;
  departed : Item.t -> unit;
}

type t = { name : string; make : unit -> stepper }

exception Invalid_decision of string

type error =
  | Overflow of { algo : string; item : Item.t; bin : int; time : float }
  | Unknown_bin of { algo : string; bin : int; time : float }
  | Closed_bin of { algo : string; bin : int; time : float }
  | Unplaced_departure of { algo : string; item_id : int }

(* The legacy [Invalid_decision] messages, reproduced byte-for-byte so
   the exception shim is indistinguishable from the pre-refactor
   engines. *)
let error_to_string = function
  | Overflow { algo; item; bin; time } ->
      Printf.sprintf "%s: %s overflows bin %d at %g" algo
        (Item.to_string item) bin time
  | Unknown_bin { algo; bin; time = _ } ->
      Printf.sprintf "%s: unknown bin %d" algo bin
  | Closed_bin { algo; bin; time } ->
      Printf.sprintf "%s: bin %d is closed at %g" algo bin time
  | Unplaced_departure { algo; item_id } ->
      Printf.sprintf "%s: departure of unplaced item %d" algo item_id

(* Internal carrier: fatal paths raise this; the public entry points
   either surface it as [Error] ([run_result]) or re-raise the legacy
   [Invalid_decision] ([run]).  Never escapes this module. *)
exception Err of error

let default_departed (_ : Item.t) = ()

(* The list-backed index.  The fit queries are scans with the strict
   level preferences Fit_index's trees reproduce: ties go to the
   earliest-opened bin, and worst fit's lowest-level bin fits exactly
   when any bin does, since [level +. size] is monotone in [level]. *)
let index_of_views views =
  let arr = Array.of_list views in
  let fits v item = Fit_index.fits_level v.level (Item.size item) in
  let scan better item =
    let pick = ref (-1) in
    Array.iteri
      (fun k v ->
        if fits v item && (!pick < 0 || better v arr.(!pick)) then pick := k)
      arr;
    if !pick < 0 then Open_new else Place arr.(!pick).index
  in
  let rec search lo hi idx =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let c = Int.compare arr.(mid).index idx in
      if c = 0 then Some arr.(mid)
      else if c < 0 then search (mid + 1) hi idx
      else search lo mid idx
  in
  {
    fold = (fun f init -> Array.fold_left f init arr);
    view = (fun idx -> search 0 (Array.length arr) idx);
    first_fit = scan (fun _ _ -> false);
    best_fit = scan (fun a b -> a.level > b.level);
    worst_fit = scan (fun a b -> a.level < b.level);
  }

let fail e = raise (Err e)

(* ------------------------------------------------------------------ *)
(* Reference engine: the original linked-list implementation, frozen as
   the differential-testing oracle.  Every event walks the full list of
   bins ever opened, so a run is Theta(n * bins) — do not optimise this;
   its value is being obviously faithful to the engine the test suite
   grew up on.  [run_indexed] must stay bit-identical to it. *)

(* Engine-side bin record.  [active] counts items currently active and
   [level] tracks their total size, so openness checks and level reads
   are O(1) instead of probing the level profile.  [level] is reset to 0
   whenever the bin empties, so float drift cannot accumulate across
   open/close cycles.  [latest] is the running maximum of the placed
   items' departures. *)
type ref_bin = {
  idx : int;
  opened : float;
  mutable bin : Bin_state.t;
  mutable active : int;
  mutable level : float;
  mutable latest : float;
}

(* Observer emissions pattern-match the option at each site so the
   no-observer path costs one branch, never a closure call — the bench
   obs sweep pins that overhead. *)

let reference_exn obs algo instance =
  let stepper = algo.make () in
  let bins : ref_bin list ref = ref [] (* reverse opening order *) in
  let home = Hashtbl.create 64 (* item id -> ref_bin *) in
  let views () =
    List.rev !bins
    |> List.filter_map (fun lb ->
           if lb.active > 0 then
             Some
               {
                 index = lb.idx;
                 opened_at = lb.opened;
                 level = lb.level;
                 latest_departure = lb.latest;
               }
           else None)
  in
  let place lb item =
    let now = Item.arrival item in
    if not (Bin_state.fits_at lb.bin ~at:now item) then
      fail (Overflow { algo = algo.name; item; bin = lb.idx; time = now });
    lb.bin <- Bin_state.place lb.bin item;
    lb.active <- lb.active + 1;
    lb.level <- lb.level +. Item.size item;
    lb.latest <- Float.max lb.latest (Item.departure item);
    Hashtbl.replace home (Item.id item) lb;
    (match obs with
    | Some o -> o.Observer.on_place ~time:now ~item ~bin:lb.idx
    | None -> ());
    stepper.notify ~item ~index:lb.idx
  in
  let handle event =
    match event.Event.kind with
    | Event.Departure ->
        let lb =
          try Hashtbl.find home (Item.id event.Event.item)
          with Not_found ->
            fail
              (Unplaced_departure
                 { algo = algo.name; item_id = Item.id event.Event.item })
        in
        lb.active <- lb.active - 1;
        lb.level <-
          (if lb.active = 0 then 0.
           else lb.level -. Item.size event.Event.item);
        (match obs with
        | Some o ->
            o.Observer.on_departure ~time:event.Event.time
              ~item:event.Event.item;
            if lb.active = 0 then
              o.Observer.on_close_bin ~time:event.Event.time ~bin:lb.idx
        | None -> ());
        stepper.departed event.Event.item
    | Event.Arrival -> (
        let now = event.Event.time in
        let item = event.Event.item in
        (match obs with
        | Some o -> o.Observer.on_arrival ~time:now ~item
        | None -> ());
        let decision =
          stepper.decide ~now ~index:(index_of_views (views ())) item
        in
        (match obs with
        | Some o ->
            o.Observer.on_decision ~time:now ~item
              ~bin:(match decision with Place i -> Some i | Open_new -> None)
        | None -> ());
        match decision with
        | Open_new ->
            let lb =
              {
                idx = List.length !bins;
                opened = now;
                bin = Bin_state.empty ~index:(List.length !bins);
                active = 0;
                level = 0.;
                latest = neg_infinity;
              }
            in
            bins := lb :: !bins;
            (match obs with
            | Some o -> o.Observer.on_open_bin ~time:now ~bin:lb.idx
            | None -> ());
            place lb item
        | Place idx -> (
            match List.find_opt (fun lb -> lb.idx = idx) !bins with
            | None -> fail (Unknown_bin { algo = algo.name; bin = idx; time = now })
            | Some lb ->
                if lb.active = 0 then
                  fail (Closed_bin { algo = algo.name; bin = idx; time = now });
                place lb item))
  in
  List.iter handle (Event.of_instance instance);
  Packing.of_bins instance (List.rev_map (fun lb -> lb.bin) !bins)

(* ------------------------------------------------------------------ *)
(* Indexed engine, flat-memory edition.  All hot per-event state lives
   in parallel unboxed arrays — no boxed record or [Bin_state] is
   allocated anywhere on the event path:

   - per *item* (slot = position in the id-sorted item array): the home
     bin, the placement-chain link, and intrusive active-list links.
     Item sizes are copied into a [floatarray] once, so the level
     arithmetic never chases the boxed floats inside [Item.t];
   - per *bin ever opened* (append-only columns keyed by bin index):
     opening/closing times in [floatarray]s, the newest link of the
     placement chain, and the bin's arena row while open;
   - per *open bin* (arena rows, recycled through a free stack when a
     bin closes): level, latest placed departure, active count,
     active-list ends and open-list links.  Rows are reused on
     close/open cycles, so the hot working set is O(max concurrent open
     bins), not O(bins ever opened).  The
     {!Fit_index} leaves are deliberately *not* recycled: First Fit's
     leftmost descent needs leaves ordered by bin index, so a closed
     bin's leaf stays retired and only the row is reused.

   Events come from {!Event.Flat}: arrivals from a cursor over the
   id-sorted item array, departures from a {!Heap.Flat} that holds only
   the active items, merged in the (time, departures-first, item id)
   delivery order bit-for-bit.  Departures at a timestamp are drained
   in a batch: each departure updates its row (and emits observer
   events) immediately, but the O(log n) fit-tree writes are deferred
   to a dirty stack that is flushed before the next arrival's decision
   — fit queries happen only at arrivals, which sort after all
   equal-time departures, so the deferral is unobservable and a
   k-departure batch costs one tree update per *touched bin* instead
   of one per departure.

   Level bookkeeping uses the exact float expressions of the reference
   engine ([level +. size] on place; [0.] or [level -. size] on
   departure), the overflow check re-sums the active items in placement
   order (bit-identical to the reference's [Step_function.value_at] —
   see {!Bin_state.of_placement}), and the final packing's boxed
   [Bin_state] values are reconstructed from the placement chains, so
   the two engines stay bit-identical on every deterministic
   algorithm. *)

type flat = {
  items : Item.t array; (* slot -> item, ascending id *)
  sizes : floatarray; (* slot -> Item.size, unboxed copy *)
  item_bin : int array; (* slot -> home bin, -1 = unplaced *)
  chain_prev : int array; (* previous slot placed in the same bin *)
  act_prev : int array; (* active-list links within the home bin *)
  act_next : int array;
  (* per-bin columns, append-only, keyed by bin index *)
  mutable b_opened : floatarray;
  mutable b_closed : floatarray; (* meaningful once the bin closes *)
  mutable b_last : int array; (* newest slot of the placement chain *)
  mutable b_row : int array; (* arena row while open, -1 once closed *)
  mutable b_dirty : Bytes.t; (* '\001' while on the dirty stack *)
  mutable bins : int; (* bins ever opened *)
  (* arena rows: hot state of the open bins, recycled on close *)
  mutable r_bin : int array;
  mutable r_level : floatarray;
  mutable r_latest : floatarray; (* running max of placed departures *)
  mutable r_active : int array;
  mutable r_head : int array; (* oldest active slot *)
  mutable r_tail : int array; (* newest active slot *)
  mutable r_prev : int array; (* open-list links, index order *)
  mutable r_next : int array;
  mutable rows : int; (* rows ever allocated *)
  mutable free : int array; (* stack of recycled rows *)
  mutable free_n : int;
  mutable open_head : int; (* row of the lowest-index open bin *)
  mutable open_tail : int;
  mutable open_n : int;
  fit : Fit_index.t;
  (* bins touched by the departure batch since the last flush *)
  mutable dirty : int array;
  mutable dirty_n : int;
}

let flat_create items =
  let n = Array.length items in
  let sizes = Float.Array.create n in
  Array.iteri (fun s r -> Float.Array.set sizes s (Item.size r)) items;
  {
    items;
    sizes;
    item_bin = Array.make n (-1);
    chain_prev = Array.make n (-1);
    act_prev = Array.make n (-1);
    act_next = Array.make n (-1);
    b_opened = Float.Array.make 16 0.;
    b_closed = Float.Array.make 16 0.;
    b_last = Array.make 16 (-1);
    b_row = Array.make 16 (-1);
    b_dirty = Bytes.make 16 '\000';
    bins = 0;
    r_bin = Array.make 8 (-1);
    r_level = Float.Array.make 8 0.;
    r_latest = Float.Array.make 8 neg_infinity;
    r_active = Array.make 8 0;
    r_head = Array.make 8 (-1);
    r_tail = Array.make 8 (-1);
    r_prev = Array.make 8 (-1);
    r_next = Array.make 8 (-1);
    rows = 0;
    free = Array.make 8 0;
    free_n = 0;
    open_head = -1;
    open_tail = -1;
    open_n = 0;
    fit = Fit_index.create ();
    dirty = Array.make 16 0;
    dirty_n = 0;
  }

let grow_int arr fill =
  let cap = 2 * Array.length arr in
  let arr' = Array.make cap fill in
  Array.blit arr 0 arr' 0 (Array.length arr);
  arr'

let grow_floats arr =
  let cap = 2 * Float.Array.length arr in
  let arr' = Float.Array.make cap 0. in
  Float.Array.blit arr 0 arr' 0 (Float.Array.length arr);
  arr'

let ensure_bin_capacity fs =
  if fs.bins = Array.length fs.b_last then begin
    fs.b_opened <- grow_floats fs.b_opened;
    fs.b_closed <- grow_floats fs.b_closed;
    fs.b_last <- grow_int fs.b_last (-1);
    fs.b_row <- grow_int fs.b_row (-1);
    let dirty' = Bytes.make (2 * Bytes.length fs.b_dirty) '\000' in
    Bytes.blit fs.b_dirty 0 dirty' 0 (Bytes.length fs.b_dirty);
    fs.b_dirty <- dirty'
  end

let alloc_row fs =
  if fs.free_n > 0 then begin
    fs.free_n <- fs.free_n - 1;
    fs.free.(fs.free_n)
  end
  else begin
    if fs.rows = Array.length fs.r_bin then begin
      fs.r_bin <- grow_int fs.r_bin (-1);
      fs.r_level <- grow_floats fs.r_level;
      fs.r_latest <- grow_floats fs.r_latest;
      fs.r_active <- grow_int fs.r_active 0;
      fs.r_head <- grow_int fs.r_head (-1);
      fs.r_tail <- grow_int fs.r_tail (-1);
      fs.r_prev <- grow_int fs.r_prev (-1);
      fs.r_next <- grow_int fs.r_next (-1)
    end;
    let r = fs.rows in
    fs.rows <- r + 1;
    r
  end

let free_row fs r =
  if fs.free_n = Array.length fs.free then fs.free <- grow_int fs.free 0;
  fs.free.(fs.free_n) <- r;
  fs.free_n <- fs.free_n + 1

let open_new_bin fs now =
  ensure_bin_capacity fs;
  let b = fs.bins in
  fs.bins <- b + 1;
  Float.Array.set fs.b_opened b now;
  fs.b_last.(b) <- -1;
  let r = alloc_row fs in
  fs.b_row.(b) <- r;
  fs.r_bin.(r) <- b;
  Float.Array.set fs.r_level r 0.;
  Float.Array.set fs.r_latest r neg_infinity;
  fs.r_active.(r) <- 0;
  fs.r_head.(r) <- -1;
  fs.r_tail.(r) <- -1;
  (* Fresh bins carry the highest index, so appending at the tail keeps
     the open list in index (opening) order. *)
  fs.r_prev.(r) <- fs.open_tail;
  fs.r_next.(r) <- -1;
  if fs.open_tail >= 0 then fs.r_next.(fs.open_tail) <- r
  else fs.open_head <- r;
  fs.open_tail <- r;
  fs.open_n <- fs.open_n + 1;
  Fit_index.open_bin fs.fit b;
  b

let unlink_row fs r =
  if fs.r_prev.(r) >= 0 then fs.r_next.(fs.r_prev.(r)) <- fs.r_next.(r)
  else fs.open_head <- fs.r_next.(r);
  if fs.r_next.(r) >= 0 then fs.r_prev.(fs.r_next.(r)) <- fs.r_prev.(r)
  else fs.open_tail <- fs.r_prev.(r);
  fs.r_prev.(r) <- -1;
  fs.r_next.(r) <- -1;
  fs.open_n <- fs.open_n - 1

(* Level of row [r] re-summed over its active items in placement order:
   the same left fold [Step_function.value_at] evaluates to on the
   reference engine's profile (see {!Bin_state.of_placement}), used for
   the overflow check so the admission decision is bit-identical. *)
let active_level fs r =
  let rec go s acc =
    if s < 0 then acc else go fs.act_next.(s) (acc +. Float.Array.get fs.sizes s)
  in
  go fs.r_head.(r) 0.

(* Items placed in bin [b] up to chain link [last], oldest first. *)
let placed_items fs last =
  let rec go s acc =
    if s < 0 then acc else go fs.chain_prev.(s) (fs.items.(s) :: acc)
  in
  go last []

let rebuild_bin fs b last = Bin_state.of_placement ~index:b (placed_items fs last)

let flat_view fs r =
  let b = fs.r_bin.(r) in
  {
    index = b;
    opened_at = Float.Array.get fs.b_opened b;
    level = Float.Array.get fs.r_level r;
    latest_departure = Float.Array.get fs.r_latest r;
  }

let flat_index fs =
  let fold f init =
    let rec go r acc =
      if r < 0 then acc else go fs.r_next.(r) (f acc (flat_view fs r))
    in
    go fs.open_head init
  in
  let view b =
    if b < 0 || b >= fs.bins then None
    else
      let r = fs.b_row.(b) in
      if r >= 0 then Some (flat_view fs r) else None
  in
  let query q item =
    match q fs.fit ~size:(Item.size item) with
    | Some idx -> Place idx
    | None -> Open_new
  in
  {
    fold;
    view;
    first_fit = query Fit_index.first_fit;
    best_fit = query Fit_index.best_fit;
    worst_fit = query Fit_index.worst_fit;
  }

let mark_dirty fs b =
  if Bytes.get fs.b_dirty b = '\000' then begin
    Bytes.set fs.b_dirty b '\001';
    if fs.dirty_n = Array.length fs.dirty then fs.dirty <- grow_int fs.dirty 0;
    fs.dirty.(fs.dirty_n) <- b;
    fs.dirty_n <- fs.dirty_n + 1
  end

let flush_dirty fs =
  for k = 0 to fs.dirty_n - 1 do
    let b = fs.dirty.(k) in
    Bytes.set fs.b_dirty b '\000';
    let r = fs.b_row.(b) in
    if r < 0 then Fit_index.close_bin fs.fit b
    else Fit_index.set_level fs.fit b (Float.Array.get fs.r_level r)
  done;
  fs.dirty_n <- 0

(* Run the event loop to completion and return the final flat state;
   [indexed_exn] and [usage_exn] differ only in what they fold it
   into. *)
let flat_run obs algo instance =
  let stepper = algo.make () in
  let items = Instance.to_array instance in
  let fs = flat_create items in
  let index = flat_index fs in
  let place b slot now =
    let r = fs.b_row.(b) in
    let item = fs.items.(slot) in
    let size = Float.Array.get fs.sizes slot in
    if not (Fit_index.fits_level (active_level fs r) size) then
      fail (Overflow { algo = algo.name; item; bin = b; time = now });
    fs.chain_prev.(slot) <- fs.b_last.(b);
    fs.b_last.(b) <- slot;
    fs.item_bin.(slot) <- b;
    (* Append at the active-list tail: placement order. *)
    fs.act_prev.(slot) <- fs.r_tail.(r);
    fs.act_next.(slot) <- -1;
    if fs.r_tail.(r) >= 0 then fs.act_next.(fs.r_tail.(r)) <- slot
    else fs.r_head.(r) <- slot;
    fs.r_tail.(r) <- slot;
    fs.r_active.(r) <- fs.r_active.(r) + 1;
    Float.Array.set fs.r_level r (Float.Array.get fs.r_level r +. size);
    (* [Float.max] without its boxed call: +0. beats -0. as there, and
       departures are never nan. *)
    let d = Item.departure item and latest = Float.Array.get fs.r_latest r in
    if d > latest || (d = latest && Float.sign_bit latest) then
      Float.Array.set fs.r_latest r d;
    Fit_index.set_level fs.fit b (Float.Array.get fs.r_level r);
    (match obs with
    | Some o -> o.Observer.on_place ~time:now ~item ~bin:b
    | None -> ());
    stepper.notify ~item ~index:b
  in
  let depart t slot =
    let b = fs.item_bin.(slot) in
    if b < 0 then
      fail
        (Unplaced_departure
           { algo = algo.name; item_id = Item.id fs.items.(slot) });
    let r = fs.b_row.(b) in
    let a = fs.r_active.(r) - 1 in
    fs.r_active.(r) <- a;
    Float.Array.set fs.r_level r
      (if a = 0 then 0.
       else Float.Array.get fs.r_level r -. Float.Array.get fs.sizes slot);
    (* Unlink from the active list. *)
    if fs.act_prev.(slot) >= 0 then
      fs.act_next.(fs.act_prev.(slot)) <- fs.act_next.(slot)
    else fs.r_head.(r) <- fs.act_next.(slot);
    if fs.act_next.(slot) >= 0 then
      fs.act_prev.(fs.act_next.(slot)) <- fs.act_prev.(slot)
    else fs.r_tail.(r) <- fs.act_prev.(slot);
    fs.act_prev.(slot) <- -1;
    fs.act_next.(slot) <- -1;
    if a = 0 then begin
      (* Close: the row is recycled, the fit leaf stays retired (the
         dirty flush below sees [b_row] = -1 and closes it). *)
      Float.Array.set fs.b_closed b t;
      unlink_row fs r;
      free_row fs r;
      fs.b_row.(b) <- -1
    end;
    mark_dirty fs b;
    (match obs with
    | Some o ->
        o.Observer.on_departure ~time:t ~item:fs.items.(slot);
        if a = 0 then o.Observer.on_close_bin ~time:t ~bin:b
    | None -> ());
    stepper.departed fs.items.(slot)
  in
  let arrive now slot =
    (* End of the departure batch: settle the fit index before any
       query can see it. *)
    if fs.dirty_n > 0 then flush_dirty fs;
    let item = fs.items.(slot) in
    (match obs with
    | Some o -> o.Observer.on_arrival ~time:now ~item
    | None -> ());
    let decision = stepper.decide ~now ~index item in
    (match obs with
    | Some o ->
        o.Observer.on_decision ~time:now ~item
          ~bin:(match decision with Place i -> Some i | Open_new -> None)
    | None -> ());
    match decision with
    | Open_new ->
        let b = open_new_bin fs now in
        (match obs with
        | Some o -> o.Observer.on_open_bin ~time:now ~bin:b
        | None -> ());
        place b slot now
    | Place idx ->
        if idx < 0 || idx >= fs.bins then
          fail (Unknown_bin { algo = algo.name; bin = idx; time = now })
        else if fs.b_row.(idx) < 0 then
          fail (Closed_bin { algo = algo.name; bin = idx; time = now })
        else place idx slot now
  in
  let events = Event.Flat.of_items items in
  while not (Event.Flat.is_empty events) do
    match Event.Flat.pop events with
    | Event.Departure ->
        depart (Event.Flat.time events) (Event.Flat.slot events)
    | Event.Arrival -> arrive (Event.Flat.time events) (Event.Flat.slot events)
  done;
  fs

let indexed_exn obs algo instance =
  let fs = flat_run obs algo instance in
  Packing.of_bins instance
    (List.init fs.bins (fun b -> rebuild_bin fs b fs.b_last.(b)))

(* Usage without materialising the packing: every engine bin is open
   over a single interval (it closes the moment it empties and never
   reopens, and its level is a positive sum of sizes in between), so its
   profile support is exactly [opened, closed) and
   [Bin_state.usage_time] reduces to [closed -. opened] — bitwise, the
   support endpoints being untouched copies of item floats.  Folding in
   bin-index order reproduces [Packing.total_usage_time]'s float
   accumulation exactly. *)
let usage_exn obs algo instance =
  let fs = flat_run obs algo instance in
  let acc = ref 0. in
  for b = 0 to fs.bins - 1 do
    acc :=
      !acc +. (Float.Array.get fs.b_closed b -. Float.Array.get fs.b_opened b)
  done;
  !acc

(* Public entry points: every engine comes in two flavours — the
   structured [_result] form, and the legacy exception shim that turns
   the same error into the historical [Invalid_decision] message. *)

let wrap engine observer algo instance =
  match engine observer algo instance with
  | packing -> Ok packing
  | exception Err e -> Error e

let lift engine observer algo instance =
  match engine observer algo instance with
  | packing -> packing
  | exception Err e -> raise (Invalid_decision (error_to_string e))

let run_reference_result ?observer algo instance =
  wrap reference_exn observer algo instance

let run_reference ?observer algo instance =
  lift reference_exn observer algo instance

let run_indexed_result ?observer algo instance =
  wrap indexed_exn observer algo instance

let run_indexed ?observer algo instance =
  lift indexed_exn observer algo instance

let run_result ?observer algo instance = run_indexed_result ?observer algo instance
let run ?observer algo instance = run_indexed ?observer algo instance

let run_usage_result ?observer algo instance =
  wrap usage_exn observer algo instance

let run_usage ?observer algo instance = lift usage_exn observer algo instance

let usage_time algo instance = run_usage algo instance
