type kind = Arrival | Departure

type t = { time : float; kind : kind; item : Item.t }

let kind_rank = function Departure -> 0 | Arrival -> 1

let compare a b =
  match Float.compare a.time b.time with
  | 0 -> (
      match Int.compare (kind_rank a.kind) (kind_rank b.kind) with
      | 0 -> Item.compare_by_id a.item b.item
      | c -> c)
  | c -> c

let of_instance instance =
  Instance.items instance
  |> List.concat_map (fun r ->
         [
           { time = Item.arrival r; kind = Arrival; item = r };
           { time = Item.departure r; kind = Departure; item = r };
         ])
  |> List.sort compare

module Flat = struct
  (* Arrivals come from a cursor over the id-sorted item array, in
     (arrival, slot) order; departures wait in a flat heap keyed by
     (departure, slot), pushed as their arrival is delivered, so the
     heap holds only the jobs active at the current time.  Slots ascend
     with ids, so both orders end at the item id like {!compare}. *)
  type t = {
    items : Item.t array;
    order : int array; (* cursor position -> slot; [||] = identity *)
    mutable cursor : int;
    pending : Heap.Flat.t; (* (departure, slot) of delivered arrivals *)
    mutable kind : kind;
    mutable slot : int;
  }

  (* Ids in arrival order (the generator's case) need no permutation:
     one O(n) scan finds out.  Otherwise a stable sort keeps equal
     arrivals in slot order. *)
  let arrival_order items =
    let n = Array.length items in
    let sorted = ref true in
    for s = 1 to n - 1 do
      if Item.arrival items.(s) < Item.arrival items.(s - 1) then
        sorted := false
    done;
    if !sorted then [||]
    else begin
      let order = Array.init n Fun.id in
      let arrival s = Item.arrival items.(s) in
      Array.stable_sort
        (fun a b -> Float.compare (arrival a) (arrival b))
        order;
      order
    end

  let of_items items =
    {
      items;
      order = arrival_order items;
      cursor = 0;
      pending = Heap.Flat.create ();
      kind = Arrival;
      slot = -1;
    }

  let is_empty t =
    t.cursor = Array.length t.items && Heap.Flat.is_empty t.pending

  let take_departure t =
    t.kind <- Departure;
    t.slot <- Heap.Flat.min_payload t.pending;
    Heap.Flat.remove_min t.pending

  let pop t =
    if t.cursor < Array.length t.items then begin
      let s =
        if Array.length t.order = 0 then t.cursor else t.order.(t.cursor)
      in
      let r = t.items.(s) in
      (* Equal times: the departure goes first. *)
      if
        (not (Heap.Flat.is_empty t.pending))
        && Heap.Flat.min_key t.pending <= Item.arrival r
      then take_departure t
      else begin
        t.cursor <- t.cursor + 1;
        t.kind <- Arrival;
        t.slot <- s;
        Heap.Flat.push t.pending ~key:(Item.departure r) ~payload:s
      end
    end
    else if Heap.Flat.is_empty t.pending then
      invalid_arg "Event.Flat.pop: no event left"
    else take_departure t;
    t.kind

  let slot t = t.slot

  let time t =
    let r = t.items.(t.slot) in
    match t.kind with Arrival -> Item.arrival r | Departure -> Item.departure r
end

let arrivals events =
  List.filter_map
    (fun e -> match e.kind with Arrival -> Some e.item | Departure -> None)
    events

let kind_to_string = function
  | Arrival -> "arrival"
  | Departure -> "departure"

let pp ppf e =
  Format.fprintf ppf "%g %s %a" e.time (kind_to_string e.kind) Item.pp e.item
