module Int_map = Map.Make (Int)

type t = { by_id : Item.t Int_map.t }

let of_items items =
  let by_id =
    List.fold_left
      (fun acc r ->
        let id = Item.id r in
        if Int_map.mem id acc then
          invalid_arg (Printf.sprintf "Instance.of_items: duplicate id %d" id)
        else Int_map.add id r acc)
      Int_map.empty items
  in
  { by_id }

let empty = { by_id = Int_map.empty }

let items t = Int_map.bindings t.by_id |> List.map snd

let to_array t =
  match Int_map.min_binding_opt t.by_id with
  | None -> [||]
  | Some (_, first) ->
      let a = Array.make (Int_map.cardinal t.by_id) first in
      let i = ref 0 in
      Int_map.iter
        (fun _ r ->
          a.(!i) <- r;
          incr i)
        t.by_id;
      a

let length t = Int_map.cardinal t.by_id
let is_empty t = Int_map.is_empty t.by_id
let find t id = Int_map.find id t.by_id

let span_intervals t = items t |> List.map Item.interval |> Interval.union

let span t =
  span_intervals t |> List.fold_left (fun acc i -> acc +. Interval.length i) 0.

let demand t =
  Int_map.fold (fun _ r acc -> acc +. Item.demand r) t.by_id 0.

let fold_durations f init t =
  Int_map.fold (fun _ r acc -> f acc (Item.duration r)) t.by_id init

let min_duration t =
  if is_empty t then invalid_arg "Instance.min_duration: empty instance";
  fold_durations Float.min Float.infinity t

let max_duration t =
  if is_empty t then invalid_arg "Instance.max_duration: empty instance";
  fold_durations Float.max Float.neg_infinity t

let mu t = max_duration t /. min_duration t

let size_profile t =
  items t
  |> List.map (fun r -> Step_function.indicator (Item.interval r) (Item.size r))
  |> List.fold_left Step_function.add Step_function.zero

let active_at t time =
  items t |> List.filter (fun r -> Item.active_at r time)

let arrivals_in_order t = items t |> List.sort Item.compare_arrival

let critical_times t =
  items t
  |> List.concat_map (fun r -> [ Item.arrival r; Item.departure r ])
  |> List.sort_uniq Float.compare

let restrict t pred = { by_id = Int_map.filter (fun _ r -> pred r) t.by_id }

let split_disjoint t =
  span_intervals t
  |> List.map (fun frame ->
         restrict t (fun r -> Interval.contains frame (Item.interval r)))

let shift dt t =
  {
    by_id =
      Int_map.map
        (fun r ->
          Item.make ~id:(Item.id r) ~size:(Item.size r)
            ~arrival:(Item.arrival r +. dt)
            ~departure:(Item.departure r +. dt))
        t.by_id;
  }

let pp ppf t =
  Format.fprintf ppf "@[<v>instance (%d items):@," (length t);
  List.iter (fun r -> Format.fprintf ppf "  %a@," Item.pp r) (items t);
  Format.fprintf ppf "@]"
