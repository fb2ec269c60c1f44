open Dbp_core
module E = Dbp_online.Engine

type server_report = {
  index : int;
  acquired : float;
  released : float;
  cost : float;
  quanta : int;
  items_served : int;
}

type result = {
  packing : Packing.t;
  cost : float;
  usage : float;
  servers : server_report list;
}

type live = {
  idx : int;
  acquired : float;
  mutable bin : Bin_state.t;
  mutable latest : float;  (** running max of placed departures *)
  mutable active : int;
  mutable release_at : float option;
      (** scheduled release boundary while empty; None when occupied *)
  mutable released : float option;  (** final release time once decided *)
}

(* The release boundary for a server that became empty at [t]: the first
   quantum boundary at or after [t] ([t] itself when it falls exactly on
   one).  Per-second servers release immediately. *)
let release_boundary model ~acquired t =
  match model with
  | Billing_model.Per_second -> t
  | Billing_model.Quantum q ->
      let elapsed = (t -. acquired) /. q in
      if Float.abs (elapsed -. Float.round elapsed) < 1e-9 then t
      else Billing_model.next_boundary model ~acquired ~after:t

let run ?(reuse_idle = true) ~model algo instance =
  let stepper = algo.E.make () in
  let servers : live list ref = ref [] (* reverse acquisition order *) in
  let home = Hashtbl.create 64 in
  (* finalize any server whose scheduled release is due at or before t
     (strictly before an arrival can use it at t = boundary) *)
  let settle_releases now =
    List.iter
      (fun s ->
        match (s.released, s.release_at) with
        | None, Some b when b <= now +. 1e-12 -> s.released <- Some b
        | _ -> ())
      !servers
  in
  let alive now =
    List.rev !servers
    |> List.filter (fun s ->
           s.released = None
           &&
           match s.release_at with
           | None -> true
           | Some b -> b > now +. 1e-12)
  in
  let views now =
    alive now
    |> List.filter (fun s -> s.active > 0 || reuse_idle)
    |> List.map (fun s ->
           {
             E.index = s.idx;
             opened_at = s.acquired;
             level = Bin_state.level_at s.bin now;
             latest_departure = s.latest;
           })
  in
  let place s item =
    let now = Item.arrival item in
    if not (Bin_state.fits_at s.bin ~at:now item) then
      raise
        (E.Invalid_decision
           (Printf.sprintf "%s: item %d overflows server %d" algo.E.name
              (Item.id item) s.idx));
    s.bin <- Bin_state.place s.bin item;
    s.latest <- Float.max s.latest (Item.departure item);
    s.active <- s.active + 1;
    s.release_at <- None;
    Hashtbl.replace home (Item.id item) s;
    stepper.E.notify ~item ~index:s.idx
  in
  let handle event =
    let now = event.Event.time in
    settle_releases now;
    match event.Event.kind with
    | Event.Departure ->
        let s = Hashtbl.find home (Item.id event.Event.item) in
        s.active <- s.active - 1;
        if s.active = 0 then
          s.release_at <- Some (release_boundary model ~acquired:s.acquired now);
        stepper.E.departed event.Event.item
    | Event.Arrival -> (
        let item = event.Event.item in
        let index = E.index_of_views (views now) in
        match stepper.E.decide ~now ~index item with
        | E.Open_new ->
            let s =
              {
                idx = List.length !servers;
                acquired = now;
                bin = Bin_state.empty ~index:(List.length !servers);
                latest = neg_infinity;
                active = 0;
                release_at = None;
                released = None;
              }
            in
            servers := s :: !servers;
            place s item
        | E.Place idx -> (
            match List.find_opt (fun s -> s.idx = idx) (alive now) with
            | None ->
                raise
                  (E.Invalid_decision
                     (Printf.sprintf "%s: server %d unavailable at %g"
                        algo.E.name idx now))
            | Some s ->
                if s.active = 0 && not reuse_idle then
                  raise
                    (E.Invalid_decision
                       (Printf.sprintf "%s: server %d is idle (no reuse)"
                          algo.E.name idx));
                place s item))
  in
  List.iter handle (Event.of_instance instance);
  (* finalize remaining releases *)
  List.iter
    (fun s ->
      match (s.released, s.release_at) with
      | None, Some b -> s.released <- Some b
      | None, None -> assert (s.active = 0 || Bin_state.is_empty s.bin)
      | _ -> ())
    !servers;
  let servers = List.rev !servers in
  let packing = Packing.of_bins instance (List.map (fun s -> s.bin) servers) in
  let reports =
    List.map
      (fun s ->
        let released =
          match s.released with
          | Some r -> r
          | None -> s.acquired (* empty server never happened *)
        in
        {
          index = s.idx;
          acquired = s.acquired;
          released;
          cost = Billing_model.rental_cost model ~acquired:s.acquired ~released;
          quanta = Billing_model.quanta_used model ~acquired:s.acquired ~released;
          items_served = List.length (Bin_state.items s.bin);
        })
      servers
  in
  {
    packing;
    cost =
      List.fold_left (fun a (r : server_report) -> a +. r.cost) 0. reports;
    usage = Packing.total_usage_time packing;
    servers = reports;
  }

let cost_of_packing ~model packing =
  Packing.bins packing
  |> List.fold_left
       (fun acc b ->
         acc
         +. Billing_model.rental_cost model
              ~acquired:(Bin_state.opening_time b)
              ~released:(Bin_state.closing_time b))
       0.
