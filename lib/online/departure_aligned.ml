open Dbp_core

(* The bin's "departure" is the latest departure among its items placed
   so far (future items may extend it; that is inherent to online): the
   view's [latest_departure]. *)
let make ?(window = 5.) () =
  if window < 0. then invalid_arg "Departure_aligned.make: window < 0";
  let decide ~now:_ ~index item =
    (* Smallest mismatch within the window; a later bin must beat the
       best so far by more than 1e-12 to displace it. *)
    let best =
      index.Engine.fold
        (fun best v ->
          if not (Any_fit.fits v item) then best
          else
            let mismatch =
              Float.abs (v.Engine.latest_departure -. Item.departure item)
            in
            match best with
            | _ when mismatch > window -> best
            | Some (best_d, _) when not (mismatch < best_d -. 1e-12) -> best
            | Some _ | None -> Some (mismatch, v.Engine.index))
        None
    in
    match best with
    | None -> Engine.Open_new
    | Some (_, idx) -> Engine.Place idx
  in
  {
    Engine.name = Printf.sprintf "aligned-ff(w=%g)" window;
    make =
      (fun () ->
        {
          Engine.decide;
          notify = (fun ~item:_ ~index:_ -> ());
          departed = Engine.default_departed;
        });
  }

let tuned instance =
  let delta = Instance.min_duration instance in
  let mu = Instance.mu instance in
  make ~window:(sqrt mu *. delta) ()
