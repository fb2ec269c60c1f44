
(* Fewest held indices that trigger a sweep. *)
let min_sweep = 64

(* Per category, the indices of the bins it owns in opening order,
   scanned first-fit with O(1) [view] probes — the scan touches only the
   category's bins instead of every open bin.  Closed bins are pruned
   lazily when a scan walks over them (each is dropped exactly once), so
   no departure-side bookkeeping is needed.

   The state stays proportional to the open bins however long the
   stepper runs, as a daemon's does.  A category whose list prunes to
   empty is dropped.  A category whose items stopped arriving is never
   scanned again (CBDT's departure windows slide past for good), so a
   sweep prunes every list once the indices held have doubled since the
   last sweep: amortised O(1) per opened bin.  Neither pruning changes a
   decision — a scan skips closed bins anyway. *)
let make_per_run ~name per_run =
  let make () =
    let category, departed = per_run () in
    let by_category : (string, int list ref) Hashtbl.t = Hashtbl.create 32 in
    let held = ref 0 (* indices across all lists *) in
    let sweep_at = ref min_sweep in
    let newest = ref (-1) (* highest bin index recorded *) in
    let sweep index =
      let emptied = ref [] in
      held := 0;
      Hashtbl.iter
        (fun cat idxs ->
          idxs :=
            List.filter
              (fun idx -> Option.is_some (index.Engine.view idx))
              !idxs;
          match !idxs with
          | [] -> emptied := cat :: !emptied
          | l -> held := !held + List.length l)
        by_category;
      List.iter (Hashtbl.remove by_category) !emptied;
      sweep_at := max min_sweep (2 * !held)
    in
    let decide ~now:_ ~index item =
      if !held >= !sweep_at then sweep index;
      let cat = category item in
      match Hashtbl.find_opt by_category cat with
      | None -> Engine.Open_new
      | Some idxs ->
          (* [kept] accumulates surviving indices in reverse. *)
          let rec scan kept = function
            | [] ->
                (match kept with
                | [] -> Hashtbl.remove by_category cat
                | _ -> idxs := List.rev kept);
                Engine.Open_new
            | idx :: rest -> (
                match index.Engine.view idx with
                | None ->
                    (* closed: prune *)
                    decr held;
                    scan kept rest
                | Some v ->
                    if Any_fit.fits v item then begin
                      idxs := List.rev_append kept (idx :: rest);
                      Engine.Place idx
                    end
                    else scan (idx :: kept) rest)
          in
          scan [] !idxs
    in
    let notify ~item ~index =
      (* A fresh bin carries the highest index so far, so a high-water
         mark tells it apart, and appending keeps the list in opening
         order. *)
      if index > !newest then begin
        newest := index;
        incr held;
        let cat = category item in
        match Hashtbl.find_opt by_category cat with
        | Some idxs -> idxs := !idxs @ [ index ]
        | None -> Hashtbl.add by_category cat (ref [ index ])
      end
    in
    { Engine.decide; notify; departed }
  in
  { Engine.name; make }

let make ~name ~category =
  make_per_run ~name (fun () -> (category, Engine.default_departed))
