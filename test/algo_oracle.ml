(* View-list twins of the library's online algorithms.  The library
   decides through Engine.index's fit queries, its category lists and
   its folds; each twin here re-derives the same rule from the list of
   open-bin views alone, folded out of the index and scanned, sharing no
   code with Fit_index or Category_first_fit.  The engine differential
   suites run each library algorithm under the fast engines against its
   twin under Engine.run_reference (same names, same decisions). *)

open Dbp_core
module E = Dbp_online.Engine
module Prng = Dbp_workload.Prng

let views index = List.rev (index.E.fold (fun acc v -> v :: acc) [])

let fits (v : E.bin_view) item =
  v.level +. Item.size item <= Bin_state.capacity +. Bin_state.tolerance

(* The fitting view maximal for the strict preference [better]; views
   come in opening order, so the earliest-opened wins ties. *)
let choose_fitting better open_bins item =
  match List.filter (fun v -> fits v item) open_bins with
  | [] -> E.Open_new
  | first :: rest ->
      E.Place
        (List.fold_left (fun acc v -> if better v acc then v else acc) first rest)
          .E.index

type stepper = {
  decide : now:float -> open_bins:E.bin_view list -> Item.t -> E.decision;
  notify : item:Item.t -> index:int -> unit;
  departed : Item.t -> unit;
}

let make name fresh =
  {
    E.name;
    make =
      (fun () ->
        let s = fresh () in
        {
          E.decide =
            (fun ~now ~index item -> s.decide ~now ~open_bins:(views index) item);
          notify = s.notify;
          departed = s.departed;
        });
  }

let no_notify ~item:_ ~index:_ = ()

(* A stateless algorithm from a view-list decide. *)
let of_views name decide =
  make name (fun () ->
      { decide; notify = no_notify; departed = E.default_departed })

let first_fit =
  of_views "first-fit" (fun ~now:_ ~open_bins item ->
      choose_fitting (fun _ _ -> false) open_bins item)

let best_fit =
  of_views "best-fit" (fun ~now:_ ~open_bins item ->
      choose_fitting (fun a b -> a.E.level > b.E.level) open_bins item)

let worst_fit =
  of_views "worst-fit" (fun ~now:_ ~open_bins item ->
      choose_fitting (fun a b -> a.E.level < b.E.level) open_bins item)

let next_fit =
  make "next-fit" (fun () ->
      let current = ref None in
      {
        decide =
          (fun ~now:_ ~open_bins item ->
            let current_view =
              Option.bind !current (fun idx ->
                  List.find_opt (fun v -> v.E.index = idx) open_bins)
            in
            match current_view with
            | Some v when fits v item -> E.Place v.E.index
            | Some _ | None -> E.Open_new);
        notify = (fun ~item:_ ~index -> current := Some index);
        departed = E.default_departed;
      })

(* The library's coin is splitmix64 with 53-bit floats: Prng's stream. *)
let random_fit ~seed =
  make (Printf.sprintf "random-fit(seed=%d)" seed) (fun () ->
      let coin = Prng.create seed in
      {
        decide =
          (fun ~now:_ ~open_bins item ->
            let fitting =
              Array.of_list (List.filter (fun v -> fits v item) open_bins)
            in
            match Array.length fitting with
            | 0 -> E.Open_new
            | n ->
                E.Place
                  fitting.(int_of_float (Prng.float coin *. float_of_int n))
                    .E.index);
        notify = no_notify;
        departed = E.default_departed;
      })

let biased_open ~p ~seed =
  make (Printf.sprintf "biased-open(p=%g)" p) (fun () ->
      let coin = Prng.create seed in
      {
        decide =
          (fun ~now:_ ~open_bins item ->
            if Prng.float coin < p then E.Open_new
            else choose_fitting (fun _ _ -> false) open_bins item);
        notify = no_notify;
        departed = E.default_departed;
      })

let departure_aligned ~window =
  of_views (Printf.sprintf "aligned-ff(w=%g)" window)
    (fun ~now:_ ~open_bins item ->
      let candidates =
        List.filter_map
          (fun v ->
            let mismatch =
              Float.abs (v.E.latest_departure -. Item.departure item)
            in
            if fits v item && mismatch <= window then Some (mismatch, v)
            else None)
          open_bins
      in
      match candidates with
      | [] -> E.Open_new
      | first :: rest ->
          let _, best =
            List.fold_left
              (fun ((best_d, _) as acc) ((d, _) as c) ->
                if d < best_d -. 1e-12 then c else acc)
              first rest
          in
          E.Place best.E.index)

(* Category First Fit: an item may join only the open bins its category
   owns.  [per_run] gives each run a fresh category function and
   departure hook. *)
let category_per_run name per_run =
  make name (fun () ->
      let category, departed = per_run () in
      let bin_category = Hashtbl.create 32 in
      {
        decide =
          (fun ~now:_ ~open_bins item ->
            let cat = category item in
            let mine =
              List.filter
                (fun v -> Hashtbl.find_opt bin_category v.E.index = Some cat)
                open_bins
            in
            choose_fitting (fun _ _ -> false) mine item);
        notify =
          (fun ~item ~index -> Hashtbl.replace bin_category index (category item));
        departed;
      })

let category_first_fit name category =
  category_per_run name (fun () -> (category, E.default_departed))

let hybrid_ff ~classes =
  category_first_fit (Printf.sprintf "hybrid-ff(%d)" classes) (fun item ->
      string_of_int
        (Dbp_online.Hybrid_first_fit.size_class ~classes (Item.size item)))

let cbdt_ff ~rho =
  category_first_fit (Printf.sprintf "cbdt-ff(rho=%g)" rho) (fun item ->
      string_of_int
        (Dbp_online.Classify_departure.estimated_category ~origin:0. ~rho
           ~estimate:Item.departure item))

let cbd_ff ?(base = 1.) ~alpha () =
  category_first_fit (Printf.sprintf "cbd-ff(alpha=%g)" alpha) (fun item ->
      string_of_int
        (Dbp_online.Classify_duration.estimated_category ~base ~alpha
           ~estimate:Item.departure item))

let combined_ff ~alpha =
  category_first_fit (Printf.sprintf "combined-ff(alpha=%g)" alpha)
    (Dbp_online.Classify_combined.category ~base:1. ~alpha ~origin:0.)

(* Classify_departure.tuned and Classify_duration.tuned: the parameters
   re-derived from the instance. *)
let cbdt_tuned inst =
  cbdt_ff
    ~rho:
      (Dbp_online.Classify_departure.optimal_rho
         ~delta:(Instance.min_duration inst) ~mu:(Instance.mu inst))

let cbd_tuned inst =
  let mu = Instance.mu inst in
  let ratio n = (mu ** (1. /. float_of_int n)) +. float_of_int n +. 3. in
  let rec climb n = if ratio (n + 1) < ratio n then climb (n + 1) else n in
  let alpha =
    if mu <= 1. then 2.
    else Dbp_online.Classify_duration.alpha_for_categories ~mu ~n:(climb 1)
  in
  cbd_ff ~base:(Instance.min_duration inst) ~alpha ()

(* Learned_classifier with its default key and fallback. *)
let learned ~rho =
  category_per_run (Printf.sprintf "cbdt-learned(rho=%g)" rho) (fun () ->
      let predictor =
        Dbp_forecast.Predictor.create
          ~key:(fun item -> Printf.sprintf "%.2f" (Item.size item))
          ()
      in
      let category item =
        let departure =
          Dbp_forecast.Predictor.estimator ~fallback:1. predictor item
        in
        string_of_int
          (max 1 (int_of_float (Float.ceil ((departure /. rho) -. 1e-9))))
      in
      (category, Dbp_forecast.Predictor.observe predictor))

(* Twins of Dbp_serve.Portfolio.algorithms, by portfolio name. *)
let portfolio =
  [
    ("first-fit", first_fit);
    ("best-fit", best_fit);
    ("worst-fit", worst_fit);
    ("next-fit", next_fit);
    ("hybrid-ff", hybrid_ff ~classes:4);
    ("cbdt-ff", cbdt_ff ~rho:4.);
    ("cbd-ff", cbd_ff ~alpha:2. ());
  ]

(* Every deterministic library algorithm with its twin: the list the
   engine differential, trace-identity and empty-plan fault suites
   share.  random-fit and biased-open are deterministic given their
   seed: the engines call [decide] on the same arrival sequence, so the
   coin streams align.  So is the learned classifier: every engine calls
   its departure hook on the same departure sequence. *)
let twins =
  let module O = Dbp_online in
  [
    (O.Any_fit.first_fit, first_fit);
    (O.Any_fit.best_fit, best_fit);
    (O.Any_fit.worst_fit, worst_fit);
    (O.Any_fit.next_fit, next_fit);
    (O.Any_fit.random_fit ~seed:7, random_fit ~seed:7);
    (O.Any_fit.biased_open ~p:0.25 ~seed:3, biased_open ~p:0.25 ~seed:3);
    (O.Hybrid_first_fit.make (), hybrid_ff ~classes:4);
    (O.Departure_aligned.make ~window:2. (), departure_aligned ~window:2.);
    (O.Classify_departure.make ~rho:2. (), cbdt_ff ~rho:2.);
    (O.Classify_duration.make ~alpha:2. (), cbd_ff ~alpha:2. ());
    (O.Classify_combined.make ~alpha:2. (), combined_ff ~alpha:2.);
    (Dbp_forecast.Learned_classifier.make ~rho:2. (), learned ~rho:2.);
  ]
