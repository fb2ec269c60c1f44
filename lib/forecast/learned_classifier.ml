open Dbp_core

let default_key item = Printf.sprintf "%.2f" (Item.size item)

let make ?(key = default_key) ?(fallback = 1.) ~rho () =
  if rho <= 0. then invalid_arg "Learned_classifier.make: rho <= 0";
  Dbp_online.Category_first_fit.make_per_run
    ~name:(Printf.sprintf "cbdt-learned(rho=%g)" rho)
    (fun () ->
      let predictor = Predictor.create ~key () in
      let category item =
        let predicted_departure = Predictor.estimator ~fallback predictor item in
        string_of_int
          (max 1
             (int_of_float (Float.ceil ((predicted_departure /. rho) -. 1e-9))))
      in
      (category, Predictor.observe predictor))
