(* Using the library as the decision core of a cluster autoscaler.

   A recurring-analytics cluster (hourly ETL, daily reports, ad-hoc
   queries) asks, for every arriving job, which worker to run it on --
   exactly the online MinUsageTime DBP interface.  This example drives
   the online engine step-by-step through one day, logging scale-up
   events, and then audits the day: worker-hours billed, utilization,
   and distance from the theoretical lower bound.

   Run with: dune exec examples/autoscaler.exe *)

open Dbp_core

let () =
  let config =
    { Dbp_workload.Analytics.default with horizon = 1440. (* one day *) }
  in
  let jobs = Dbp_workload.Analytics.generate ~seed:7 config in
  Printf.printf "templates:\n";
  Array.iter
    (fun t -> Format.printf "  %a@." Dbp_workload.Analytics.pp_template t)
    config.Dbp_workload.Analytics.templates;
  Printf.printf "\n%d jobs in one day (mu = %.1f)\n\n" (Instance.length jobs)
    (Instance.mu jobs);

  (* Wrap the tuned classify-by-duration strategy so we can watch its
     decisions: the [notify] hook reports every placement. *)
  let inner = Dbp_online.Classify_duration.tuned jobs in
  let scale_ups = ref 0 and placements = ref 0 in
  let watched =
    {
      Dbp_online.Engine.name = "watched-" ^ inner.Dbp_online.Engine.name;
      make =
        (fun () ->
          let stepper = inner.Dbp_online.Engine.make () in
          let seen_bins = Hashtbl.create 64 in
          {
            stepper with
            Dbp_online.Engine.notify =
              (fun ~item ~index ->
                incr placements;
                if not (Hashtbl.mem seen_bins index) then begin
                  Hashtbl.add seen_bins index ();
                  incr scale_ups;
                  if !scale_ups <= 10 then
                    Printf.printf
                      "t=%7.1f  scale-up: worker %d for job %d (%.0f%% of a worker, ends t=%.0f)\n"
                      (Item.arrival item) index (Item.id item)
                      (100. *. Item.size item)
                      (Item.departure item)
                end;
                stepper.Dbp_online.Engine.notify ~item ~index);
          });
    }
  in
  let packing = Dbp_online.Engine.run watched jobs in
  if !scale_ups > 10 then
    Printf.printf "... (%d more scale-ups)\n" (!scale_ups - 10);

  Printf.printf "\nplacements: %d, distinct workers rented: %d\n" !placements
    !scale_ups;
  Printf.printf "worker-minutes billed: %.0f\n" (Packing.total_usage_time packing);
  Printf.printf "fleet utilization:     %.1f%%\n"
    (100. *. Packing.utilization packing);
  Printf.printf "peak fleet size:       %d workers\n"
    (Packing.max_concurrent_bins packing);
  Printf.printf "lower bound (Prop. 3): %.0f worker-minutes (ratio %.3f)\n"
    (Dbp_opt.Lower_bounds.best jobs)
    (Dbp_opt.Lower_bounds.ratio_to_best jobs (Packing.total_usage_time packing));

  (* What would we have paid with no departure-time knowledge? *)
  let blind =
    Packing.total_usage_time
      (Dbp_online.Engine.run Dbp_online.Any_fit.first_fit jobs)
  in
  Printf.printf "blind first-fit:       %.0f worker-minutes\n" blind
