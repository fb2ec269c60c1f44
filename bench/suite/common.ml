(* Shared helpers: the one clock every number is read from, order
   statistics, whole-file IO, and the result a run prints. *)

(* CLOCK_MONOTONIC in ns through bechamel's stub: it neither allocates
   nor steps the way gettimeofday (Dbp_obs.Clock.monotonic) can. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let since t0 = float_of_int (now_ns () - t0) *. 1e-9

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (since t0, r)

(* Nearest-rank quantile of a sorted array (nan when empty). *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) k))

let sort_floats a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let median xs = quantile (sort_floats (Array.of_list xs)) 0.5
let fastest xs = List.fold_left Float.min Float.infinity xs

(* Latency percentiles are medians over this many equal windows of a
   run: one disturbed stretch of the host moves a minority of windows,
   not the reported value. *)
let windows = 10

(* The median over [windows] equal slices of the run of each slice's
   [q]-quantile; [at.(k)] is when sample [values.(k)] was taken, in
   increasing order. *)
let windowed values at q =
  let n = Array.length values in
  if n = 0 then Float.nan
  else begin
    let span = at.(n - 1) -. at.(0) +. 1. in
    let buckets = Array.make windows [] in
    Array.iteri
      (fun k v ->
        let b = int_of_float ((at.(k) -. at.(0)) /. span *. float_of_int windows) in
        buckets.(b) <- v :: buckets.(b))
      values;
    median
      (List.filter_map
         (function
           | [] -> None
           | l -> Some (quantile (sort_floats (Array.of_list l)) q))
         (Array.to_list buckets))
  end

(* ---- files -------------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let file_size path =
  Int64.to_int (In_channel.with_open_bin path In_channel.length)

let write_lines path lines =
  Out_channel.with_open_bin path (fun oc ->
      Array.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines)

let read_lines path =
  In_channel.with_open_bin path (fun ic ->
      let rec go acc =
        match In_channel.input_line ic with
        | Some l -> go (l :: acc)
        | None -> Array.of_list (List.rev acc)
      in
      go [])

let copy_file src dst =
  Out_channel.with_open_bin dst (fun oc -> output_string oc (read_file src))

let remove path = if Sys.file_exists path then Sys.remove path

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let count_newlines s =
  let n = ref 0 in
  String.iter (fun c -> if Char.equal c '\n' then incr n) s;
  !n

(* Is [part] exactly the first [lines] lines of [full]? *)
let is_line_prefix ~full ~part ~lines =
  let p = read_file part in
  count_newlines p = lines
  && In_channel.with_open_bin full (fun ic ->
         Int64.to_int (In_channel.length ic) >= String.length p
         && String.equal p (really_input_string ic (String.length p)))

(* ---- child processes ---------------------------------------------------- *)

(* A child process hands its result to the parent as one marshalled
   value on stdout; the same executable writes and reads it. *)
let report v =
  Marshal.to_channel stdout v [];
  flush stdout

let read_report file =
  In_channel.with_open_bin file (fun ic ->
      match Marshal.from_channel ic with
      | v -> Some v
      | exception (End_of_file | Failure _) -> None)

(* The value after [key] in a child's argument list. *)
let arg args key =
  let rec go = function
    | k :: v :: _ when String.equal k key -> v
    | _ :: rest -> go rest
    | [] -> invalid_arg ("missing child argument " ^ key)
  in
  go args

(* ---- the result of one workload run ------------------------------------ *)

type result = {
  workload : string;
  mutable metrics : (string * float * string) list;  (* newest first *)
  mutable correct : bool;
  mutable attempted : int;
  mutable failed : int;
}

let result workload =
  { workload; metrics = []; correct = true; attempted = 0; failed = 0 }

let num v = Printf.sprintf "%.17g" v

let note r fmt =
  Printf.ksprintf (fun s -> Printf.printf "# %s %s\n%!" r.workload s) fmt

(* A checked output: a failure marks the whole run incorrect. *)
let check r name ok fmt =
  Printf.ksprintf
    (fun detail ->
      if not ok then r.correct <- false;
      Printf.printf "# %s check %s: %s%s\n%!" r.workload name
        (if ok then "ok" else "FAILED")
        (if detail = "" then "" else " (" ^ detail ^ ")"))
    fmt

(* Record a metric and print it as [workload metric value unit]; a
   value that is not a number means a measurement broke. *)
let metric r name value unit_ =
  if not (Float.is_finite value) then check r ("metric." ^ name) false "not a number";
  r.metrics <- (name, value, unit_) :: r.metrics;
  Printf.printf "%s %s %s %s\n%!" r.workload name (num value) unit_

let to_json r =
  let metrics =
    List.rev_map
      (fun (name, v, u) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (if Float.is_finite v then num v else "null")
          u)
      r.metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", " metrics)
