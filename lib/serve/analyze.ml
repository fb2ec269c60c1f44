(* The dbp analyze offline reporter (see the interface).  Pure text in,
   text out: the CLI reads the files, this module never touches IO, the
   clock or any other nondeterminism source — it is on the R12 target
   list precisely because its contract is "same inputs, same bytes". *)

module Hdr = Dbp_obs.Hdr
module Sp = Dbp_obs.Span

type input = {
  spans : string list;
  journals : (string * string list) list;
  arrivals : string list option;
  time_buckets : int;
}

let n_phases = Array.length Sp.phases

(* ---- span rows -------------------------------------------------------- *)

type row = {
  sr_shard : int;
  sr_depth : int;
  sr_t : float;
  sr_durs : float option array;  (* one slot per phase, pipeline order *)
}

let parse_row line =
  match Json_lite.parse_object line with
  | Error _ -> None
  | Ok fields -> (
      match
        ( Json_lite.int_field fields "shard",
          Json_lite.int_field fields "depth",
          Json_lite.num_field fields "t" )
      with
      | Ok sr_shard, Ok sr_depth, Ok sr_t ->
          let sr_durs =
            Array.map
              (fun p ->
                match Json_lite.field fields (Sp.phase_name p) with
                | Some (Json_lite.Num v) when Float.is_finite v && v >= 0. ->
                    Some v
                | _ -> None)
              Sp.phases
          in
          Some { sr_shard; sr_depth; sr_t; sr_durs }
      | _ -> None)

(* ---- journals --------------------------------------------------------- *)

type job = { j_size : float; j_arrival : float; j_departure : float }

(* A bin-usage episode: open instant and the latest departure seen. *)
type episode = { e_open : float; mutable e_close : float }

let cmp_interval (a1, b1) (a2, b2) =
  match Float.compare a1 a2 with 0 -> Float.compare b1 b2 | c -> c

type journal_stats = {
  js_name : string;
  js_placed : int;
  js_rejected : int;
  js_malformed : int;
  js_unmatched : int;  (* placed jobs absent from the arrivals input *)
  js_episodes : (float * float) list;  (* (open, close), completed *)
  js_intervals : (float * float) list;  (* placed jobs' [arrival, dep] *)
  js_demand : float;  (* sum of size * duration over placed jobs *)
}

let analyze_journal jobs (name, lines) =
  let placed = ref 0 and rejected = ref 0 and malformed = ref 0 in
  let unmatched = ref 0 in
  let open_bins : (int, episode) Hashtbl.t = Hashtbl.create 64 in
  let closed = ref [] in
  let intervals = ref [] in
  let demand = ref 0. in
  List.iter
    (fun line ->
      match Decision.parse line with
      | Error _ -> incr malformed
      | Ok (Decision.Rejected _) -> incr rejected
      | Ok (Decision.Placed { job; bin; opened; time; _ }) -> (
          incr placed;
          let close =
            match jobs with
            | None -> time
            | Some tbl -> (
                match Hashtbl.find_opt tbl job with
                | Some j ->
                    intervals := (j.j_arrival, j.j_departure) :: !intervals;
                    demand :=
                      !demand +. (j.j_size *. (j.j_departure -. j.j_arrival));
                    j.j_departure
                | None ->
                    incr unmatched;
                    time)
          in
          match Hashtbl.find_opt open_bins bin with
          | Some ep when not opened ->
              if close > ep.e_close then ep.e_close <- close
          | Some ep ->
              (* The bin id is being reused: the previous episode is
                 complete. *)
              closed := (ep.e_open, ep.e_close) :: !closed;
              Hashtbl.replace open_bins bin { e_open = time; e_close = close }
          | None ->
              (* opened=false with no live episode can only mean the
                 journal is a suffix; start the episode here anyway. *)
              Hashtbl.replace open_bins bin { e_open = time; e_close = close }))
    lines;
  Hashtbl.iter
    (fun _ ep -> closed := (ep.e_open, ep.e_close) :: !closed)
    open_bins;
  {
    js_name = name;
    js_placed = !placed;
    js_rejected = !rejected;
    js_malformed = !malformed;
    js_unmatched = !unmatched;
    js_episodes = List.sort cmp_interval !closed;
    js_intervals = List.sort cmp_interval !intervals;
    js_demand = !demand;
  }

let usage_of js =
  List.fold_left (fun acc (o, c) -> acc +. Float.max 0. (c -. o)) 0.
    js.js_episodes

(* Total length of the union of (sorted) intervals. *)
let union_span intervals =
  let rec go acc cur = function
    | [] -> ( match cur with None -> acc | Some (lo, hi) -> acc +. (hi -. lo))
    | (lo, hi) :: rest -> (
        match cur with
        | None -> go acc (Some (lo, hi)) rest
        | Some (clo, chi) ->
            if lo <= chi then go acc (Some (clo, Float.max chi hi)) rest
            else go (acc +. (chi -. clo)) (Some (lo, hi)) rest)
  in
  go 0. None intervals

let parse_arrivals lines =
  let tbl = Hashtbl.create 1024 in
  let malformed = ref 0 in
  let scratch = Arrival.scratch () in
  List.iter
    (fun line ->
      match Arrival.parse_into scratch line with
      | Error _ -> incr malformed
      | Ok () ->
          let item = Arrival.item scratch in
          Hashtbl.replace tbl
            (Dbp_core.Item.id item)
            {
              j_size = Dbp_core.Item.size item;
              j_arrival = Dbp_core.Item.arrival item;
              j_departure = Dbp_core.Item.departure item;
            })
    lines;
  (tbl, !malformed)

(* ---- timelines -------------------------------------------------------- *)

(* Max concurrency per time bucket from (+1 at open, -1 at close)
   events; closes sort before opens at the same instant. *)
let concurrency_timeline ~buckets spans_of_events events =
  match spans_of_events with
  | None -> []
  | Some (t_min, t_max) ->
      let width = (t_max -. t_min) /. float_of_int buckets in
      if not (width > 0.) then []
      else begin
        let events =
          List.sort
            (fun (t1, d1) (t2, d2) ->
              match Float.compare t1 t2 with 0 -> Int.compare d1 d2 | c -> c)
            events
        in
        let per_bucket = Array.make buckets 0 in
        let level = ref 0 in
        let rec sweep evs b =
          if b >= buckets then ()
          else
            let b_end = t_min +. (width *. float_of_int (b + 1)) in
            (* max level over [b_start, b_end) = level entering the
               bucket joined with levels after each event inside it *)
            let rec inside evs acc =
              match evs with
              | (t, d) :: rest
                when t < b_end || (b = buckets - 1 && t <= t_max) ->
                  level := !level + d;
                  inside rest (max acc !level)
              | _ ->
                  per_bucket.(b) <- acc;
                  sweep evs (b + 1)
            in
            inside evs !level
        in
        sweep events 0;
        List.init buckets (fun b ->
            ( t_min +. (width *. float_of_int b),
              t_min +. (width *. float_of_int (b + 1)),
              per_bucket.(b) ))
      end

(* ---- rendering -------------------------------------------------------- *)

let fnum v = Printf.sprintf "%.4g" v

let add_line buf fmt = Printf.ksprintf (fun s ->
    Buffer.add_string buf s;
    Buffer.add_char buf '\n') fmt

let phase_table buf rows =
  let hdrs = Array.init n_phases (fun _ -> Hdr.create ()) in
  List.iter
    (fun r ->
      Array.iteri
        (fun i d -> match d with Some v -> Hdr.record hdrs.(i) v | None -> ())
        r.sr_durs)
    rows;
  add_line buf "-- phase latency (seconds) --";
  add_line buf "%-10s %8s %10s %10s %10s %10s" "phase" "count" "p50" "p95"
    "p99" "max";
  Array.iteri
    (fun i p ->
      let s = Hdr.snapshot hdrs.(i) in
      add_line buf "%-10s %8d %10s %10s %10s %10s" (Sp.phase_name p)
        (Hdr.count s)
        (fnum (Hdr.quantile s 0.50))
        (fnum (Hdr.quantile s 0.95))
        (fnum (Hdr.quantile s 0.99))
        (fnum (Hdr.max_value s)))
    Sp.phases

let shard_table buf rows =
  let shards =
    List.sort_uniq Int.compare (List.map (fun r -> r.sr_shard) rows)
  in
  if shards <> [] then begin
    add_line buf "";
    add_line buf "-- shards --";
    add_line buf "%-6s %8s %10s %11s %12s %12s %12s" "shard" "spans"
      "depth_max" "depth_mean" "mailbox_p50" "mailbox_p99" "mailbox_max";
    List.iter
      (fun k ->
        let mine = List.filter (fun r -> r.sr_shard = k) rows in
        let n = List.length mine in
        let depth_max =
          List.fold_left (fun a r -> max a r.sr_depth) 0 mine
        in
        let depth_sum =
          List.fold_left (fun a r -> a + r.sr_depth) 0 mine
        in
        let wait = Hdr.create () in
        List.iter
          (fun r ->
            match r.sr_durs.(Sp.phase_index Sp.Mailbox) with
            | Some v -> Hdr.record wait v
            | None -> ())
          mine;
        let s = Hdr.snapshot wait in
        add_line buf "%-6d %8d %10d %11.2f %12s %12s %12s" k n depth_max
          (float_of_int depth_sum /. float_of_int (max 1 n))
          (fnum (Hdr.quantile s 0.50))
          (fnum (Hdr.quantile s 0.99))
          (fnum (Hdr.max_value s)))
      shards
  end

let depth_timeline buf ~buckets rows =
  let shards =
    List.sort_uniq Int.compare (List.map (fun r -> r.sr_shard) rows)
  in
  match rows with
  | [] -> ()
  | _ ->
      let t_min =
        List.fold_left (fun a r -> Float.min a r.sr_t) Float.infinity rows
      in
      let t_max =
        List.fold_left (fun a r -> Float.max a r.sr_t) Float.neg_infinity rows
      in
      let width = (t_max -. t_min) /. float_of_int buckets in
      if width > 0. then begin
        add_line buf "";
        add_line buf "-- mailbox depth timeline (max depth per bucket) --";
        let header =
          String.concat ""
            (List.map (fun k -> Printf.sprintf " shard%-4d" k) shards)
        in
        add_line buf "%-24s%s" "bucket" header;
        for b = 0 to buckets - 1 do
          let b_lo = t_min +. (width *. float_of_int b) in
          let b_hi = t_min +. (width *. float_of_int (b + 1)) in
          let in_bucket r =
            r.sr_t >= b_lo && (r.sr_t < b_hi || b = buckets - 1)
          in
          let cells =
            String.concat ""
              (List.map
                 (fun k ->
                   let mine =
                     List.filter
                       (fun r -> r.sr_shard = k && in_bucket r)
                       rows
                   in
                   match mine with
                   | [] -> Printf.sprintf " %9s" "-"
                   | _ ->
                       Printf.sprintf " %9d"
                         (List.fold_left
                            (fun a r -> max a r.sr_depth)
                            0 mine))
                 shards)
          in
          add_line buf "%-24s%s"
            (Printf.sprintf "[%s,%s)" (fnum b_lo) (fnum b_hi))
            cells
        done
      end

let report input =
  let buf = Buffer.create 4096 in
  add_line buf "== dbp analyze ==";
  let rows, span_malformed =
    List.fold_left
      (fun (rows, bad) line ->
        match parse_row line with
        | Some r -> (r :: rows, bad)
        | None -> (rows, bad + 1))
      ([], 0) input.spans
  in
  let rows = List.rev rows in
  add_line buf "spans: %d parsed, %d malformed" (List.length rows)
    span_malformed;
  let jobs, arrivals_note =
    match input.arrivals with
    | None -> (None, None)
    | Some lines ->
        let tbl, bad = parse_arrivals lines in
        (Some tbl, Some (Hashtbl.length tbl, bad))
  in
  (match arrivals_note with
  | Some (n, bad) -> add_line buf "arrivals: %d parsed, %d malformed" n bad
  | None -> ());
  add_line buf "";
  phase_table buf rows;
  shard_table buf rows;
  depth_timeline buf ~buckets:input.time_buckets rows;
  (* ---- journals ---- *)
  let stats = List.map (analyze_journal jobs) input.journals in
  List.iter
    (fun js ->
      add_line buf "";
      add_line buf "-- journal %s --" js.js_name;
      add_line buf "decisions: %d placed, %d rejected, %d malformed%s"
        js.js_placed js.js_rejected js.js_malformed
        (if js.js_unmatched > 0 then
           Printf.sprintf " (%d placed jobs missing from arrivals)"
             js.js_unmatched
         else "");
      add_line buf "bins opened: %d" (List.length js.js_episodes);
      let events =
        List.concat_map (fun (o, c) -> [ (o, 1); (c, -1) ]) js.js_episodes
      in
      let span_bounds =
        match js.js_episodes with
        | [] -> None
        | eps ->
            let lo =
              List.fold_left (fun a (o, _) -> Float.min a o) Float.infinity
                eps
            in
            let hi =
              List.fold_left (fun a (_, c) -> Float.max a c)
                Float.neg_infinity eps
            in
            Some (lo, hi)
      in
      let timeline =
        concurrency_timeline ~buckets:input.time_buckets span_bounds events
      in
      if timeline <> [] then begin
        add_line buf "utilization timeline (open bins, max per bucket):";
        List.iter
          (fun (lo, hi, n) ->
            add_line buf "  %-22s %6d"
              (Printf.sprintf "[%s,%s)" (fnum lo) (fnum hi))
              n)
          timeline
      end)
    stats;
  (* ---- usage-time efficiency (the paper's objective) ---- *)
  add_line buf "";
  add_line buf "-- usage-time efficiency --";
  (match jobs with
  | None ->
      add_line buf
        "unavailable: pass the arrivals input to reconstruct job \
         departures (usage = sum over bins of close - open needs them)"
  | Some _ ->
      add_line buf "%-14s %7s %8s %6s %12s %12s %12s %8s" "algo" "placed"
        "rejected" "bins" "usage" "span_lb" "demand_lb" "ratio";
      List.iter
        (fun js ->
          let usage = usage_of js in
          let span_lb = union_span js.js_intervals in
          let ratio = if span_lb > 0. then usage /. span_lb else 0. in
          add_line buf "%-14s %7d %8d %6d %12s %12s %12s %8.3f" js.js_name
            js.js_placed js.js_rejected
            (List.length js.js_episodes)
            (fnum usage) (fnum span_lb) (fnum js.js_demand) ratio)
        stats);
  Buffer.contents buf
