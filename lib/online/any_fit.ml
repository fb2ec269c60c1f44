open Dbp_core

let fits (view : Engine.bin_view) item =
  Fit_index.fits_level view.level (Item.size item)

let stateless name decide =
  {
    Engine.name;
    make =
      (fun () ->
        {
          Engine.decide;
          notify = (fun ~item:_ ~index:_ -> ());
          departed = Engine.default_departed;
        });
  }

(* The level preferences are exact float comparisons: a strict [>] / [<]
   keeps the earliest-opened bin on equal levels, giving a total order
   that the {!Fit_index} trees answer bin-for-bin.  (An epsilon-fuzzy
   preference is not transitive and cannot be indexed.) *)

let first_fit =
  stateless "first-fit" (fun ~now:_ ~index item -> index.Engine.first_fit item)

let best_fit =
  stateless "best-fit" (fun ~now:_ ~index item -> index.Engine.best_fit item)

let worst_fit =
  stateless "worst-fit" (fun ~now:_ ~index item -> index.Engine.worst_fit item)

(* Tiny self-contained splitmix64 so the online library stays independent
   of the workload package; good enough for algorithmic coin flips. *)
module Coin = struct
  type t = { mutable state : int64 }

  let make seed = { state = Int64.of_int seed }

  let next t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let float t =
    Int64.to_float (Int64.shift_right_logical (next t) 11)
    *. (1. /. 9007199254740992.)

  let int t n = int_of_float (float t *. float_of_int n)
end

let random_fit ~seed =
  {
    Engine.name = Printf.sprintf "random-fit(seed=%d)" seed;
    make =
      (fun () ->
        let coin = Coin.make seed in
        let decide ~now:_ ~index item =
          let fitting =
            index.Engine.fold
              (fun acc v -> if fits v item then v :: acc else acc)
              []
          in
          match List.length fitting with
          | 0 -> Engine.Open_new
          | n ->
              (* [fitting] is in reverse index order. *)
              Engine.Place
                (List.nth fitting (n - 1 - Coin.int coin n)).Engine.index
        in
        {
          Engine.decide;
          notify = (fun ~item:_ ~index:_ -> ());
          departed = Engine.default_departed;
        });
  }

let biased_open ~p ~seed =
  if not (0. <= p && p <= 1.) then invalid_arg "Any_fit.biased_open: p";
  {
    Engine.name = Printf.sprintf "biased-open(p=%g)" p;
    make =
      (fun () ->
        let coin = Coin.make seed in
        let decide ~now:_ ~index item =
          if Coin.float coin < p then Engine.Open_new
          else index.Engine.first_fit item
        in
        {
          Engine.decide;
          notify = (fun ~item:_ ~index:_ -> ());
          departed = Engine.default_departed;
        });
  }

(* Next Fit: remember the index of the bin opened most recently by us; if
   it is still open and fits, use it, otherwise open a new current bin.
   Bins left behind stay open until their items depart but never receive
   another item. *)
let next_fit =
  {
    Engine.name = "next-fit";
    make =
      (fun () ->
        let current = ref None in
        let decide ~now:_ ~index item =
          match Option.bind !current index.Engine.view with
          | Some v when fits v item -> Engine.Place v.Engine.index
          | Some _ | None -> Engine.Open_new
        in
        let notify ~item:_ ~index = current := Some index in
        { Engine.decide; notify; departed = Engine.default_departed });
  }
