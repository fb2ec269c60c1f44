open Dbp_core

let render ?tenant item =
  let tenant_field =
    match tenant with
    | None -> ""
    | Some t -> Printf.sprintf ",\"tenant\":\"%s\"" (Json_lite.escape t)
  in
  Printf.sprintf "{\"id\":%d,\"size\":%s,\"arrival\":%s,\"departure\":%s%s}"
    (Item.id item)
    (Json_lite.fmt_num (Item.size item))
    (Json_lite.fmt_num (Item.arrival item))
    (Json_lite.fmt_num (Item.departure item))
    tenant_field

(* ---- the zero-alloc parse path ---------------------------------------- *)

(* [parse_into] is the grammar of Json_lite.parse_object + the four
   field checks + Item.make, as a single in-place scan: no field list,
   no per-key Buffer, no value boxes.  The test suite keeps that
   composition as an oracle and feeds both arbitrary byte strings,
   asserting Ok/Error agreement with bit-equal items, so any drift from
   the generic JSON reader is a test failure, not a silent fork.

   Remaining allocations per well-formed line: one short substring per
   number token (float_of_string needs a real string), its boxed float,
   and the Item.t itself — measured by the `bench serve` allocation
   microbench and gated there.  Everything else is engineered out: the
   scanners are top-level functions (no per-call closures), string
   slices and parsed numbers come back through scratch out-params (no
   per-key tuples, no [Some] boxes, no boxed float returns), and the
   number accumulators live in an all-float record whose flat
   representation makes stores unboxed. *)

(* All-float record: stores write the double in place, no minor-heap
   box per assignment. *)
type nums = {
  mutable nm_val : float;  (* [num] out-param *)
  mutable nm_id : float;
  mutable nm_size : float;
  mutable nm_arrival : float;
  mutable nm_departure : float;
}

type scratch = {
  mutable s_line : string;  (* the line the slices below point into *)
  mutable s_pos : int;  (* scan cursor *)
  mutable s_item : Item.t;
  mutable s_tenant_off : int;
  mutable s_tenant_len : int;
  mutable s_tenant_esc : bool;  (* slice contains JSON escapes *)
  (* [scan_string] out-params: content slice of the last string token *)
  mutable s_str_off : int;
  mutable s_str_len : int;
  mutable s_str_esc : bool;
  mutable s_seen : int;  (* known-key bitmask *)
  mutable s_unknown : string list;  (* decoded unknown keys (cold path) *)
  s_nums : nums;
}

let dummy_item = Item.make ~id:0 ~size:1. ~arrival:0. ~departure:1.

let scratch () =
  {
    s_line = "";
    s_pos = 0;
    s_item = dummy_item;
    s_tenant_off = 0;
    s_tenant_len = 0;
    s_tenant_esc = false;
    s_str_off = 0;
    s_str_len = 0;
    s_str_esc = false;
    s_seen = 0;
    s_unknown = [];
    s_nums =
      { nm_val = 0.; nm_id = 0.; nm_size = 0.; nm_arrival = 0.; nm_departure = 0. };
  }

let item sc = sc.s_item

exception Fail of string

let fail at reason = raise (Fail (Printf.sprintf "%s at byte %d" reason at))

(* Known-key bitmask slots. *)
let k_id = 1
let k_size = 2
let k_arrival = 4
let k_departure = 8
let k_tenant = 16

(* The scanners below are top-level (not closures inside [parse_into])
   so the hot path allocates no closure environments; they communicate
   through the scratch out-params instead of returned tuples. *)

let skip_ws sc n =
  let line = sc.s_line in
  while sc.s_pos < n && Json_lite.is_ws line.[sc.s_pos] do
    sc.s_pos <- sc.s_pos + 1
  done

let expect sc n c what =
  if sc.s_pos < n && Char.equal sc.s_line.[sc.s_pos] c then
    sc.s_pos <- sc.s_pos + 1
  else fail sc.s_pos ("expected " ^ what)

(* Scan a JSON string without building it: validates the same escape
   set, leaves (content_off, content_len, has_escapes) in
   [s_str_off]/[s_str_len]/[s_str_esc]. *)
let rec scan_string_body sc n =
  if sc.s_pos >= n then fail sc.s_pos "unterminated string"
  else
    match sc.s_line.[sc.s_pos] with
    | '"' -> sc.s_pos <- sc.s_pos + 1
    | '\\' ->
        if sc.s_pos + 1 >= n then fail sc.s_pos "unterminated escape"
        else begin
          (match sc.s_line.[sc.s_pos + 1] with
          | '"' | '\\' | '/' | 'n' | 't' | 'r' | 'b' | 'f' -> ()
          | _ -> fail sc.s_pos "unsupported escape");
          sc.s_str_esc <- true;
          sc.s_pos <- sc.s_pos + 2;
          scan_string_body sc n
        end
    | _ ->
        sc.s_pos <- sc.s_pos + 1;
        scan_string_body sc n

let scan_string sc n =
  expect sc n '"' "'\"'";
  let start = sc.s_pos in
  sc.s_str_esc <- false;
  scan_string_body sc n;
  sc.s_str_off <- start;
  sc.s_str_len <- sc.s_pos - 1 - start

let decode_slice sc off len =
  let line = sc.s_line in
  let buf = Buffer.create len in
  let i = ref off in
  while !i < off + len do
    (match line.[!i] with
    | '\\' when !i + 1 < off + len ->
        (match line.[!i + 1] with
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | c -> Buffer.add_char buf c);
        incr i
    | c -> Buffer.add_char buf c);
    incr i
  done;
  Buffer.contents buf

let tenant sc =
  if sc.s_tenant_len = 0 then Router.default_tenant
  else if not sc.s_tenant_esc then
    String.sub sc.s_line sc.s_tenant_off sc.s_tenant_len
  else
    (* Escaped tenants are the cold path. *)
    decode_slice sc sc.s_tenant_off sc.s_tenant_len

let shard_for router sc =
  if sc.s_tenant_len = 0 || sc.s_tenant_esc then
    Router.shard_for router (tenant sc)
  else
    Router.shard_for_sub router sc.s_line ~off:sc.s_tenant_off
      ~len:sc.s_tenant_len

(* Leaves the parsed value in [s_nums.nm_val] — an unboxed store, where
   returning the float would box it at every call. *)
let parse_number sc n =
  let line = sc.s_line in
  let start = sc.s_pos in
  while sc.s_pos < n && Json_lite.is_num_char line.[sc.s_pos] do
    sc.s_pos <- sc.s_pos + 1
  done;
  if sc.s_pos = start then fail start "expected a value";
  let tok = String.sub line start (sc.s_pos - start) in
  match float_of_string tok with
  | v -> sc.s_nums.nm_val <- v
  | exception Failure _ -> fail start ("bad number " ^ String.escaped tok)

let skip_word sc n w =
  let l = String.length w in
  if
    sc.s_pos + l <= n
    && String.equal (String.sub sc.s_line sc.s_pos l) w
  then sc.s_pos <- sc.s_pos + l
  else fail sc.s_pos "expected a value"

(* Validate-and-skip any value; used for unknown keys.  Returns
   nothing — only the syntax check matters. *)
let skip_value sc n =
  if sc.s_pos >= n then fail sc.s_pos "expected a value"
  else
    match sc.s_line.[sc.s_pos] with
    | '"' -> scan_string sc n
    | 't' -> skip_word sc n "true"
    | 'f' -> skip_word sc n "false"
    | 'n' -> skip_word sc n "null"
    | '{' | '[' -> fail sc.s_pos "nested values unsupported"
    | _ -> parse_number sc n

let num_value sc n key =
  if sc.s_pos >= n then fail sc.s_pos "expected a value"
  else
    match sc.s_line.[sc.s_pos] with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> parse_number sc n
    | '"' | 't' | 'f' | 'n' ->
        skip_value sc n;
        fail sc.s_pos (Printf.sprintf "field %S is not a number" key)
    | '{' | '[' -> fail sc.s_pos "nested values unsupported"
    | _ -> fail sc.s_pos "expected a value"

let rec bytes_eq line off name i len =
  i >= len
  || (Char.equal line.[off + i] name.[i] && bytes_eq line off name (i + 1) len)

(* Raw-slice comparison against a known key name; keys containing
   escapes can never decode to a known name (the escape set produces
   no letters), so raw bytes suffice. *)
let slice_is sc off len esc name =
  (not esc)
  && len = String.length name
  && bytes_eq sc.s_line off name 0 len

let rec parse_fields sc n =
  skip_ws sc n;
  scan_string sc n;
  let koff = sc.s_str_off and klen = sc.s_str_len and kesc = sc.s_str_esc in
  let known =
    if slice_is sc koff klen kesc "id" then k_id
    else if slice_is sc koff klen kesc "size" then k_size
    else if slice_is sc koff klen kesc "arrival" then k_arrival
    else if slice_is sc koff klen kesc "departure" then k_departure
    else if slice_is sc koff klen kesc "tenant" then k_tenant
    else 0
  in
  if known <> 0 then begin
    if sc.s_seen land known <> 0 then fail sc.s_pos "duplicate key";
    sc.s_seen <- sc.s_seen lor known
  end
  else begin
    (* Unknown keys are the cold path: decode for exact duplicate
       semantics (escaped spellings of the same key collide, as
       they do in Json_lite.parse_object). *)
    let key = decode_slice sc koff klen in
    if List.mem key sc.s_unknown then fail sc.s_pos ("duplicate key " ^ key);
    sc.s_unknown <- key :: sc.s_unknown
  end;
  skip_ws sc n;
  expect sc n ':' "':'";
  skip_ws sc n;
  (if known = k_id then begin
     num_value sc n "id";
     sc.s_nums.nm_id <- sc.s_nums.nm_val
   end
   else if known = k_size then begin
     num_value sc n "size";
     sc.s_nums.nm_size <- sc.s_nums.nm_val
   end
   else if known = k_arrival then begin
     num_value sc n "arrival";
     sc.s_nums.nm_arrival <- sc.s_nums.nm_val
   end
   else if known = k_departure then begin
     num_value sc n "departure";
     sc.s_nums.nm_departure <- sc.s_nums.nm_val
   end
   else if known = k_tenant then begin
     if sc.s_pos < n && Char.equal sc.s_line.[sc.s_pos] '"' then begin
       scan_string sc n;
       sc.s_tenant_off <- sc.s_str_off;
       sc.s_tenant_len <- sc.s_str_len;
       sc.s_tenant_esc <- sc.s_str_esc
     end
     else
       (* A non-string tenant routes as the default tenant, like a
          line with no tenant at all — the item ignores the field
          entirely, so only the syntax check matters. *)
       skip_value sc n
   end
   else skip_value sc n);
  skip_ws sc n;
  if sc.s_pos < n && Char.equal sc.s_line.[sc.s_pos] ',' then begin
    sc.s_pos <- sc.s_pos + 1;
    parse_fields sc n
  end
  else expect sc n '}' "',' or '}'"

let require sc mask name =
  if sc.s_seen land mask = 0 then
    fail sc.s_pos (Printf.sprintf "missing field %S" name)

let[@dbp.total] parse_into sc line =
  let n = String.length line in
  sc.s_line <- line;
  sc.s_pos <- 0;
  sc.s_tenant_off <- 0;
  sc.s_tenant_len <- 0;
  sc.s_tenant_esc <- false;
  sc.s_seen <- 0;
  sc.s_unknown <- [];
  match
    skip_ws sc n;
    expect sc n '{' "'{'";
    skip_ws sc n;
    if sc.s_pos < n && Char.equal line.[sc.s_pos] '}' then
      sc.s_pos <- sc.s_pos + 1
    else parse_fields sc n;
    skip_ws sc n;
    if sc.s_pos <> n then fail sc.s_pos "trailing bytes after object";
    require sc k_id "id";
    require sc k_size "size";
    require sc k_arrival "arrival";
    require sc k_departure "departure";
    if
      not
        (Float.is_integer sc.s_nums.nm_id
        && Float.abs sc.s_nums.nm_id <= 4503599627370496.)
    then fail sc.s_pos "field \"id\" is not an integer"
  with
  | exception Fail msg -> Error msg
  | () -> (
      match
        Item.make
          ~id:(int_of_float sc.s_nums.nm_id)
          ~size:sc.s_nums.nm_size ~arrival:sc.s_nums.nm_arrival
          ~departure:sc.s_nums.nm_departure
      with
      | it ->
          sc.s_item <- it;
          Ok ()
      | exception Invalid_argument msg -> Error msg)
