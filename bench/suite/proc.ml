(* Every process, socket and signal call of the benchmark.  Lint rule R9
   confines Unix to lib/serve/; this file is the benchmark's one
   exception, and each use carries its own suppression so no other file
   of the suite can grow one unnoticed. *)

type status = Exited of int | Signaled of int

(* Children not yet reaped; [cleanup] kills and reaps them on any exit
   path, so a failed check never leaves a daemon running. *)
let live : int list ref = ref []

let open_for_write path =
  (* dbp-lint: allow R9 bench load generator *)
  Unix.openfile path
    [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
    0o644

let taskset = "/usr/bin/taskset"

(* Start [prog args] with an empty stdin and stdout/stderr sent to
   files, returning its pid.  With [cpu], the process is pinned to that
   CPU (when taskset is installed). *)
let spawn ?cpu ~stdout ~stderr prog args =
  let prog, args =
    match cpu with
    | Some c when Sys.file_exists taskset -> (taskset, "-c" :: string_of_int c :: prog :: args)
    | _ -> (prog, args)
  in
  let out = open_for_write stdout in
  let err = open_for_write stderr in
  (* dbp-lint: allow R9 bench load generator *)
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        (* dbp-lint: allow R9 bench load generator *)
        List.iter Unix.close [ out; err; stdin_r; stdin_w ])
      (fun () ->
        (* dbp-lint: allow R9 bench load generator *)
        Unix.create_process prog (Array.of_list (prog :: args)) stdin_r out err)
  in
  live := pid :: !live;
  pid

let rec wait pid =
  (* dbp-lint: allow R9 bench load generator *)
  match Unix.waitpid [] pid with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pid
  | _, st ->
      live := List.filter (fun p -> p <> pid) !live;
      (match st with
      | Unix.WEXITED c -> Exited c
      | Unix.WSIGNALED s | Unix.WSTOPPED s -> Signaled s)

let signal pid s =
  (* dbp-lint: allow R9 bench load generator *)
  try Unix.kill pid s with Unix.Unix_error _ -> ()

let terminate pid = signal pid Sys.sigterm

let cleanup () =
  List.iter
    (fun pid ->
      signal pid Sys.sigkill;
      ignore (wait pid))
    !live

(* An interrupted benchmark still stops and reaps its children. *)
let cleanup_on_signals () =
  List.iter
    (fun s ->
      (* dbp-lint: allow R9 bench load generator *)
      Sys.set_signal s
        (Sys.Signal_handle
           (fun _ ->
             cleanup ();
             exit 2)))
    [ Sys.sigint; Sys.sigterm; Sys.sighup ]

let status_to_string = function
  | Exited c -> Printf.sprintf "exit %d" c
  | Signaled s when s = Sys.sigkill -> "killed by SIGKILL"
  | Signaled s -> Printf.sprintf "killed by signal %d" s

(* Peak resident set (VmHWM) of a live process, in MiB; nan once the
   process has exited. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status"
    else Printf.sprintf "/proc/%d/status" pid
  in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> Float.nan
  | status ->
      List.find_map
        (fun l ->
          if String.starts_with ~prefix:"VmHWM:" l then
            Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
          else None)
        (String.split_on_char '\n' status)
      |> Option.value ~default:Float.nan

(* Write every file under [dir] back to disk, so the kernel's delayed
   writeback of one step's output never lands inside the next step's
   timing. *)
let flush_dir dir =
  Array.iter
    (fun f ->
      (* dbp-lint: allow R9 bench load generator *)
      match Unix.openfile (Filename.concat dir f) [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
      | fd ->
          (* dbp-lint: allow R9 bench load generator *)
          Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)
      | exception Unix.Unix_error _ -> (* a socket or directory *) ())
    (Sys.readdir dir)

(* ---- the load generator's connection ----------------------------------- *)

(* dbp-lint: allow R9 bench load generator *)
type conn = Unix.file_descr

(* Connect to the daemon's Unix socket, retrying while it is still
   binding; [None] once [timeout] seconds pass without a listener. *)
let connect path ~timeout =
  let deadline = Common.now_ns () + int_of_float (timeout *. 1e9) in
  let rec go () =
    (* dbp-lint: allow R9 bench load generator *)
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (* dbp-lint: allow R9 bench load generator *)
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () ->
        (* dbp-lint: allow R9 bench load generator *)
        Unix.set_nonblock fd;
        Some fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        (* dbp-lint: allow R9 bench load generator *)
        Unix.close fd;
        if Common.now_ns () > deadline then None
        else begin
          (* dbp-lint: allow R9 bench load generator *)
          Unix.sleepf 0.0005;
          go ()
        end
  in
  go ()

let close fd =
  (* dbp-lint: allow R9 bench load generator *)
  try Unix.close fd with Unix.Unix_error _ -> ()

(* A daemon that dies mid-run must surface as a failed write, not as a
   SIGPIPE that kills the benchmark before it reports. *)
let ignore_sigpipe () =
  (* dbp-lint: allow R9 bench load generator *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* Non-blocking write: bytes written, 0 when the socket buffer is full,
   -1 once the daemon has closed its end. *)
let send fd buf off len =
  (* dbp-lint: allow R9 bench load generator *)
  try Unix.write fd buf off len with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> 0
  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> -1

(* Non-blocking read: [Some 0] at end of stream, [None] when nothing is
   buffered. *)
let recv fd buf =
  (* dbp-lint: allow R9 bench load generator *)
  try Some (Unix.read fd buf 0 (Bytes.length buf)) with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> None
  | Unix.Unix_error (Unix.ECONNRESET, _, _) -> Some 0

(* Block until [fd] is readable (or writable, when [want_write]) or
   [timeout] seconds pass. *)
let await fd ~want_write ~timeout =
  let ws = if want_write then [ fd ] else [] in
  (* dbp-lint: allow R9 bench load generator *)
  try ignore (Unix.select [ fd ] ws [] timeout)
  with Unix.Unix_error (Unix.EINTR, _, _) -> ()
