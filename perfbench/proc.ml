(* Private scratch directories and forked daemons, torn down on every
   exit path. Everything lives under [_perfbench/] in the working
   directory, so a run reads and writes only inside its checkout; the
   daemon's socket is a relative path there, never the default
   [crat.sock]. *)

let root = "_perfbench"

let cleanups : (int * (unit -> unit)) list ref = ref []
let cleanup_id = ref 0
let cleanup_lock = Mutex.create ()

let on_exit f =
  Mutex.protect cleanup_lock (fun () ->
    incr cleanup_id;
    cleanups := (!cleanup_id, f) :: !cleanups;
    !cleanup_id)

let run_cleanup id =
  let f =
    Mutex.protect cleanup_lock (fun () ->
      let f = List.assoc_opt id !cleanups in
      cleanups := List.remove_assoc id !cleanups;
      f)
  in
  Option.iter (fun f -> try f () with _ -> ()) f

let run_all_cleanups () =
  List.iter (fun (id, _) -> run_cleanup id)
    (Mutex.protect cleanup_lock (fun () -> !cleanups))

let () = at_exit run_all_cleanups

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> (try Unix.unlink path with Unix.Unix_error _ -> ())

let mkdir_p path =
  let rec go p =
    if p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

let dir_seq = ref 0

(* Run [f] in a fresh private directory, removed when [f] returns or
   raises, or at exit. *)
let with_temp_dir prefix f =
  incr dir_seq;
  let d =
    Filename.concat root
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !dir_seq)
  in
  rm_rf d;
  mkdir_p d;
  let id = on_exit (fun () -> rm_rf d) in
  Fun.protect ~finally:(fun () -> run_cleanup id) (fun () -> f d)

(* ---------- daemons ---------- *)

let daemon_flag = "--perfbench-daemon"

(* Entry point of a daemon process: our own executable re-run with
   [daemon_flag SOCKET STORE_DIR] ("-" = no store). Call first thing in
   every executable that may start daemons. *)
let daemon_main_if_requested () =
  match Array.to_list Sys.argv with
  | _ :: flag :: socket :: store :: _ when flag = daemon_flag ->
    let store_dir = if store = "-" then None else Some store in
    (try Serve.Daemon.run ~socket ?store_dir ~jobs:1 ()
     with e ->
       prerr_endline ("perfbench daemon: " ^ Printexc.to_string e);
       exit 3);
    exit 0
  | _ -> ()

type daemon =
  { pid : int
  ; socket : string
  ; cleanup : int
  ; mutable stopped : bool
  }

let kill_and_reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

(* Poll until the daemon accepts (2 ms apart, so start-up time is not
   rounded up to a coarse retry interval). *)
let rec connect ~socket tries =
  match Serve.Client.connect ~socket () with
  | Ok c -> Ok c
  | Error e when tries <= 0 -> Error e
  | Error _ ->
    Thread.delay 0.002;
    connect ~socket (tries - 1)

(* Start a daemon on [socket] and wait until it accepts a connection. *)
let start_daemon ~socket ?store () =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close devnull) (fun () ->
      Unix.create_process Sys.executable_name
        [| Sys.executable_name; daemon_flag; socket
         ; Option.value ~default:"-" store |]
        devnull Unix.stderr Unix.stderr)
  in
  let cleanup = on_exit (fun () -> kill_and_reap pid) in
  match connect ~socket 5000 with
  | Ok c ->
    Serve.Client.close c;
    { pid; socket; cleanup; stopped = false }
  | Error e ->
    run_cleanup cleanup;
    failwith ("daemon did not come up: " ^ e)

let daemon_rss_mb d = Measure.peak_rss_mb (string_of_int d.pid)

(* Ask for a clean shutdown and reap; kill if it does not answer. *)
let stop_daemon d =
  if not d.stopped then begin
    d.stopped <- true;
    let clean =
      match Serve.Client.connect ~socket:d.socket () with
      | Ok c ->
        let r = Serve.Client.shutdown c in
        Serve.Client.close c;
        Result.is_ok r
      | Error _ -> false
    in
    if clean then begin
      (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
      Mutex.protect cleanup_lock (fun () ->
        cleanups := List.remove_assoc d.cleanup !cleanups)
    end
    else run_cleanup d.cleanup
  end

let with_daemon ~socket ?store f =
  let d = start_daemon ~socket ?store () in
  Fun.protect ~finally:(fun () -> stop_daemon d) (fun () -> f d)
