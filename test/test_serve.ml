(* End-to-end tests for the crat daemon: wire framing, a live daemon
   serving concurrent clients in-process, session dedup, server-side
   sweeps, and warm restart from the persistent store. *)

let check = Alcotest.(check bool)

let temp_dir prefix =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) (Random.int 100000))
  in
  Unix.mkdir d 0o755;
  d

(* ---------- framing ---------- *)

let test_framing_roundtrip () =
  let path = Filename.temp_file "frame" ".bin" in
  let requests =
    [ Serve.Protocol.Simulate
        [ Serve.Protocol.point "BFS"
        ; Serve.Protocol.point ~regs:(Some 12) ~tlp:(Some 3) ~kepler:true "KMN"
        ]
    ; Serve.Protocol.Sweep { kind = "verify"; apps = [ "BFS" ] }
    ; Serve.Protocol.Stats
    ; Serve.Protocol.Shutdown
    ]
  in
  Out_channel.with_open_bin path (fun oc ->
    List.iter (Serve.Protocol.write_request oc) requests);
  In_channel.with_open_bin path (fun ic ->
    List.iter
      (fun expected ->
         check "frame round-trips" true
           (Serve.Protocol.read_request ic = expected))
      requests);
  Sys.remove path

let test_framing_rejects_garbage () =
  let path = Filename.temp_file "frame" ".bin" in
  Out_channel.with_open_bin path (fun oc ->
    (* a plausible length prefix followed by non-marshal bytes *)
    output_binary_int oc 16;
    output_string oc "not a marshalled");
  let rejected =
    In_channel.with_open_bin path (fun ic ->
      match (Serve.Protocol.read_request ic : Serve.Protocol.request) with
      | _ -> false
      | exception Serve.Protocol.Protocol_error _ -> true)
  in
  check "garbage frame rejected" true rejected;
  Sys.remove path

(* ---------- live daemon ---------- *)

(* Run the daemon on a thread inside the test process; return the
   socket path and a join function. *)
let spawn_daemon ?store_dir ?sweep dir name =
  let socket = Filename.concat dir (name ^ ".sock") in
  let th =
    Thread.create
      (fun () -> Serve.Daemon.run ~socket ?store_dir ?sweep ())
      ()
  in
  (socket, fun () -> Thread.join th)

let with_client socket f =
  match Serve.Client.connect_retry ~socket () with
  | Error e -> Alcotest.fail ("connect failed: " ^ e)
  | Ok c -> Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)

let shutdown_daemon socket join =
  with_client socket (fun c ->
    match Serve.Client.shutdown c with
    | Ok () -> ()
    | Error e -> Alcotest.fail ("shutdown failed: " ^ e));
  join ()

let test_simulate_and_dedup () =
  let dir = temp_dir "serve-e2e" in
  let socket, join = spawn_daemon dir "d" in
  Fun.protect ~finally:(fun () -> ()) @@ fun () ->
  let points =
    [ Serve.Protocol.point "BFS"; Serve.Protocol.point "GAU" ]
  in
  let first =
    with_client socket (fun c ->
      match Serve.Client.simulate c points with
      | Error e -> Alcotest.fail e
      | Ok stats -> stats)
  in
  check "two results" true (Array.length first = 2);
  check "results distinct" true (first.(0) <> first.(1));
  (* a second client asking the same points must be answered from the
     engine's memory: no new simulations *)
  let second, stats =
    with_client socket (fun c ->
      let s =
        match Serve.Client.simulate c points with
        | Error e -> Alcotest.fail e
        | Ok stats -> stats
      in
      let st =
        match Serve.Client.server_stats c with
        | Error e -> Alcotest.fail e
        | Ok st -> st
      in
      (s, st))
  in
  check "identical answers across clients" true (first = second);
  check "no extra simulations for the repeat" true
    (stats.Serve.Protocol.sim_runs = 2);
  check "all four points counted" true (stats.Serve.Protocol.points = 4);
  (* unknown app: a protocol error, and the connection survives it *)
  with_client socket (fun c ->
    (match Serve.Client.simulate c [ Serve.Protocol.point "NOPE" ] with
     | Ok _ -> Alcotest.fail "unknown app accepted"
     | Error _ -> ());
    match Serve.Client.simulate c [ Serve.Protocol.point "BFS" ] with
    | Ok stats -> check "connection usable after error" true (stats.(0) = first.(0))
    | Error e -> Alcotest.fail ("connection died after bad request: " ^ e));
  shutdown_daemon socket join;
  check "socket removed on shutdown" false (Sys.file_exists socket)

let test_warm_restart_from_store () =
  let dir = temp_dir "serve-warm" in
  let store_dir = Filename.concat dir "store" in
  let points = [ Serve.Protocol.point "BFS" ] in
  let cold =
    let socket, join = spawn_daemon ~store_dir dir "cold" in
    let stats =
      with_client socket (fun c ->
        match Serve.Client.simulate c points with
        | Error e -> Alcotest.fail e
        | Ok s -> s)
    in
    shutdown_daemon socket join;
    stats
  in
  (* fresh daemon, same store: must answer without simulating *)
  let socket, join = spawn_daemon ~store_dir dir "warm" in
  let warm, stats =
    with_client socket (fun c ->
      let s =
        match Serve.Client.simulate c points with
        | Error e -> Alcotest.fail e
        | Ok s -> s
      in
      let st =
        match Serve.Client.server_stats c with
        | Error e -> Alcotest.fail e
        | Ok st -> st
      in
      (s, st))
  in
  check "warm run simulated nothing" true (stats.Serve.Protocol.sim_runs = 0);
  check "warm hit rate 1.0" true (Serve.Protocol.hit_rate stats = 1.0);
  check "warm answer bit-identical to cold" true
    (Marshal.to_string cold [] = Marshal.to_string warm []);
  shutdown_daemon socket join

(* Four client threads each send the same six points (rotated, so they
   claim different launches first) to a cold daemon, then again to a
   daemon restarted on the same store. Each distinct point is computed
   exactly once whatever the interleaving, and every answer is
   bit-identical across clients and store temperatures. *)
let test_concurrent_clients () =
  let dir = temp_dir "serve-clients" in
  let store_dir = Filename.concat dir "store" in
  let apps = [ "BFS"; "KMN"; "GAU"; "LUD"; "PATH"; "ESP" ] in
  let rotate n l =
    List.filteri (fun i _ -> i >= n) l @ List.filteri (fun i _ -> i < n) l
  in
  (* digest of every (app, Stats.t) pair in app order: invariant under
     rotation and completion order *)
  let client socket i =
    let abbrs = rotate i apps in
    let stats =
      with_client socket (fun c ->
        match Serve.Client.simulate c (List.map Serve.Protocol.point abbrs) with
        | Error e -> Alcotest.fail e
        | Ok s -> s)
    in
    let pairs =
      List.sort compare (List.mapi (fun j a -> (a, stats.(j))) abbrs)
    in
    Digest.to_hex (Digest.string (Marshal.to_string pairs []))
  in
  let run name =
    let socket, join = spawn_daemon ~store_dir dir name in
    (* a client that fails leaves [None] *)
    let digests = Array.make 4 None in
    let threads =
      List.init 4 (fun i ->
        Thread.create (fun () -> digests.(i) <- Some (client socket i)) ())
    in
    List.iter Thread.join threads;
    let stats =
      with_client socket (fun c ->
        match Serve.Client.server_stats c with
        | Error e -> Alcotest.fail e
        | Ok st -> st)
    in
    shutdown_daemon socket join;
    (Array.to_list digests, stats)
  in
  let cold, cs = run "cold" in
  let warm, ws = run "warm" in
  let all = cold @ warm in
  check "every client answered" true (List.for_all Option.is_some all);
  check "answers identical across clients and cold/warm" true
    (List.for_all (( = ) (List.hd all)) all);
  Alcotest.(check int) "cold: 6 distinct points simulated" 6
    cs.Serve.Protocol.sim_runs;
  Alcotest.(check int) "cold: 6 traces recorded" 6
    cs.Serve.Protocol.trace_records;
  Alcotest.(check int) "cold: 24 points served" 24 cs.Serve.Protocol.points;
  Alcotest.(check int) "warm: nothing simulated" 0 ws.Serve.Protocol.sim_runs;
  check "warm hit rate >= 0.9" true (Serve.Protocol.hit_rate ws >= 0.9);
  (* every point served is one engine run, hit or in-flight wait *)
  List.iter
    (fun (name, (s : Serve.Protocol.server_stats)) ->
       Alcotest.(check int) (name ^ ": every point accounted")
         s.Serve.Protocol.points
         (s.Serve.Protocol.sim_runs + s.Serve.Protocol.sim_hits
          + s.Serve.Protocol.dedup_hits))
    [ ("cold", cs); ("warm", ws) ]

let test_server_side_sweep () =
  let dir = temp_dir "serve-sweep" in
  (* a stub sweep driver standing in for the CLI's Sweep.serve_sweep
     (bin modules are not linkable from the test tree) *)
  let calls = ref 0 in
  let sweep ~kind ~apps =
    match kind with
    | "verify" ->
      incr calls;
      Some (Printf.sprintf "verify ok: %s" (String.concat "," apps), false)
    | _ -> None
  in
  let store_dir = Filename.concat dir "store" in
  let socket, join = spawn_daemon ~store_dir ~sweep dir "s" in
  with_client socket (fun c ->
    (match Serve.Client.sweep c ~kind:"verify" ~apps:[ "BFS" ] with
     | Ok (text, failed) ->
       check "sweep text delivered" true (text = "verify ok: BFS");
       check "sweep passed" false failed
     | Error e -> Alcotest.fail e);
    (* identical sweep again: served from the store, driver not re-run *)
    (match Serve.Client.sweep c ~kind:"verify" ~apps:[ "BFS" ] with
     | Ok (text, _) -> check "cached sweep identical" true (text = "verify ok: BFS")
     | Error e -> Alcotest.fail e);
    check "sweep driver ran once" true (!calls = 1);
    match Serve.Client.sweep c ~kind:"bogus" ~apps:[] with
    | Ok _ -> Alcotest.fail "bogus sweep kind accepted"
    | Error _ -> ());
  shutdown_daemon socket join

let () =
  Random.self_init ();
  Alcotest.run "serve"
    [ ( "framing"
      , [ Alcotest.test_case "round-trip" `Quick test_framing_roundtrip
        ; Alcotest.test_case "garbage rejected" `Quick
            test_framing_rejects_garbage
        ] )
    ; ( "daemon"
      , [ Alcotest.test_case "simulate + session dedup" `Slow
            test_simulate_and_dedup
        ; Alcotest.test_case "warm restart from store" `Slow
            test_warm_restart_from_store
        ; Alcotest.test_case "4 concurrent clients, cold then warm" `Slow
            test_concurrent_clients
        ; Alcotest.test_case "server-side sweep" `Quick test_server_side_sweep
        ] )
    ]
