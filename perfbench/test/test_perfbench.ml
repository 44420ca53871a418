(* The benchmark's own checks must fire on a wrong answer, its
   deterministic counters must repeat for a seed, and its daemons and
   scratch directories must not outlive a failed check. *)

open Perfbench

let cfg = Gpusim.Config.fermi
let gau = Workloads.Suite.find "GAU"

let gau_point () =
  let a =
    Regalloc.Allocator.allocate ~block_size:gau.Workloads.App.block_size
      ~reg_limit:gau.Workloads.App.default_regs (Workloads.App.kernel gau)
  in
  { Layers.app = gau; kernel = a.Regalloc.Allocator.kernel; cfg; tlp = 1; expected = None }

let gau_subject =
  { Layers.sapp = gau
  ; backend = Machine.Backend.Ptx
  ; cfg_of = cfg
  ; regs = [ gau.Workloads.App.default_regs ]
  }

(* serve-layer figures given, so no daemon is probed *)
let no_daemon = { Layers.requests = 0; dedup_hits = 0; rtt_ms = [ 1.0 ] }

let decompose subjects points =
  let tally = Measure.tally () in
  let _, rows =
    Proc.with_temp_dir "test" (fun dir ->
      Layers.traced (fun () -> Layers.run tally ~serve:no_daemon ~dir subjects points))
  in
  (tally, rows)

let test_corrupt_stats () =
  let p = gau_point () in
  let truth =
    Gpusim.Sm.run cfg
      (Workloads.App.launch gau ~kernel:p.Layers.kernel ~tlp:1
         ~input:(Workloads.App.default_input gau) ())
  in
  let ok, _ = decompose [] [ { p with Layers.expected = Some truth } ] in
  Alcotest.(check int) "true answer passes" 0 ok.Measure.failed;
  let corrupt = { truth with Gpusim.Stats.cycles = truth.Gpusim.Stats.cycles + 1 } in
  let bad, _ = decompose [] [ { p with Layers.expected = Some corrupt } ] in
  Alcotest.(check int) "corrupted answer counted" 1 bad.Measure.failed;
  Alcotest.(check bool) "error rate above zero" true (Measure.error_rate bad > 0.0)

(* A pass whose counters are missing (a failed stats request) is one
   more failure, not an exception. *)
let test_repeat_mismatch () =
  let tally = Measure.tally () in
  let rows = Measure.[ count "store.entries" 3; count "store.bytes" 9 ] in
  Measure.check_repeat tally ~what:"serve" rows rows;
  Measure.check_repeat tally ~what:"serve" rows [];
  Measure.check_repeat tally ~what:"serve" rows
    Measure.[ count "store.entries" 3; count "store.bytes" 8 ];
  Alcotest.(check int) "mismatches counted" 2 tally.Measure.failed

let det rows =
  List.map (fun r -> (r.Measure.name, r.Measure.value)) (Measure.deterministic rows)

let test_same_seed_workloads () =
  List.iter
    (fun workload ->
       let run () = Bench.run ~workload ~seed:7 ~seconds:0.0 ~trace:false in
       let a = run () and b = run () in
       Alcotest.(check int) (workload ^ " checks pass") 0 a.Bench.tally.Measure.failed;
       Alcotest.(check bool) (workload ^ " has counters") true (det a.Bench.report <> []);
       Alcotest.(check (list (pair string (float 0.0))))
         (workload ^ " counters repeat") (det a.Bench.report) (det b.Bench.report))
    [ "sweep"; "check" ]

let test_same_seed_layers () =
  let run () = decompose [ gau_subject ] [ gau_point () ] in
  let ta, a = run () and _, b = run () in
  Alcotest.(check int) "decomposition checks pass" 0 ta.Measure.failed;
  Alcotest.(check (list (pair string (float 0.0)))) "layer counters repeat" (det a) (det b)

let test_cleanup_on_failure () =
  let dir = ref "" and pid = ref 0 in
  (try
     Proc.with_temp_dir "test" (fun d ->
       dir := d;
       Proc.with_daemon ~socket:(Filename.concat d "d.sock") (fun daemon ->
         pid := daemon.Proc.pid;
         failwith "check failed"))
   with Failure _ -> ());
  Alcotest.(check bool) "scratch directory removed" false (Sys.file_exists !dir);
  let alive = try Unix.kill !pid 0; true with Unix.Unix_error _ -> false in
  Alcotest.(check bool) "daemon stopped" false alive

let () =
  Proc.daemon_main_if_requested ();
  Alcotest.run "perfbench"
    [ ( "checks"
      , [ Alcotest.test_case "corrupted stats counted" `Quick test_corrupt_stats
        ; Alcotest.test_case "daemon and dir cleaned up" `Quick test_cleanup_on_failure
        ; Alcotest.test_case "missing counters counted" `Quick test_repeat_mismatch
        ] )
    ; ( "determinism"
      , [ Alcotest.test_case "workload counters" `Slow test_same_seed_workloads
        ; Alcotest.test_case "layer counters" `Quick test_same_seed_layers
        ] )
    ]
