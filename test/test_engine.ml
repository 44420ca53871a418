(* The evaluation engine: content-addressed store, key structure,
   jobs=1/jobs=N and replay on/off determinism, and multi-domain
   stress. *)

let fermi = Gpusim.Config.fermi
let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let small_app abbr =
  let a = Workloads.Suite.find abbr in
  let i = Workloads.App.default_input a in
  let small =
    { i with
      Workloads.App.num_blocks = 4
    ; iters = min 2 i.Workloads.App.iters
    ; passes = min 2 i.Workloads.App.passes
    ; ilabel = "eng-small"
    }
  in
  { a with Workloads.App.inputs = [ small ] }

let launch_of ?kernel ?tlp ?input a =
  let input =
    match input with
    | Some i -> i
    | None -> Workloads.App.default_input a
  in
  Workloads.App.launch a ?kernel ?tlp ~input ()

(* ---------- key structure ---------- *)

(* Regression: the old evaluation cache was keyed on a free-form variant
   label and ignored the kernel image, so two different builds of the
   same app at the same TLP collided. Keys must cover kernel identity. *)
let test_key_covers_kernel_identity () =
  let e = Crat.Engine.create () in
  let a = small_app "STM" in
  let r = Crat.Resource.analyze fermi a in
  let k_hi =
    (Crat.Engine.allocate e a ~reg_limit:r.Crat.Resource.max_reg)
      .Regalloc.Allocator.kernel
  in
  let k_lo =
    (Crat.Engine.allocate e a ~reg_limit:(r.Crat.Resource.max_reg - 4))
      .Regalloc.Allocator.kernel
  in
  check "builds differ" true
    (Ptx.Printer.kernel_to_string k_hi <> Ptx.Printer.kernel_to_string k_lo);
  check "keys separate the two builds" true
    (Crat.Engine.sim_key e (launch_of ~kernel:k_hi a) fermi ~tlp:2
     <> Crat.Engine.sim_key e (launch_of ~kernel:k_lo a) fermi ~tlp:2);
  let s_hi = Crat.Engine.simulate e (launch_of ~kernel:k_hi a) fermi ~tlp:2 in
  let s_lo = Crat.Engine.simulate e (launch_of ~kernel:k_lo a) fermi ~tlp:2 in
  let rep = Crat.Engine.report e in
  check_int "both builds simulated" 2 rep.Crat.Engine.sim_runs;
  (* the spilling build executes more instructions *)
  check "stats are per-build" true
    (s_lo.Gpusim.Stats.thread_instrs > s_hi.Gpusim.Stats.thread_instrs)

let test_key_covers_config_input_tlp () =
  let e = Crat.Engine.create () in
  let a = small_app "GAU" in
  let input = Workloads.App.default_input a in
  let l = launch_of ~input a in
  let key = Crat.Engine.sim_key e l fermi ~tlp:2 in
  check "TLP in key" true (key <> Crat.Engine.sim_key e l fermi ~tlp:3);
  check "config in key" true
    (key <> Crat.Engine.sim_key e l Gpusim.Config.kepler ~tlp:2);
  let other =
    { input with Workloads.App.num_blocks = input.Workloads.App.num_blocks + 1 }
  in
  check "input in key" true
    (key <> Crat.Engine.sim_key e (launch_of ~input:other a) fermi ~tlp:2)

(* The trace-store key covers everything the dynamic trace depends on —
   and nothing it does not: timing configuration and TLP must NOT
   separate launches, while params and initial memory must. *)
let test_launch_key_scope () =
  let e = Crat.Engine.create () in
  let a = small_app "GAU" in
  let input = Workloads.App.default_input a in
  let l = launch_of ~input a in
  let key = Crat.Engine.launch_key e l in
  check "launch_key ignores TLP" true
    (let l3 = Gpusim.Launch.with_tlp l 3 in
     Crat.Engine.launch_key e l3 = key);
  check "sim_key still separates configs the launch_key ignores" true
    (Crat.Engine.sim_key e l fermi ~tlp:2
     <> Crat.Engine.sim_key e l Gpusim.Config.kepler ~tlp:2);
  let other =
    { input with Workloads.App.num_blocks = input.Workloads.App.num_blocks + 1 }
  in
  check "launch_key separates inputs (params and memory)" true
    (Crat.Engine.launch_key e (launch_of ~input:other a) <> key);
  (* structurally identical launch built from scratch: the physical
     memo misses but the content key must agree *)
  check "launch_key is structural, not physical" true
    (Crat.Engine.launch_key e (launch_of ~input a) = key)

(* QCheck: distinct kernel images get distinct keys *)
let test_key_injective =
  QCheck.Test.make ~count:60 ~name:"sim_key injective on kernel image"
    QCheck.(pair Testsupport.Gen.arbitrary_kernel Testsupport.Gen.arbitrary_kernel)
    (fun (k1, k2) ->
       let e = Crat.Engine.create () in
       let mk k =
         let mem = Gpusim.Memory.create () in
         Gpusim.Launch.make ~kernel:k ~block_size:64 ~num_blocks:2
           ~params:[ ("out", Gpusim.Value.I 0x2000_0000L) ]
           mem
       in
       let same_image =
         Ptx.Printer.kernel_to_string k1 = Ptx.Printer.kernel_to_string k2
       in
       let same_key =
         Crat.Engine.sim_key e (mk k1) fermi ~tlp:1
         = Crat.Engine.sim_key e (mk k2) fermi ~tlp:1
       in
       same_image = same_key)

(* ---------- store behaviour ---------- *)

let test_batch_dedups () =
  let e = Crat.Engine.create () in
  let a = small_app "GAU" in
  let l = launch_of a in
  let stats =
    Crat.Engine.simulate_batch e
      (List.map (fun tlp -> (l, fermi, tlp)) [ 1; 2; 1; 2; 1 ])
  in
  check_int "five results" 5 (List.length stats);
  let rep = Crat.Engine.report e in
  check_int "two distinct simulations" 2 rep.Crat.Engine.sim_runs;
  check "duplicates answered from the store" true (rep.Crat.Engine.sim_hits >= 3);
  (* both TLP points share one launch: one recorded it, the other replayed *)
  check_int "one trace recorded" 1 rep.Crat.Engine.trace_records;
  check_int "one point replayed" 1 rep.Crat.Engine.trace_replays;
  check "results scattered in submission order" true
    (List.nth stats 0 = List.nth stats 2
     && List.nth stats 0 = List.nth stats 4
     && List.nth stats 1 = List.nth stats 3
     && List.nth stats 0 <> List.nth stats 1)

let test_cache_false_bypasses_store () =
  let e = Crat.Engine.create () in
  let a = small_app "GAU" in
  let l = launch_of a in
  let s1 = Crat.Engine.simulate ~cache:false e l fermi ~tlp:1 in
  let s2 = Crat.Engine.simulate ~cache:false e l fermi ~tlp:1 in
  let rep = Crat.Engine.report e in
  check_int "every uncached run simulates" 2 rep.Crat.Engine.sim_runs;
  check_int "uncached runs record no trace" 0 rep.Crat.Engine.trace_records;
  check "simulation is deterministic anyway" true (s1 = s2)

(* ---------- determinism across jobs and replay ---------- *)

(* fig13 at jobs 1 and 4, with the trace-replay cache on and off: the
   table and every technique's Stats.t must be bit-identical in every
   cell *)
let test_jobs_determinism () =
  let apps = List.map small_app [ "GAU"; "KMN"; "STM" ] in
  let run (jobs, replay) =
    let e = Crat.Engine.create ~jobs ~replay () in
    let table, comps = Crat.Experiments.fig13 e fermi apps in
    ( table
    , List.map
        (fun (c : Crat.Experiments.comparison) ->
           List.map
             (fun (v : Crat.Baselines.evaluated) -> v.Crat.Baselines.stats)
             [ c.max_tlp; c.opt_tlp; c.crat_local; c.crat ])
        comps )
  in
  let table1, stats1 = run (1, true) in
  List.iter
    (fun ((jobs, replay) as cell) ->
       let table, stats = run cell in
       let what = Printf.sprintf "(jobs=%d, replay=%b)" jobs replay in
       check ("fig13 table bit-identical " ^ what) true (table = table1);
       check ("underlying stats bit-identical " ^ what) true (stats = stats1))
    [ (4, true); (1, false); (4, false) ]

let test_design_space_batch_determinism () =
  let a = small_app "BLK" in
  let r = Crat.Resource.analyze fermi a in
  let points = Crat.Design_space.stairs fermi r in
  let eval jobs =
    Crat.Design_space.evaluate (Crat.Engine.create ~jobs ()) fermi a points
  in
  check "frontier evaluation identical across jobs" true (eval 1 = eval 3)

(* ---------- multi-domain stress ---------- *)

let test_parallel_stress () =
  let e = Crat.Engine.create ~jobs:8 () in
  let a = small_app "GAU" in
  (* many tasks, few distinct keys: domains race on the same store
     entries, the trace store and the allocation cache *)
  let tasks = List.init 32 (fun i -> i) in
  let results =
    Crat.Engine.map e
      (fun i ->
         let reg = a.Workloads.App.default_regs - (i mod 2) in
         let al = Crat.Engine.allocate e a ~reg_limit:reg in
         let st =
           Crat.Engine.simulate e
             (launch_of ~kernel:al.Regalloc.Allocator.kernel a)
             fermi ~tlp:(1 + (i mod 3))
         in
         (i, st.Gpusim.Stats.cycles))
      tasks
  in
  check_int "all tasks returned" 32 (List.length results);
  check "order preserved" true (List.map fst results = tasks);
  (* serial reference *)
  let serial = Crat.Engine.create () in
  List.iter
    (fun (i, cycles) ->
       let reg = a.Workloads.App.default_regs - (i mod 2) in
       let al = Crat.Engine.allocate serial a ~reg_limit:reg in
       let st =
         Crat.Engine.simulate serial
           (launch_of ~kernel:al.Regalloc.Allocator.kernel a)
           fermi ~tlp:(1 + (i mod 3))
       in
       check_int (Printf.sprintf "task %d matches serial" i)
         st.Gpusim.Stats.cycles cycles)
    results;
  (* a key in flight is computed once and waited on by every other
     domain; every request is one run, one hit or one wait *)
  let rep = Crat.Engine.report e in
  check_int "each distinct point simulated once" 6 rep.Crat.Engine.sim_runs;
  check_int "every simulation accounted" 32
    (rep.Crat.Engine.sim_runs + rep.Crat.Engine.sim_hits
     + rep.Crat.Engine.dedup_waits);
  check_int "each launch recorded once" 2 rep.Crat.Engine.trace_records;
  check "every allocation accounted" true
    (rep.Crat.Engine.alloc_runs + rep.Crat.Engine.alloc_hits = 32);
  check "at least the distinct allocations ran" true
    (rep.Crat.Engine.alloc_runs >= 2);
  check "store still absorbed most of the load" true
    (rep.Crat.Engine.sim_hits > 0 && rep.Crat.Engine.alloc_hits > 0)

(* A claimant that raises must drop its claim: concurrent callers of the
   same failing key raise too instead of waiting forever, and so does a
   later call. *)
let test_failure_releases_claim () =
  let e = Crat.Engine.create ~jobs:2 () in
  let a = small_app "GAU" in
  (* Sm.create rejects a launch whose warp size differs from the
     configuration's *)
  let bad = { (launch_of a) with Gpusim.Launch.warp_size = 16 } in
  let raises () =
    match Crat.Engine.simulate e bad fermi ~tlp:1 with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check "every concurrent call raises" true
    (List.for_all Fun.id (Crat.Engine.map e (fun _ -> raises ()) [ 1; 2 ]));
  check "a later call raises rather than blocks" true (raises ());
  check_int "nothing published" 0 (Crat.Engine.report e).Crat.Engine.sim_runs

let test_reset () =
  let e = Crat.Engine.create () in
  let a = small_app "GAU" in
  let _ = Crat.Baselines.max_tlp e fermi a () in
  check "work recorded" true ((Crat.Engine.report e).Crat.Engine.sim_runs > 0);
  Crat.Engine.reset e;
  let rep = Crat.Engine.report e in
  check_int "counters cleared" 0 rep.Crat.Engine.sim_runs;
  let _ = Crat.Baselines.max_tlp e fermi a () in
  check "store cleared too: simulation re-runs" true
    ((Crat.Engine.report e).Crat.Engine.sim_runs > 0)

let test_create_validates () =
  check "jobs=0 rejected" true
    (try
       ignore (Crat.Engine.create ~jobs:0 ());
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "engine"
    [ ( "keys"
      , [ Alcotest.test_case "kernel identity in key (collision regression)"
            `Slow test_key_covers_kernel_identity
        ; Alcotest.test_case "config/input/TLP in key" `Quick
            test_key_covers_config_input_tlp
        ; Alcotest.test_case "launch_key scope (no config/TLP)" `Quick
            test_launch_key_scope
        ; QCheck_alcotest.to_alcotest test_key_injective
        ] )
    ; ( "store"
      , [ Alcotest.test_case "batch dedup" `Slow test_batch_dedups
        ; Alcotest.test_case "cache:false bypasses" `Slow
            test_cache_false_bypasses_store
        ; Alcotest.test_case "reset" `Slow test_reset
        ; Alcotest.test_case "create validates jobs" `Quick test_create_validates
        ] )
    ; ( "parallel"
      , [ Alcotest.test_case "fig13 determinism across jobs" `Slow
            test_jobs_determinism
        ; Alcotest.test_case "frontier determinism across jobs" `Slow
            test_design_space_batch_determinism
        ; Alcotest.test_case "8-domain stress vs serial" `Slow
            test_parallel_stress
        ; Alcotest.test_case "failed claim released" `Quick
            test_failure_releases_claim
        ] )
    ]
