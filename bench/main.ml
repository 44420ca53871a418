(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (default mode), or times the library's hot paths and
   scaled-down experiments with Bechamel (--bechamel).

   Usage:
     dune exec bench/main.exe                 # all experiments, full size
     dune exec bench/main.exe -- --fast       # reduced app sets
     dune exec bench/main.exe -- --only fig13,tab1
     dune exec bench/main.exe -- --jobs 4     # fan simulations over 4 domains
     dune exec bench/main.exe -- --json out.json  # machine-readable run report
     dune exec bench/main.exe -- --backend machine --only fig13
     dune exec bench/main.exe -- --bechamel   # Bechamel timings *)

let fermi = Gpusim.Config.fermi
let kepler = Gpusim.Config.kepler

type ctx =
  { engine : Crat.Engine.t
  ; backend : Machine.Backend.t  (** register-file model of the fig13 family *)
  ; sensitive : Workloads.App.t list
  ; insensitive : Workloads.App.t list
  ; input_apps : Workloads.App.t list  (** fig18 *)
  }

let full_ctx ?(backend = Machine.Backend.Ptx) engine =
  { engine
  ; backend
  ; sensitive = Workloads.Suite.sensitive
  ; insensitive = Workloads.Suite.insensitive
  ; input_apps = [ Workloads.Suite.find "CFD"; Workloads.Suite.find "BLK" ]
  }

let fast_ctx ?(backend = Machine.Backend.Ptx) engine =
  { engine
  ; backend
  ; sensitive =
      List.map Workloads.Suite.find [ "CFD"; "KMN"; "FDTD"; "STM"; "BLK" ]
  ; insensitive = List.map Workloads.Suite.find [ "PATH"; "GAU"; "BFS" ]
  ; input_apps = [ Workloads.Suite.find "BLK" ]
  }

let fmt = Format.std_formatter

(* fig13 and its companions share one set of comparisons *)
let comparisons = ref None

let get_comparisons ctx =
  match !comparisons with
  | Some c -> c
  | None ->
    let _, comps =
      Crat.Experiments.fig13 ~backend:ctx.backend ctx.engine fermi ctx.sensitive
    in
    comparisons := Some comps;
    comps

let experiments : (string * string * (ctx -> unit)) list =
  [ ( "tab2"
    , "Table 2: simulated configuration"
    , fun _ ->
        Format.fprintf fmt "Table 2: simulated GPGPU-Sim-like configuration@.%a@."
          Gpusim.Config.pp fermi )
  ; ( "tab3"
    , "Table 3: applications"
    , fun _ -> Format.fprintf fmt "Table 3: applications@.%a@." Workloads.Suite.pp_table () )
  ; ( "tab1"
    , "Table 1: resource-usage parameters"
    , fun ctx ->
        Crat.Experiments.pp_tab1 fmt
          (Crat.Experiments.tab1 ctx.engine fermi ctx.sensitive) )
  ; ( "fig1"
    , "Fig 1: throttling benefit and register waste"
    , fun ctx ->
        Crat.Experiments.pp_fig1 fmt
          (Crat.Experiments.fig1 ctx.engine fermi ctx.sensitive) )
  ; ( "fig2"
    , "Fig 2: (reg, TLP) design space for CFD"
    , fun ctx ->
        Crat.Experiments.pp_fig2 fmt
          (Crat.Experiments.fig2 ctx.engine fermi (Workloads.Suite.find "CFD")) )
  ; ( "fig3"
    , "Fig 3: selected design points for CFD"
    , fun ctx ->
        Crat.Experiments.pp_fig3 fmt
          (Crat.Experiments.fig3 ctx.engine fermi (Workloads.Suite.find "CFD")) )
  ; ( "fig5"
    , "Fig 5: throttling impact on the L1"
    , fun ctx ->
        Crat.Experiments.pp_fig5 fmt
          (Crat.Experiments.fig5 ctx.engine fermi ctx.sensitive) )
  ; ( "fig6"
    , "Fig 6: registers vs TLP and instruction count (CFD)"
    , fun ctx ->
        Crat.Experiments.pp_fig6 fmt
          (Crat.Experiments.fig6 ctx.engine fermi (Workloads.Suite.find "CFD")) )
  ; ( "fig7"
    , "Fig 7: register vs shared-memory utilization"
    , fun ctx ->
        Crat.Experiments.pp_fig7 fmt
          (Crat.Experiments.fig7 fermi (ctx.sensitive @ ctx.insensitive)) )
  ; ( "fig8"
    , "Fig 8: FDTD register/shared exploration"
    , fun ctx ->
        Crat.Experiments.pp_fig8 fmt
          (Crat.Experiments.fig8 ctx.engine fermi (Workloads.Suite.find "FDTD")) )
  ; ( "fig11"
    , "Fig 11: design-space staircase and pruning (CFD)"
    , fun ctx ->
        Crat.Experiments.pp_fig11 fmt
          (Crat.Experiments.fig11 ctx.engine fermi (Workloads.Suite.find "CFD")) )
  ; ( "fig12"
    , "Fig 12: spill-bytes validation (CFD)"
    , fun ctx ->
        Crat.Experiments.pp_fig12 fmt
          (Crat.Experiments.fig12 ctx.engine fermi (Workloads.Suite.find "CFD")) )
  ; ( "fig13"
    , "Fig 13: headline performance comparison"
    , fun ctx ->
        let rows, comps =
          Crat.Experiments.fig13 ~backend:ctx.backend ctx.engine fermi
            ctx.sensitive
        in
        comparisons := Some comps;
        Crat.Experiments.pp_fig13 fmt rows )
  ; ( "fig14"
    , "Fig 14: selected TLP"
    , fun ctx -> Crat.Experiments.pp_fig14 fmt (Crat.Experiments.fig14 (get_comparisons ctx)) )
  ; ( "fig15"
    , "Fig 15: register utilization"
    , fun ctx ->
        Crat.Experiments.pp_fig15 fmt
          (Crat.Experiments.fig15 fermi (get_comparisons ctx)) )
  ; ( "fig16"
    , "Fig 16: local-memory access reduction"
    , fun ctx -> Crat.Experiments.pp_fig16 fmt (Crat.Experiments.fig16 (get_comparisons ctx)) )
  ; ( "fig17"
    , "Fig 17: Kepler-like scalability"
    , fun ctx ->
        let rows, _ =
          Crat.Experiments.fig13 ~backend:ctx.backend ctx.engine kepler
            ctx.sensitive
        in
        Format.fprintf fmt "Fig 17: Kepler-like architecture@.";
        Crat.Experiments.pp_fig13 fmt rows )
  ; ( "fig18"
    , "Fig 18: input sensitivity"
    , fun ctx ->
        Crat.Experiments.pp_fig18 fmt
          (Crat.Experiments.fig18 ctx.engine fermi ctx.input_apps) )
  ; ( "fig19"
    , "Fig 19: resource-insensitive applications"
    , fun ctx ->
        let rows, _ =
          Crat.Experiments.fig13 ~backend:ctx.backend ctx.engine fermi
            ctx.insensitive
        in
        Format.fprintf fmt "Fig 19: resource-insensitive applications@.";
        Crat.Experiments.pp_fig13 fmt rows )
  ; ( "fig20"
    , "Fig 20: CRAT-profile vs CRAT-static"
    , fun ctx ->
        Crat.Experiments.pp_fig20 fmt
          (Crat.Experiments.fig20 ctx.engine fermi ctx.sensitive) )
  ; ( "energy"
    , "Energy: CRAT vs OptTLP"
    , fun ctx -> Crat.Experiments.pp_energy fmt (Crat.Experiments.energy (get_comparisons ctx)) )
  ; ( "overhead"
    , "Overhead: profiling vs static analysis"
    , fun ctx ->
        Crat.Experiments.pp_overhead fmt
          (Crat.Experiments.overhead ctx.engine fermi ctx.sensitive) )
  ; ( "dyn-tlp"
    , "Baseline: online DynCTA-style throttling"
    , fun ctx ->
        Crat.Experiments.pp_dynamic_tlp fmt
          (Crat.Experiments.dynamic_tlp ctx.engine fermi
             (List.map Workloads.Suite.find [ "KMN"; "STM"; "SPMV"; "CFD" ])) )
  ; ( "ext-bypass"
    , "Extension: CRAT + static L1 bypassing (CFD)"
    , fun ctx ->
        Crat.Experiments.pp_extension_bypass fmt
          (Crat.Experiments.extension_bypass ctx.engine fermi
             (Workloads.Suite.find "CFD")) )
  ; ( "abl-sched"
    , "Ablation: GTO vs LRR warp scheduling"
    , fun ctx ->
        Crat.Experiments.pp_ablation_scheduler fmt
          (Crat.Experiments.ablation_scheduler ctx.engine fermi
             (List.map Workloads.Suite.find [ "CFD"; "KMN"; "STM" ])) )
  ; ( "abl-chunk"
    , "Ablation: Algorithm 1 sub-stack granularity"
    , fun ctx ->
        Crat.Experiments.pp_ablation_chunk fmt
          (Crat.Experiments.ablation_chunk ctx.engine fermi
             (Workloads.Suite.find "STE") ~reg:40) )
  ; ( "gpu-scale"
    , "Multi-SM scaling (KMN, shared memory system)"
    , fun ctx ->
        Crat.Experiments.pp_gpu_scaling fmt
          (Crat.Experiments.gpu_scaling ctx.engine fermi
             (Workloads.Suite.find "KMN") ~tlp:2) )
  ; ( "abl-alloc"
    , "Ablation: allocator extensions (coalescing, remat)"
    , fun ctx ->
        Crat.Experiments.pp_ablation_allocator fmt
          (Crat.Experiments.ablation_allocator ctx.engine fermi
             (Workloads.Suite.find "CFD") ~reg:48) )
  ; ( "abl-type"
    , "Ablation: type-affine colouring (register waste)"
    , fun ctx ->
        Crat.Experiments.pp_ablation_type_strict fmt
          (Crat.Experiments.ablation_type_strict (ctx.sensitive @ ctx.insensitive)) )
  ]

(* ---------- Bechamel mode ---------- *)

let bechamel_mode () =
  let open Bechamel in
  let open Toolkit in
  let mini = List.map Workloads.Suite.find [ "PATH"; "GAU" ] in
  let cfd = Workloads.Suite.find "CFD" in
  let cfd_kernel = Workloads.App.kernel cfd in
  let cfd_flow = Cfg.Flow.of_kernel cfd_kernel in
  let cfd_live = Cfg.Liveness.compute cfd_flow in
  let small = Workloads.Suite.find "PATH" in
  let small_input = Workloads.App.default_input small in
  let test name f = Test.make ~name (Staged.stage f) in
  (* one Test.make per table/figure (scaled-down app set) plus the
     library's hot paths; a fresh engine per run keeps iterations
     identical (no warm cache from the previous run) *)
  let tests =
    [ test "tab1" (fun () ->
        ignore (Crat.Experiments.tab1 (Crat.Engine.create ()) fermi mini))
    ; test "fig1" (fun () ->
        ignore (Crat.Experiments.fig1 (Crat.Engine.create ()) fermi mini))
    ; test "fig5" (fun () ->
        ignore (Crat.Experiments.fig5 (Crat.Engine.create ()) fermi mini))
    ; test "fig6" (fun () ->
        ignore (Crat.Experiments.fig6 (Crat.Engine.create ()) fermi small))
    ; test "fig12" (fun () ->
        ignore (Crat.Experiments.fig12 (Crat.Engine.create ()) fermi small))
    ; test "fig13" (fun () ->
        ignore (Crat.Experiments.fig13 (Crat.Engine.create ()) fermi mini))
    ; test "liveness" (fun () -> ignore (Cfg.Liveness.compute cfd_flow))
    ; test "interference" (fun () ->
        ignore (Regalloc.Interference.build cfd_flow cfd_live))
    ; test "allocate-cfd-r32" (fun () ->
        ignore
          (Regalloc.Allocator.allocate ~block_size:128 ~reg_limit:32 cfd_kernel))
    ; test "knapsack-64x12k" (fun () ->
        let values = Array.init 64 (fun i -> float_of_int ((i * 37) mod 97)) in
        let weights = Array.init 64 (fun i -> 128 + (i * 93 mod 1024)) in
        ignore (Regalloc.Shared_spill.knapsack ~values ~weights ~capacity:12288))
    ; test "ptx-roundtrip" (fun () ->
        ignore (Ptx.Parser.parse_kernel_exn (Ptx.Printer.kernel_to_string cfd_kernel)))
    ; test "static-opttlp" (fun () ->
        ignore (Crat.Opttlp.estimate_static fermi small ~max_tlp:8 ()))
    ; test "sim-small" (fun () ->
        let launch =
          Workloads.App.launch small ~tlp:2
            ~input:{ small_input with Workloads.App.num_blocks = 2 } ()
        in
        ignore (Gpusim.Sm.run fermi launch))
    ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg_b =
    Benchmark.cfg ~limit:8 ~quota:(Time.second 3.0) ~stabilize:false ()
  in
  let raw =
    Benchmark.all cfg_b instances (Test.make_grouped ~name:"crat" tests)
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name result ->
       let ns =
         match Analyze.OLS.estimates result with
         | Some (e :: _) -> e
         | Some [] | None -> nan
       in
       Printf.printf "%-28s %14.0f ns/run\n" name ns)
    results

(* ---------- driver ---------- *)

let () =
  let bechamel = ref false in
  let fast = ref false in
  let only = ref [] in
  let jobs = ref 1 in
  let json = ref "" in
  let replay = ref true in
  let backend = ref Machine.Backend.Ptx in
  let spec =
    [ ("--bechamel", Arg.Set bechamel, " run Bechamel timing benchmarks")
    ; ("--fast", Arg.Set fast, " reduced application sets")
    ; ( "--only"
      , Arg.String (fun s -> only := String.split_on_char ',' s)
      , "IDS comma-separated experiment ids (e.g. fig13,tab1)" )
    ; ( "--jobs"
      , Arg.Set_int jobs
      , "N fan independent allocations/simulations over N domains (default 1)" )
    ; ( "--json"
      , Arg.Set_string json
      , "FILE write a machine-readable run report (per-experiment wall clock \
         and engine statistics)" )
    ; ( "--replay"
      , Arg.Set replay
      , " record each launch's trace once and replay it across timing \
         points (default)" )
    ; ( "--no-replay"
      , Arg.Clear replay
      , " run every simulation cold through the functional front-end" )
    ; ( "--backend"
      , Arg.Symbol
          ( List.map Machine.Backend.to_string Machine.Backend.all
          , fun s ->
              match Machine.Backend.of_string s with
              | Some b -> backend := b
              | None -> raise (Arg.Bad ("unknown backend " ^ s)) )
      , " register-file model for the fig13 sweep family (default ptx)" )
    ]
  in
  Arg.parse spec
    (fun _ -> ())
    "bench/main.exe [--bechamel] [--fast] [--only ids] [--jobs N] \
     [--json file] [--replay|--no-replay] [--backend ptx|machine]";
  if !jobs < 1 then begin
    prerr_endline "bench: --jobs must be >= 1";
    exit 2
  end;
  (* fail on an unwritable report path now, not after the whole run *)
  if !json <> "" then begin
    match Crat.Report.probe !json with
    | Ok () -> ()
    | Error msg ->
      Printf.eprintf "bench: cannot write --json report: %s\n" msg;
      exit 2
  end;
  List.iter
    (fun id ->
       if not (List.exists (fun (id', _, _) -> id' = id) experiments) then begin
         Printf.eprintf "bench: unknown experiment id %S (see --help)\n" id;
         exit 2
       end)
    !only;
  if !bechamel then bechamel_mode ()
  else begin
    let engine = Crat.Engine.create ~jobs:!jobs ~replay:!replay () in
    let ctx =
      if !fast then fast_ctx ~backend:!backend engine
      else full_ctx ~backend:!backend engine
    in
    let wanted (id, _, _) = !only = [] || List.mem id !only in
    let t_all = Unix.gettimeofday () in
    let records = ref [] in
    List.iter
      (fun ((id, descr, run) as e) ->
         if wanted e then begin
           let before = Crat.Engine.report engine in
           let t0 = Unix.gettimeofday () in
           Format.fprintf fmt "==== %s: %s ====@." id descr;
           run ctx;
           let wall = Unix.gettimeofday () -. t0 in
           let after = Crat.Engine.report engine in
           let d f = f after - f before in
           records :=
             { Crat.Report.id
             ; descr
             ; wall_s = wall
             ; job_wall_s =
                 after.Crat.Engine.job_wall -. before.Crat.Engine.job_wall
             ; sim_runs = d (fun r -> r.Crat.Engine.sim_runs)
             ; sim_hits = d (fun r -> r.Crat.Engine.sim_hits)
             ; alloc_runs = d (fun r -> r.Crat.Engine.alloc_runs)
             ; alloc_hits = d (fun r -> r.Crat.Engine.alloc_hits)
             ; max_queue_depth = after.Crat.Engine.max_queue_depth
             ; batches = d (fun r -> r.Crat.Engine.batches)
             }
             :: !records;
           Format.fprintf fmt "(%.1fs)@.@." wall
         end)
      experiments;
    (* sanitized replay of every workload's default launch: the
       static/dynamic discharge counts ride the JSON report so CI can
       track how much instrumentation the bounds proofs elide. It runs
       before the clock stops, so its time counts in [total_wall_s] *)
    let san =
      if !json = "" then None
      else
        Some
          (List.fold_left
             (fun acc (app : Workloads.App.t) ->
                let dyn = Crat.Sanitize.validate app in
                let d = dyn.Crat.Sanitize.report.Verify.Sanitize.discharge in
                let c = dyn.Crat.Sanitize.counters in
                { Crat.Report.apps = acc.Crat.Report.apps + 1
                ; accesses = acc.Crat.Report.accesses + d.Verify.Sanitize.total
                ; proven = acc.Crat.Report.proven + d.Verify.Sanitize.safe
                ; residual =
                    acc.Crat.Report.residual + d.Verify.Sanitize.residual
                ; san_seen = acc.Crat.Report.san_seen + Gpusim.Sancheck.seen c
                ; san_checked =
                    acc.Crat.Report.san_checked + Gpusim.Sancheck.checked c
                ; san_violations =
                    acc.Crat.Report.san_violations
                    + Gpusim.Sancheck.violations c
                })
             { Crat.Report.apps = 0
             ; accesses = 0
             ; proven = 0
             ; residual = 0
             ; san_seen = 0
             ; san_checked = 0
             ; san_violations = 0
             }
             Workloads.Suite.all)
    in
    let total_s = Unix.gettimeofday () -. t_all in
    let report = Crat.Engine.report engine in
    Format.fprintf fmt "total %.1fs; %a@." total_s Crat.Engine.pp_report report;
    Option.iter
      (fun (san : Crat.Report.sanitizer) ->
         Format.fprintf fmt
           "sanitizer: %d/%d static accesses proven over %d apps; %d/%d \
            dynamic checks paid, %d violation(s)@."
           san.Crat.Report.proven san.Crat.Report.accesses
           san.Crat.Report.apps san.Crat.Report.san_checked
           san.Crat.Report.san_seen san.Crat.Report.san_violations;
         Crat.Report.write !json
           { Crat.Report.jobs = !jobs
           ; total_wall_s = total_s
           ; engine = report
           ; sanitizer = Some san
           ; experiments = List.rev !records
           };
         Format.fprintf fmt "wrote %s@." !json)
      san
  end
