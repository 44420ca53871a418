(* Quickstart: run the full CRAT pipeline on one application.

     dune exec examples/quickstart.exe [-- APP]

   Steps shown:
   1. build the application's PTX kernel (SSA, infinite registers);
   2. analyze resource usage (MaxReg/MinReg/MaxTLP/ShmSize — Table 1);
   3. find OptTLP by profiling, prune the design space, allocate
      registers per candidate and pick the best TPSC;
   4. compare the resulting build against the MaxTLP and OptTLP
      baselines on the timing simulator. *)

let () =
  let abbr = if Array.length Sys.argv > 1 then Sys.argv.(1) else "KMN" in
  let app =
    try Workloads.Suite.find abbr
    with Not_found ->
      Format.eprintf "unknown application %s; known: %s@." abbr
        (String.concat " " Workloads.Suite.abbrs);
      exit 1
  in
  let cfg = Gpusim.Config.fermi in
  Format.printf "=== CRAT quickstart: %s (%s) ===@.@." app.Workloads.App.abbr
    app.Workloads.App.app_name;

  (* 1. the kernel as the front end emits it *)
  let kernel = Workloads.App.kernel app in
  Format.printf "kernel: %d PTX instructions, %d virtual registers@."
    (Ptx.Kernel.instr_count kernel)
    (Ptx.Reg.Set.cardinal (Ptx.Kernel.registers kernel));

  (* 2. resource analysis *)
  let resource = Crat.Resource.analyze cfg app in
  Format.printf "analysis: %a@.@." Crat.Resource.pp resource;

  (* 3. the CRAT plan (one engine shared by every evaluation below;
        pass ~jobs to fan simulations over multiple domains) *)
  let engine = Crat.Engine.create () in
  let plan = Crat.Optimizer.plan engine cfg app in
  Format.printf "%a@." Crat.Optimizer.pp_plan plan;

  (* 4. head-to-head on the simulator *)
  let max_tlp = Crat.Baselines.max_tlp engine cfg app () in
  let opt_tlp = Crat.Baselines.opt_tlp engine cfg app () in
  let crat, _ = Crat.Baselines.crat engine cfg app () in
  let show (e : Crat.Baselines.evaluated) =
    Format.printf
      "  %-8s reg=%2d TLP=%d  %9d cycles  (%.2fx vs MaxTLP)  L1 hit %.2f@."
      e.Crat.Baselines.label e.Crat.Baselines.reg e.Crat.Baselines.tlp
      (Crat.Baselines.cycles e)
      (Crat.Baselines.speedup_over ~baseline:max_tlp e)
      (Gpusim.Stats.l1_hit_rate e.Crat.Baselines.stats)
  in
  Format.printf "simulated on %s:@." cfg.Gpusim.Config.name;
  show max_tlp;
  show opt_tlp;
  show crat;
  Format.printf "@.CRAT speedup over OptTLP: %.3fx@."
    (Crat.Baselines.speedup_over ~baseline:opt_tlp crat)
