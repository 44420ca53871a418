type profile_result =
  { opt_tlp : int
  ; samples : (int * int) list
  }

let profile engine cfg (app : Workloads.App.t) ?input ?kernel ~max_tlp () =
  let input =
    match input with
    | Some i -> i
    | None -> Workloads.App.default_input app
  in
  let kernel =
    match kernel with
    | Some k -> k
    | None ->
      (Engine.allocate engine app ~reg_limit:app.Workloads.App.default_regs)
        .Regalloc.Allocator.kernel
  in
  (* the whole TLP ladder is one independent frontier over ONE launch:
     submit it at once, so the engine records the trace on the first
     rung and replays the rest *)
  let launch = Workloads.App.launch app ~kernel ~input () in
  let tlps = List.init (max 1 max_tlp) (fun i -> i + 1) in
  let stats =
    Engine.simulate_batch engine
      (List.map (fun tlp -> (launch, cfg, tlp)) tlps)
  in
  let samples =
    List.map2 (fun tlp st -> (tlp, st.Gpusim.Stats.cycles)) tlps stats
  in
  let opt_tlp, _ =
    List.fold_left
      (fun (bt, bc) (t, c) -> if c < bc then (t, c) else (bt, bc))
      (1, max_int) samples
  in
  { opt_tlp; samples }

(* GTO-mimicking analytical scheduler over one wave of [tlp] blocks.
   One warp's compute occupies the issue pipeline; memory segments
   overlap, paying a latency that grows with cache contention (working
   sets beyond L1 lose their reuse) and with DRAM bandwidth queueing. *)
let mimic_cycles (cfg : Gpusim.Config.t) (tr : Segments.trace) ~warps_per_block ~tlp =
  let segs = Array.of_list tr.Segments.segments in
  let nseg = Array.length segs in
  let nwarps = tlp * warps_per_block in
  if nseg = 0 || nwarps = 0 then 0.
  else begin
    let block_fp = tr.Segments.footprint_bytes * warps_per_block in
    let concurrent = float_of_int (tlp * block_fp) in
    let cap_ratio =
      if concurrent <= 0. then 1.
      else min 1. (float_of_int cfg.Gpusim.Config.l1_bytes /. concurrent)
    in
    (* convex penalty: once the concurrent working set spills out of the
       L1, LRU destroys most pass-distance reuse, not a pro-rata share *)
    let hit = tr.Segments.reuse_ratio *. (cap_ratio ** 2.) in
    let miss_lat = float_of_int (cfg.Gpusim.Config.l2_latency + (cfg.Gpusim.Config.dram_latency / 2)) in
    (* a miss line crosses the interconnect AND the DRAM pipe; under
       thrashing the queueing grows superlinearly (MSHR-limited replays),
       which the extra (1/cap) factor approximates *)
    let line_service =
      (float_of_int cfg.Gpusim.Config.l1_line
       /. float_of_int cfg.Gpusim.Config.dram_bytes_per_cycle)
      +. (float_of_int cfg.Gpusim.Config.l1_line
          /. float_of_int cfg.Gpusim.Config.icnt_bytes_per_cycle)
    in
    let line_service = line_service /. Float.max 0.6 cap_ratio in
    let avg_lat l =
      (hit *. float_of_int cfg.Gpusim.Config.l1_hit_latency)
      +. ((1. -. hit) *. (miss_lat +. (float_of_int l *. line_service)))
    in
    let idx = Array.make nwarps 0 in
    let ready = Array.make nwarps 0. in
    let server_free = ref 0. in
    let core = ref 0. in
    let last = ref 0 in
    let remaining = ref nwarps in
    while !remaining > 0 do
      (* candidate: greedy warp if ready, else oldest ready warp *)
      let ready_warp w = idx.(w) < nseg && ready.(w) <= !core in
      let pick =
        if ready_warp !last then Some !last
        else begin
          let rec find w = if w >= nwarps then None else if ready_warp w then Some w else find (w + 1) in
          find 0
        end
      in
      match pick with
      | None ->
        (* advance time to the next warp completion *)
        let next = ref infinity in
        for w = 0 to nwarps - 1 do
          if idx.(w) < nseg then next := min !next ready.(w)
        done;
        if !next = infinity then remaining := 0 else core := !next
      | Some w ->
        last := w;
        (match segs.(idx.(w)) with
         | Segments.Compute lat ->
           core := !core +. float_of_int lat;
           ready.(w) <- !core
         | Segments.Mem lines ->
           let issue = float_of_int lines in
           core := !core +. issue;
           let misses = float_of_int lines *. (1. -. hit) in
           let queue_start = max !server_free !core in
           server_free := queue_start +. (misses *. line_service);
           ready.(w) <- max (!core +. avg_lat lines) !server_free);
        idx.(w) <- idx.(w) + 1;
        if idx.(w) >= nseg then decr remaining
    done;
    let finish = ref !core in
    Array.iter (fun r -> finish := max !finish r) ready;
    !finish
  end

let estimate_static cfg (app : Workloads.App.t) ?input ~max_tlp () =
  let input =
    match input with
    | Some i -> i
    | None -> Workloads.App.default_input app
  in
  let tr = Segments.trace cfg app input in
  let wpb = app.Workloads.App.block_size / cfg.Gpusim.Config.warp_size in
  let best = ref 1 and best_cost = ref infinity in
  for tlp = 1 to max 1 max_tlp do
    let t = mimic_cycles cfg tr ~warps_per_block:wpb ~tlp in
    let per_block = t /. float_of_int tlp in
    (* prefer the higher TLP on near-ties: when the model sees a flat
       region, extra parallelism hides latencies it cannot express *)
    if per_block <= !best_cost *. 1.002 then begin
      best := tlp;
      if per_block < !best_cost then best_cost := per_block
    end
  done;
  !best
