let geomean xs =
  match xs with
  | [] -> 1.
  | _ ->
    let s = List.fold_left (fun acc x -> acc +. log x) 0. xs in
    exp (s /. float_of_int (List.length xs))

(* the arithmetic mean of [f] over [xs]; 0 when empty *)
let mean f xs =
  List.fold_left (fun a x -> a +. f x) 0. xs
  /. float_of_int (max 1 (List.length xs))

(* ---------- figure tables ---------- *)

type cell =
  | Int of int
  | Float of float * int
  | Text of string

type table =
  { title : string
  ; columns : string list
  ; rows : cell list list
  ; summary : (string * cell) list
  }

let table ?(summary = []) title columns rows = { title; columns; rows; summary }

let cell_text = function
  | Int n -> string_of_int n
  | Float (x, digits) -> Printf.sprintf "%.*f" digits x
  | Text s -> s

let column_index t col =
  let rec go i = function
    | [] -> invalid_arg (Printf.sprintf "%s: no column %S" t.title col)
    | c :: _ when c = col -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 t.columns

let column t col =
  let i = column_index t col in
  List.map (fun row -> List.nth row i) t.rows

let lookup t ~row ~col =
  let i = column_index t col in
  match List.filter (fun r -> cell_text (List.hd r) = row) t.rows with
  | [ r ] -> List.nth r i
  | [] -> invalid_arg (Printf.sprintf "%s: no row %S" t.title row)
  | _ -> invalid_arg (Printf.sprintf "%s: several rows %S" t.title row)

let number = function
  | Int n -> float_of_int n
  | Float (x, _) -> x
  | Text s -> invalid_arg (Printf.sprintf "Experiments.number: text cell %S" s)

let pp_table fmt t =
  let text = List.map (List.map cell_text) t.rows in
  let widths =
    List.fold_left
      (List.map2 (fun w s -> max w (String.length s)))
      (List.map String.length t.columns)
      text
  in
  (* text columns align left, numeric columns right *)
  let left =
    match t.rows with
    | [] -> List.map (fun _ -> true) t.columns
    | row :: _ -> List.map (function Text _ -> true | _ -> false) row
  in
  let line cells =
    let padded =
      List.map2
        (fun (w, l) s ->
           let fill = String.make (w - String.length s) ' ' in
           if l then s ^ fill else fill ^ s)
        (List.combine widths left) cells
    in
    let s = String.concat "  " padded in
    let n = ref (String.length s) in
    while !n > 0 && s.[!n - 1] = ' ' do decr n done;
    Format.fprintf fmt "%s@." (String.sub s 0 !n)
  in
  Format.fprintf fmt "%s@." t.title;
  line t.columns;
  List.iter line text;
  List.iter
    (fun (name, c) -> Format.fprintf fmt "%s: %s@." name (cell_text c))
    t.summary

(* ---------- comparisons ---------- *)

type comparison =
  { app : Workloads.App.t
  ; max_tlp : Baselines.evaluated
  ; opt_tlp : Baselines.evaluated
  ; crat_local : Baselines.evaluated
  ; crat : Baselines.evaluated
  ; plan : Optimizer.plan
  }

let compare_app ?backend engine cfg app =
  let max_tlp = Baselines.max_tlp ?backend engine cfg app () in
  let opt_tlp = Baselines.opt_tlp ?backend engine cfg app () in
  let crat_local, _ =
    Baselines.crat ?backend ~shared_spilling:false engine cfg app ()
  in
  let crat, plan = Baselines.crat ?backend engine cfg app () in
  { app; max_tlp; opt_tlp; crat_local; crat; plan }

let speedup_vs_opt c e = Baselines.speedup_over ~baseline:c.opt_tlp e

let abbr (app : Workloads.App.t) = Text app.Workloads.App.abbr

(* ---------- tables 2 and 3 ---------- *)

let tab2 cfg =
  table "Table 2: simulated GPGPU-Sim-like configuration"
    [ "component"; "parameters" ]
    ([ Text "model"; Text cfg.Gpusim.Config.name ]
     :: List.map (fun (k, v) -> [ Text k; Text v ]) (Gpusim.Config.spec cfg))

let tab3 apps =
  table "Table 3: applications"
    [ "abbr"; "application"; "kernel"; "suite"; "class"; "block"; "shm(B)" ]
    (List.map
       (fun (a : Workloads.App.t) ->
          [ abbr a
          ; Text a.Workloads.App.app_name
          ; Text a.Workloads.App.kernel_name
          ; Text a.Workloads.App.suite_name
          ; Text (if a.Workloads.App.sensitive then "sensitive" else "insensitive")
          ; Int a.Workloads.App.block_size
          ; Int (a.Workloads.App.shm_words * 4)
          ])
       apps)

(* ---------- fig 1 ---------- *)

let fig1 engine cfg apps =
  let rows =
    Engine.map engine
      (fun app ->
         let m = Baselines.max_tlp engine cfg app () in
         let o = Baselines.opt_tlp engine cfg app () in
         ( app
         , Baselines.speedup_over ~baseline:m o
         , Baselines.register_utilization cfg app m
         , Baselines.register_utilization cfg app o ))
      apps
  in
  table "Fig 1: thread throttling vs MaxTLP (perf & register utilization)"
    [ "app"; "OptTLP/Max"; "util(Max)"; "util(Opt)" ]
    (List.map
       (fun (app, s, um, uo) -> [ abbr app; Float (s, 3); Float (um, 2); Float (uo, 2) ])
       rows)
    ~summary:
      [ ("geomean speedup", Float (geomean (List.map (fun (_, s, _, _) -> s) rows), 3))
      ; ("mean waste (%)", Float (100. *. mean (fun (_, _, um, uo) -> um -. uo) rows, 1))
      ]

(* ---------- fig 2 ---------- *)

let fig2 engine cfg app =
  let r = Resource.analyze cfg app in
  let m = Baselines.max_tlp engine cfg app () in
  let base = float_of_int (Baselines.cycles m) in
  let stairs = Design_space.stairs cfg r in
  let regs = List.sort_uniq compare (List.map (fun p -> p.Design_space.reg) stairs) in
  (* the whole (reg x TLP) surface is one frontier: submit it at once *)
  let points =
    List.concat_map
      (fun reg ->
         let occ = Gpusim.Occupancy.max_tlp cfg (Resource.usage_at r ~regs:reg) in
         List.init occ (fun i -> { Design_space.reg; tlp = i + 1 }))
      regs
  in
  table "Fig 2: design space (speedup vs MaxTLP)" [ "reg"; "TLP"; "speedup" ]
    (List.map
       (fun ((p : Design_space.point), (st : Gpusim.Stats.t)) ->
          [ Int p.Design_space.reg
          ; Int p.Design_space.tlp
          ; Float (base /. float_of_int st.Gpusim.Stats.cycles, 3)
          ])
       (Design_space.evaluate engine cfg app points))

(* ---------- fig 3 ---------- *)

let fig3 engine cfg app =
  let c = compare_app engine cfg app in
  let base = float_of_int (Baselines.cycles c.max_tlp) in
  let row label (e : Baselines.evaluated) =
    [ Text label
    ; Int e.Baselines.reg
    ; Int e.Baselines.tlp
    ; Float (base /. float_of_int (Baselines.cycles e), 3)
    ; Float (Gpusim.Stats.l1_hit_rate e.Baselines.stats, 3)
    ; Float (Gpusim.Stats.mem_stall_fraction e.Baselines.stats, 3)
    ; Float (Baselines.register_utilization cfg app e, 2)
    ]
  in
  let r = c.plan.Optimizer.resource in
  (* OptTLP+Reg: keep the throttled TLP, raise registers to the stair cap *)
  let opt_reg_row =
    match Design_space.max_reg_at_tlp cfg r ~tlp:c.opt_tlp.Baselines.tlp with
    | None -> []
    | Some reg ->
      let a = Engine.allocate engine app ~reg_limit:reg in
      let input = Workloads.App.default_input app in
      let stats =
        Engine.simulate engine
          (Workloads.App.launch app ~kernel:a.Regalloc.Allocator.kernel ~input ())
          cfg ~tlp:c.opt_tlp.Baselines.tlp
      in
      let e =
        { Baselines.label = "OptTLP+Reg"
        ; reg
        ; tlp = c.opt_tlp.Baselines.tlp
        ; stats
        ; alloc = a
        ; input
        }
      in
      [ row "OptTLP+Reg" e ]
  in
  table "Fig 3: selected design points"
    [ "solution"; "reg"; "TLP"; "perf"; "L1hit"; "stall"; "reguse" ]
    ([ row "MaxTLP" c.max_tlp; row "OptTLP" c.opt_tlp ]
     @ opt_reg_row
     @ [ row "CRAT" c.crat ])

(* ---------- fig 5 ---------- *)

let fig5 engine cfg apps =
  table "Fig 5: impact of thread throttling on L1 (hit rate & congestion stalls)"
    [ "app"; "hit(Max)"; "hit(Opt)"; "stall(Max)"; "stall(Opt)" ]
    (Engine.map engine
       (fun app ->
          let m = (Baselines.max_tlp engine cfg app ()).Baselines.stats in
          let o = (Baselines.opt_tlp engine cfg app ()).Baselines.stats in
          [ abbr app
          ; Float (Gpusim.Stats.l1_hit_rate m, 3)
          ; Float (Gpusim.Stats.l1_hit_rate o, 3)
          ; Float (Gpusim.Stats.mem_stall_fraction m, 3)
          ; Float (Gpusim.Stats.mem_stall_fraction o, 3)
          ])
       apps)

(* ---------- fig 6 ---------- *)

let reg_sweep (r : Resource.t) cfg =
  let lo = r.Resource.min_reg in
  let hi = min r.Resource.max_reg cfg.Gpusim.Config.max_regs_per_thread in
  let rec collect reg acc =
    if reg > hi then List.rev acc else collect (reg + 3) (reg :: acc)
  in
  collect lo []

let fig6 engine cfg app =
  let r = Resource.analyze cfg app in
  table "Fig 6: register per-thread vs TLP and instruction count"
    [ "reg"; "TLP"; "instrs" ]
    (Engine.map engine
       (fun reg ->
          let a = Engine.allocate engine app ~reg_limit:reg in
          [ Int reg
          ; Int (Gpusim.Occupancy.max_tlp cfg (Resource.usage_at r ~regs:reg))
          ; Int (Ptx.Kernel.instr_count a.Regalloc.Allocator.kernel)
          ])
       (reg_sweep r cfg))

(* ---------- fig 7 ---------- *)

let fig7 cfg apps =
  let rows =
    List.map
      (fun app ->
         let r = Resource.analyze cfg app in
         let tlp = r.Resource.max_tlp in
         let u = Resource.usage_at r ~regs:r.Resource.default_regs in
         ( app
         , Gpusim.Occupancy.register_utilization cfg u ~tlp
         , Gpusim.Occupancy.shared_utilization cfg u ~tlp ))
      apps
  in
  table "Fig 7: register vs shared-memory utilization at MaxTLP"
    [ "app"; "reg"; "shared" ]
    (List.map (fun (app, reg, shm) -> [ abbr app; Float (reg, 2); Float (shm, 2) ]) rows)
    ~summary:
      [ ("mean regs (%)", Float (100. *. mean (fun (_, reg, _) -> reg) rows, 1))
      ; ("mean shared (%)", Float (100. *. mean (fun (_, _, shm) -> shm) rows, 1))
      ]

(* ---------- fig 8 ---------- *)

let fig8 engine cfg app =
  let r = Resource.analyze cfg app in
  let input = Workloads.App.default_input app in
  let build ?(policy = `Off) ?(preference = `Cheap_first) ~label reg =
    let tlp = Gpusim.Occupancy.max_tlp cfg (Resource.usage_at r ~regs:reg) in
    let shared_policy =
      match policy with
      | `Off -> `Off
      | `Shared ->
        `Spare
          (Gpusim.Occupancy.spare_shared_bytes cfg
             (Resource.usage_at r ~regs:reg)
             ~tlp)
    in
    let a =
      Regalloc.Allocator.allocate ~shared_policy ~spill_preference:preference
        ~block_size:app.Workloads.App.block_size ~reg_limit:reg
        (Workloads.App.kernel app)
    in
    (label, a.Regalloc.Allocator.kernel, tlp)
  in
  let base_reg = min 48 r.Resource.max_reg in
  let builds =
    [ build ~label:(Printf.sprintf "Reg=%d" base_reg) base_reg
    ; build ~label:"Reg=40" 40
    ; build ~label:"Reg=32" 32
    ; build ~policy:`Shared ~preference:`Expensive_first
        ~label:"Reg=32+shm, spill var1 (high-frequency)" 32
    ; build ~policy:`Shared ~preference:`Cheap_first
        ~label:"Reg=32+shm, spill var2 (Algorithm 1 default)" 32
    ]
  in
  let stats =
    Engine.simulate_batch engine
      (List.map
         (fun (_, kernel, tlp) ->
            (Workloads.App.launch app ~kernel ~input (), cfg, tlp))
         builds)
  in
  let cycles = List.map (fun (st : Gpusim.Stats.t) -> st.Gpusim.Stats.cycles) stats in
  table "Fig 8: register limit + shared-memory spill choice (FDTD)"
    [ "build"; "speedup" ]
    (List.map2
       (fun (label, _, _) c ->
          [ Text label; Float (float_of_int (List.hd cycles) /. float_of_int c, 3) ])
       builds cycles)

(* ---------- fig 11 ---------- *)

let fig11 engine cfg app =
  let r = Resource.analyze cfg app in
  let pr = Opttlp.profile engine cfg app ~max_tlp:r.Resource.max_tlp () in
  let rows set points =
    List.map
      (fun (p : Design_space.point) ->
         [ Text set; Int p.Design_space.reg; Int p.Design_space.tlp ])
      points
  in
  table "Fig 11: design-space staircase and pruning" [ "set"; "reg"; "TLP" ]
    (rows "stairs" (Design_space.stairs cfg r)
     @ rows "pruned" (Design_space.prune cfg r ~opt_tlp:pr.Opttlp.opt_tlp))

(* ---------- fig 12 ---------- *)

let fig12 engine cfg app =
  let r = Resource.analyze cfg app in
  table "Fig 12: spill load/store bytes, reference (linear scan) vs CRAT"
    [ "reg"; "reference"; "CRAT" ]
    (Engine.map engine
       (fun reg ->
          let cb = Engine.allocate engine app ~reg_limit:reg in
          let ls =
            Engine.allocate ~strategy:Regalloc.Allocator.Linear_scan engine app
              ~reg_limit:reg
          in
          [ Int reg
          ; Int (Regalloc.Allocator.spill_bytes ls)
          ; Int (Regalloc.Allocator.spill_bytes cb)
          ])
       (reg_sweep r cfg))

(* ---------- fig 13/14/15/16 ---------- *)

let fig13 ?backend engine cfg apps =
  (* apps are independent: one full comparison per domain *)
  let comps = Engine.map engine (compare_app ?backend engine cfg) apps in
  let s f = List.map (fun c -> speedup_vs_opt c (f c)) comps in
  let local = s (fun c -> c.crat_local) and crat = s (fun c -> c.crat) in
  ( table "Fig 13: performance normalised to OptTLP"
      [ "app"; "MaxTLP"; "OptTLP"; "CRAT-local"; "CRAT" ]
      (List.map2
         (fun c (l, s) ->
            [ abbr c.app
            ; Float (speedup_vs_opt c c.max_tlp, 3)
            ; Float (1.0, 3)
            ; Float (l, 3)
            ; Float (s, 3)
            ])
         comps (List.combine local crat))
      ~summary:
        [ ("geomean CRAT-local", Float (geomean local, 3))
        ; ("geomean CRAT", Float (geomean crat, 3))
        ; ("max CRAT", Float (List.fold_left Float.max 0. crat, 2))
        ]
  , comps )

let fig14 comps =
  let tlp f = List.map (fun c -> (f c).Baselines.tlp) comps in
  let max_tlp = tlp (fun c -> c.max_tlp) and crat = tlp (fun c -> c.crat) in
  let avg xs =
    Float
      ( float_of_int (List.fold_left ( + ) 0 xs)
        /. float_of_int (max 1 (List.length xs))
      , 1 )
  in
  table "Fig 14: selected TLP" [ "app"; "MaxTLP"; "CRAT" ]
    (List.map2
       (fun c (m, k) -> [ abbr c.app; Int m; Int k ])
       comps (List.combine max_tlp crat))
    ~summary:[ ("mean MaxTLP", avg max_tlp); ("mean CRAT", avg crat) ]

let fig15 cfg comps =
  table "Fig 15: register utilization" [ "app"; "OptTLP"; "CRAT" ]
    (List.map
       (fun c ->
          [ abbr c.app
          ; Float (Baselines.register_utilization cfg c.app c.opt_tlp, 2)
          ; Float (Baselines.register_utilization cfg c.app c.crat, 2)
          ])
       comps)

let fig16 comps =
  let rows =
    List.filter_map
      (fun c ->
         let l = Gpusim.Stats.local_accesses c.crat_local.Baselines.stats in
         let f = Gpusim.Stats.local_accesses c.crat.Baselines.stats in
         if l = 0 then None else Some (c.app, float_of_int f /. float_of_int l))
      comps
  in
  table "Fig 16: local-memory accesses, CRAT normalised to CRAT-local"
    [ "app"; "CRAT/CRAT-local" ]
    (List.map (fun (app, ratio) -> [ abbr app; Float (ratio, 3) ]) rows)
    ~summary:
      (if rows = [] then []
       else [ ("mean reduction (%)", Float (100. *. (1. -. mean snd rows), 0)) ])

(* ---------- fig 18 ---------- *)

let fig18 engine cfg apps =
  table "Fig 18: input sensitivity (CRAT/OptTLP; profile input x eval input)"
    [ "app"; "profiled"; "evaluated"; "speedup" ]
    (List.concat
       (Engine.map engine
          (fun (app : Workloads.App.t) ->
             let inputs = app.Workloads.App.inputs in
             List.concat_map
               (fun pi ->
                  let _, plan =
                    Baselines.crat ~profile_input:pi engine cfg app ~input:pi ()
                  in
                  let c = plan.Optimizer.chosen in
                  (* the chosen build across every evaluation input: one batch *)
                  let stats =
                    Engine.simulate_batch engine
                      (List.map
                         (fun ei ->
                            ( Workloads.App.launch app
                                ~kernel:c.Optimizer.alloc.Regalloc.Allocator.kernel
                                ~input:ei ()
                            , cfg
                            , c.Optimizer.point.Design_space.tlp ))
                         inputs)
                  in
                  List.map2
                    (fun ei (st : Gpusim.Stats.t) ->
                       let o = Baselines.opt_tlp engine cfg app ~input:ei () in
                       [ abbr app
                       ; Text pi.Workloads.App.ilabel
                       ; Text ei.Workloads.App.ilabel
                       ; Float
                           ( float_of_int (Baselines.cycles o)
                             /. float_of_int st.Gpusim.Stats.cycles
                           , 3 )
                       ])
                    inputs stats)
               inputs)
          apps))

(* ---------- fig 20 ---------- *)

let fig20 engine cfg apps =
  let rows =
    Engine.map engine
      (fun app ->
         let o = Baselines.opt_tlp engine cfg app () in
         let cp, plan_p = Baselines.crat engine cfg app () in
         let cs, plan_s = Baselines.crat ~mode:`Static engine cfg app () in
         ( app
         , Baselines.speedup_over ~baseline:o cp
         , Baselines.speedup_over ~baseline:o cs
         , plan_p.Optimizer.opt_tlp
         , plan_s.Optimizer.opt_tlp ))
      apps
  in
  table "Fig 20: CRAT-profile vs CRAT-static"
    [ "app"; "profile"; "static"; "optP"; "optS" ]
    (List.map
       (fun (app, sp, ss, op, os) ->
          [ abbr app; Float (sp, 3); Float (ss, 3); Int op; Int os ])
       rows)
    ~summary:
      (let gm f = Float (geomean (List.map f rows), 3) in
       [ ("geomean profile", gm (fun (_, sp, _, _, _) -> sp))
       ; ("geomean static", gm (fun (_, _, ss, _, _) -> ss))
       ])

(* ---------- energy ---------- *)

let energy comps =
  let e stats = Energy.total (Energy.of_stats stats) in
  let rows =
    List.map
      (fun c -> (c.app, e c.crat.Baselines.stats /. e c.opt_tlp.Baselines.stats))
      comps
  in
  table "Energy: CRAT normalised to OptTLP" [ "app"; "CRAT/OptTLP" ]
    (List.map (fun (app, ratio) -> [ abbr app; Float (ratio, 3) ]) rows)
    ~summary:[ ("mean saving (%)", Float (100. *. (1. -. mean snd rows), 1)) ]

(* ---------- overhead ---------- *)

let overhead engine cfg apps =
  table "Overhead: OptTLP by profiling vs static analysis"
    [ "app"; "runs"; "profiling(s)"; "static(s)" ]
    (List.map
       (fun app ->
          let r = Resource.analyze cfg app in
          let a = Engine.allocate engine app ~reg_limit:app.Workloads.App.default_regs in
          (* a private serial engine that keeps no traces: every TLP sample
             records and times its own, so the real profiling cost is paid
             here whatever the caller's engine already holds *)
          let private_engine = Engine.create ~jobs:1 ~replay:false () in
          let t0 = Unix.gettimeofday () in
          let _ =
            Opttlp.profile private_engine cfg app
              ~kernel:a.Regalloc.Allocator.kernel ~max_tlp:r.Resource.max_tlp ()
          in
          let t1 = Unix.gettimeofday () in
          let _ = Opttlp.estimate_static cfg app ~max_tlp:r.Resource.max_tlp () in
          let t2 = Unix.gettimeofday () in
          [ abbr app
          ; Int r.Resource.max_tlp
          ; Float (t1 -. t0, 2)
          ; Float (t2 -. t1, 4)
          ])
       apps)

(* ---------- table 1 ---------- *)

let tab1 engine cfg apps =
  table "Table 1: collected resource-usage parameters (OptTLP* = static estimate)"
    [ "app"; "MaxReg"; "MinReg"; "Block"; "ShmSize"; "MaxTLP"; "OptTLP"; "OptTLP*" ]
    (Engine.map engine
       (fun app ->
          let r = Resource.analyze cfg app in
          let p = Opttlp.profile engine cfg app ~max_tlp:r.Resource.max_tlp () in
          let s = Opttlp.estimate_static cfg app ~max_tlp:r.Resource.max_tlp () in
          [ abbr app
          ; Int r.Resource.max_reg
          ; Int r.Resource.min_reg
          ; Int r.Resource.block_size
          ; Int r.Resource.shm_size
          ; Int r.Resource.max_tlp
          ; Int p.Opttlp.opt_tlp
          ; Int s
          ])
       apps)

(* ---------- ablations ---------- *)

let ablation_scheduler engine cfg apps =
  table "Ablation: GTO vs LRR warp scheduling at OptTLP"
    [ "app"; "GTO"; "LRR"; "LRR/GTO" ]
    (Engine.map engine
       (fun (app : Workloads.App.t) ->
          let o = Baselines.opt_tlp engine cfg app () in
          let run scheduler =
            let launch =
              Workloads.App.launch app
                ~kernel:o.Baselines.alloc.Regalloc.Allocator.kernel
                ~tlp:o.Baselines.tlp ~input:o.Baselines.input ()
            in
            (Gpusim.Sm.run ~scheduler cfg launch).Gpusim.Stats.cycles
          in
          let gto = run `Gto and lrr = run `Lrr in
          [ abbr app
          ; Int gto
          ; Int lrr
          ; Float (float_of_int lrr /. float_of_int gto, 3)
          ])
       apps)

(* one simulation batch over allocator builds of [app] at [tlp] *)
let simulate_builds engine cfg app ~tlp builds =
  let input = Workloads.App.default_input app in
  Engine.simulate_batch engine
    (List.map
       (fun (_, a) ->
          ( Workloads.App.launch app ~kernel:a.Regalloc.Allocator.kernel ~input ()
          , cfg
          , tlp ))
       builds)

let ablation_chunk engine cfg (app : Workloads.App.t) ~reg =
  let r = Resource.analyze cfg app in
  let tlp = Gpusim.Occupancy.max_tlp cfg (Resource.usage_at r ~regs:reg) in
  let spare =
    Gpusim.Occupancy.spare_shared_bytes cfg (Resource.usage_at r ~regs:reg) ~tlp
  in
  let builds =
    List.map
      (fun chunk ->
         ( chunk
         , Regalloc.Allocator.allocate ~shared_policy:(`Spare spare)
             ~shared_chunk:chunk ~block_size:app.Workloads.App.block_size
             ~reg_limit:reg (Workloads.App.kernel app) ))
      [ 1; 4; 1000 ]
  in
  table
    "Ablation: Algorithm 1 sub-stack granularity (1000 = whole-type stacks, the paper)"
    [ "chunk"; "shm-insts"; "local"; "cycles" ]
    (List.map2
       (fun (chunk, a) (st : Gpusim.Stats.t) ->
          let s = a.Regalloc.Allocator.stats in
          [ Int chunk
          ; Int s.Regalloc.Spill.num_shared
          ; Int s.Regalloc.Spill.num_local
          ; Int st.Gpusim.Stats.cycles
          ])
       builds
       (simulate_builds engine cfg app ~tlp builds))

let ablation_type_strict apps =
  table "Ablation: PTX type-affinity in colouring (paper Sec. 5.2 register waste)"
    [ "app"; "strict"; "loose"; "waste" ]
    (List.map
       (fun (app : Workloads.App.t) ->
          let k = Workloads.App.kernel app in
          let flow = Cfg.Flow.of_kernel k in
          let live = Cfg.Liveness.compute flow in
          let graph = Regalloc.Interference.build flow live in
          let du = Cfg.Defuse.compute flow in
          let cost r =
            match Ptx.Reg.Map.find_opt r du with
            | Some s -> s.Cfg.Defuse.weighted
            | None -> 0.
          in
          let color strict =
            Regalloc.Coloring.color ~type_strict:strict ~graph ~cls:Ptx.Types.C32
              ~k:256 ~spill_cost:cost ()
          in
          let s = color true and l = color false in
          [ abbr app
          ; Int s.Regalloc.Coloring.colors_used
          ; Int l.Regalloc.Coloring.colors_used
          ; Int s.Regalloc.Coloring.type_waste
          ])
       apps)

let ablation_allocator engine cfg (app : Workloads.App.t) ~reg =
  let r = Resource.analyze cfg app in
  let tlp = Gpusim.Occupancy.max_tlp cfg (Resource.usage_at r ~regs:reg) in
  let builds =
    List.map
      (fun (variant, coalesce, remat) ->
         ( variant
         , Regalloc.Allocator.allocate ~coalesce ~remat
             ~block_size:app.Workloads.App.block_size ~reg_limit:reg
             (Workloads.App.kernel app) ))
      [ ("paper", false, false)
      ; ("+coalesce", true, false)
      ; ("+remat", false, true)
      ; ("+both", true, true)
      ]
  in
  table "Ablation: allocator extensions (copy coalescing, rematerialisation)"
    [ "variant"; "instrs"; "local"; "remat"; "cycles" ]
    (List.map2
       (fun (variant, a) (st : Gpusim.Stats.t) ->
          let s = a.Regalloc.Allocator.stats in
          [ Text variant
          ; Int (Ptx.Kernel.instr_count a.Regalloc.Allocator.kernel)
          ; Int s.Regalloc.Spill.num_local
          ; Int s.Regalloc.Spill.num_remat
          ; Int st.Gpusim.Stats.cycles
          ])
       builds
       (simulate_builds engine cfg app ~tlp builds))

(* ---------- multi-SM scaling ---------- *)

let gpu_scaling engine cfg (app : Workloads.App.t) ~tlp =
  (* the single-SM experiments model one SM's *share* of DRAM bandwidth;
     a whole-GPU run exposes the full pipe, shared between SMs *)
  let cfg =
    { cfg with
      Gpusim.Config.dram_bytes_per_cycle =
        cfg.Gpusim.Config.dram_bytes_per_cycle * cfg.Gpusim.Config.num_sms
    }
  in
  let input = Workloads.App.default_input app in
  let kernel =
    (Engine.allocate engine app ~reg_limit:app.Workloads.App.default_regs)
      .Regalloc.Allocator.kernel
  in
  table "Multi-SM scaling (work per SM held constant; shared L2/DRAM)"
    [ "SMs"; "cycles"; "IPC" ]
    (Engine.map engine
       (fun sms ->
          let grid = sms * input.Workloads.App.num_blocks in
          let input = { input with Workloads.App.num_blocks = grid } in
          let mem = Workloads.App.memory app input in
          let r =
            Gpusim.Gpu.run ~sms cfg
              (Gpusim.Launch.make ~kernel
                 ~block_size:app.Workloads.App.block_size ~num_blocks:grid
                 ~tlp_limit:tlp ~params:(Workloads.App.params app input) mem)
          in
          [ Int sms
          ; Int r.Gpusim.Gpu.total_cycles
          ; Float (Gpusim.Gpu.aggregate_ipc r, 2)
          ])
       [ 1; 2; 4; 8; 15 ])

(* ---------- cache-bypassing extension ---------- *)

let extension_bypass engine cfg (app : Workloads.App.t) =
  let input = Workloads.App.default_input app in
  let m = Baselines.max_tlp engine cfg app () in
  let c, _plan = Baselines.crat engine cfg app () in
  let run label (e : Baselines.evaluated) bypass =
    (* bypass runs are not memoized: they use the raw simulator hook *)
    let stats =
      if bypass then
        Gpusim.Sm.run ~bypass_global:true cfg
          (Workloads.App.launch app
             ~kernel:e.Baselines.alloc.Regalloc.Allocator.kernel
             ~tlp:e.Baselines.tlp ~input ())
      else e.Baselines.stats
    in
    [ Text label
    ; Int e.Baselines.tlp
    ; Int stats.Gpusim.Stats.cycles
    ; Float (Gpusim.Stats.l1_hit_rate stats, 3)
    ]
  in
  table "Extension: CRAT composed with static L1 bypassing of global traffic"
    [ "technique"; "TLP"; "cycles"; "L1hit" ]
    [ run "MaxTLP" m false
    ; run "MaxTLP+bypass" m true
    ; run "CRAT" c false
    ; run "CRAT+bypass" c true
    ]

(* ---------- dynamic throttling baseline ---------- *)

let dynamic_tlp engine cfg apps =
  table "Dynamic throttling (DynCTA-style controller) vs offline OptTLP vs CRAT"
    [ "app"; "MaxTLP"; "DynTLP"; "OptTLP"; "CRAT" ]
    (Engine.map engine
       (fun (app : Workloads.App.t) ->
          let m = Baselines.max_tlp engine cfg app () in
          let o = Baselines.opt_tlp engine cfg app () in
          let c, _ = Baselines.crat engine cfg app () in
          let dyn =
            Gpusim.Sm.run ~dynamic_tlp:true cfg
              (Workloads.App.launch app
                 ~kernel:m.Baselines.alloc.Regalloc.Allocator.kernel
                 ~tlp:m.Baselines.tlp ~input:m.Baselines.input ())
          in
          [ abbr app
          ; Int (Baselines.cycles m)
          ; Int dyn.Gpusim.Stats.cycles
          ; Int (Baselines.cycles o)
          ; Int (Baselines.cycles c)
          ])
       apps)

(* ---------- register-file backends ---------- *)

let scalarization cfg apps =
  table "Scalarization: spill-free limits under the PTX and machine backends"
    [ "app"; "reg-ptx"; "reg-mach"; "sregs"; "scalar"; "tlp-ptx"; "tlp-mach" ]
    (List.map
       (fun (app : Workloads.App.t) ->
          let rp = Resource.analyze cfg app in
          let rm = Resource.analyze ~backend:Machine.Backend.Machine cfg app in
          let block_size = app.Workloads.App.block_size in
          let k = Workloads.App.kernel app in
          let alloc =
            Regalloc.Allocator.allocate
              ~scalar:(Machine.Scalarize.predicate ~block_size k)
              ~scalar_limit:Machine.Backend.default_scalar_limit ~block_size
              ~reg_limit:rm.Resource.max_reg k
          in
          let tlp_at (r : Resource.t) =
            Gpusim.Occupancy.max_tlp cfg
              (Resource.usage_at r ~regs:r.Resource.max_reg)
          in
          [ abbr app
          ; Int rp.Resource.max_reg
          ; Int rm.Resource.max_reg
          ; Int rm.Resource.sregs_per_warp
          ; Int alloc.Regalloc.Allocator.scalarized
          ; Int (tlp_at rp)
          ; Int (tlp_at rm)
          ])
       apps)
