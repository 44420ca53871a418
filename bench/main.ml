(* Paper-figure registry: regenerates every table and figure of the
   paper's evaluation, one id per table or figure. Each id builds one
   Crat.Experiments.table, printed under its title by
   Crat.Experiments.pp_table.

   Usage:
     dune exec bench/main.exe                 # all experiments, full size
     dune exec bench/main.exe -- --fast       # reduced app sets
     dune exec bench/main.exe -- --only fig13,tab1
     dune exec bench/main.exe -- --jobs 4     # fan simulations over 4 domains
     dune exec bench/main.exe -- --no-replay  # every simulation cold
     dune exec bench/main.exe -- --backend machine --only fig13 *)

module E = Crat.Experiments

let fermi = Gpusim.Config.fermi
let kepler = Gpusim.Config.kepler
let find = Workloads.Suite.find

type ctx =
  { engine : Crat.Engine.t
  ; backend : Machine.Backend.t  (** register-file model of the fig13 family *)
  ; sensitive : Workloads.App.t list
  ; insensitive : Workloads.App.t list
  ; input_apps : Workloads.App.t list  (** fig18 *)
  ; fig13 : (E.table * E.comparison list) Lazy.t
      (** fig13 on [sensitive]; fig14/15/16/energy share its comparisons *)
  }

let make_ctx ~fast ~backend engine =
  let sensitive, insensitive, input_apps =
    if fast then
      ( List.map find [ "CFD"; "KMN"; "FDTD"; "STM"; "BLK" ]
      , List.map find [ "PATH"; "GAU"; "BFS" ]
      , [ find "BLK" ] )
    else
      ( Workloads.Suite.sensitive
      , Workloads.Suite.insensitive
      , [ find "CFD"; find "BLK" ] )
  in
  { engine
  ; backend
  ; sensitive
  ; insensitive
  ; input_apps
  ; fig13 = lazy (E.fig13 ~backend engine fermi sensitive)
  }

let comparisons ctx = snd (Lazy.force ctx.fig13)

let experiments : (string * (ctx -> E.table)) list =
  [ ("tab2", fun _ -> E.tab2 fermi)
  ; ("tab3", fun _ -> E.tab3 Workloads.Suite.all)
  ; ("tab1", fun ctx -> E.tab1 ctx.engine fermi ctx.sensitive)
  ; ("fig1", fun ctx -> E.fig1 ctx.engine fermi ctx.sensitive)
  ; ("fig2", fun ctx -> E.fig2 ctx.engine fermi (find "CFD"))
  ; ("fig3", fun ctx -> E.fig3 ctx.engine fermi (find "CFD"))
  ; ("fig5", fun ctx -> E.fig5 ctx.engine fermi ctx.sensitive)
  ; ("fig6", fun ctx -> E.fig6 ctx.engine fermi (find "CFD"))
  ; ("fig7", fun ctx -> E.fig7 fermi (ctx.sensitive @ ctx.insensitive))
  ; ("fig8", fun ctx -> E.fig8 ctx.engine fermi (find "FDTD"))
  ; ("fig11", fun ctx -> E.fig11 ctx.engine fermi (find "CFD"))
  ; ("fig12", fun ctx -> E.fig12 ctx.engine fermi (find "CFD"))
  ; ("fig13", fun ctx -> fst (Lazy.force ctx.fig13))
  ; ("fig14", fun ctx -> E.fig14 (comparisons ctx))
  ; ("fig15", fun ctx -> E.fig15 fermi (comparisons ctx))
  ; ("fig16", fun ctx -> E.fig16 (comparisons ctx))
  ; ( "fig17"
    , fun ctx ->
        let t, _ = E.fig13 ~backend:ctx.backend ctx.engine kepler ctx.sensitive in
        { t with E.title = "Fig 17: Kepler-like architecture" } )
  ; ("fig18", fun ctx -> E.fig18 ctx.engine fermi ctx.input_apps)
  ; ( "fig19"
    , fun ctx ->
        let t, _ = E.fig13 ~backend:ctx.backend ctx.engine fermi ctx.insensitive in
        { t with E.title = "Fig 19: resource-insensitive applications" } )
  ; ("fig20", fun ctx -> E.fig20 ctx.engine fermi ctx.sensitive)
  ; ("energy", fun ctx -> E.energy (comparisons ctx))
  ; ("overhead", fun ctx -> E.overhead ctx.engine fermi ctx.sensitive)
  ; ( "dyn-tlp"
    , fun ctx ->
        E.dynamic_tlp ctx.engine fermi (List.map find [ "KMN"; "STM"; "SPMV"; "CFD" ]) )
  ; ("ext-bypass", fun ctx -> E.extension_bypass ctx.engine fermi (find "CFD"))
  ; ( "abl-sched"
    , fun ctx ->
        E.ablation_scheduler ctx.engine fermi (List.map find [ "CFD"; "KMN"; "STM" ]) )
  ; ("abl-chunk", fun ctx -> E.ablation_chunk ctx.engine fermi (find "STE") ~reg:40)
  ; ("gpu-scale", fun ctx -> E.gpu_scaling ctx.engine fermi (find "KMN") ~tlp:2)
  ; ("abl-alloc", fun ctx -> E.ablation_allocator ctx.engine fermi (find "CFD") ~reg:48)
  ; ("abl-type", fun ctx -> E.ablation_type_strict (ctx.sensitive @ ctx.insensitive))
  ; ("scalar", fun ctx -> E.scalarization fermi (ctx.sensitive @ ctx.insensitive))
  ]

(* ---------- driver ---------- *)

let () =
  let fast = ref false in
  let only = ref [] in
  let jobs = ref 1 in
  let replay = ref true in
  let backend = ref Machine.Backend.Ptx in
  let spec =
    [ ("--fast", Arg.Set fast, " reduced application sets")
    ; ( "--only"
      , Arg.String (fun s -> only := String.split_on_char ',' s)
      , "IDS comma-separated experiment ids (e.g. fig13,tab1)" )
    ; ( "--jobs"
      , Arg.Set_int jobs
      , "N fan independent allocations/simulations over N domains (default 1)" )
    ; ( "--no-replay"
      , Arg.Clear replay
      , " run every simulation cold through the functional front-end \
         (default: record each launch's trace once and replay it across \
         timing points)" )
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
    "bench/main.exe [--fast] [--only ids] [--jobs N] [--no-replay] \
     [--backend ptx|machine]";
  if !jobs < 1 then begin
    prerr_endline "bench: --jobs must be >= 1";
    exit 2
  end;
  List.iter
    (fun id ->
       if not (List.mem_assoc id experiments) then begin
         Printf.eprintf "bench: unknown experiment id %S (see --help)\n" id;
         exit 2
       end)
    !only;
  let engine = Crat.Engine.create ~jobs:!jobs ~replay:!replay () in
  let ctx = make_ctx ~fast:!fast ~backend:!backend engine in
  let fmt = Format.std_formatter in
  let t_all = Unix.gettimeofday () in
  List.iter
    (fun (id, run) ->
       if !only = [] || List.mem id !only then begin
         let t0 = Unix.gettimeofday () in
         Format.fprintf fmt "==== %s ====@." id;
         E.pp_table fmt (run ctx);
         Format.fprintf fmt "(%.1fs)@.@." (Unix.gettimeofday () -. t0)
       end)
    experiments;
  Format.fprintf fmt "total %.1fs; %a@."
    (Unix.gettimeofday () -. t_all)
    Crat.Engine.pp_report (Crat.Engine.report engine)
