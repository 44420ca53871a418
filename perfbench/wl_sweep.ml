(* Workload "sweep": the paper's evaluation. Crat.Experiments.compare_app
   (MaxTLP, OptTLP, CRAT-local, CRAT) over a stratified seeded draw of
   suite apps, on both register-file backends, with a fresh engine per
   pass (replay on, no store, one domain). Functional execution and the
   timing model do most of the work; store, daemon and Refinterp do
   none. *)

module App = Workloads.App
module B = Crat.Baselines
module E = Crat.Experiments

let cfg = Gpusim.Config.fermi

(* A pass keeps its engine only until it has been checked: the engine
   holds every trace of the pass, and keeping it would make each pass
   inflate the next one's peak memory. *)
type pass =
  { wall : float
  ; op_ms : float list
  ; comparisons : (Machine.Backend.t * E.comparison) list
  ; mutable engine : Crat.Engine.t option
  ; mutable report : Crat.Engine.report option
  }

let run_pass tally ops =
  let engine = Crat.Engine.create ~jobs:1 () in
  let t0 = Measure.now () in
  let results =
    Span.with_ "pass:sweep" (fun () ->
      List.filter_map
        (fun (app, backend) ->
           let r, dt =
             Measure.time (fun () ->
               Measure.attempt tally
                 (Printf.sprintf "compare_app %s/%s" app.App.abbr
                    (Machine.Backend.to_string backend))
                 (fun () ->
                    Span.with_ "core:Experiments.compare_app" (fun () ->
                      E.compare_app ~backend engine cfg app)))
           in
           Option.map (fun c -> (backend, c, dt)) r)
        ops)
  in
  { wall = Measure.now () -. t0
  ; op_ms = List.map (fun (_, _, dt) -> dt *. 1000.0) results
  ; comparisons = List.map (fun (b, c, _) -> (b, c)) results
  ; engine = Some engine
  ; report = None
  }

let evaluated (c : E.comparison) = [ c.E.max_tlp; c.E.opt_tlp; c.E.crat_local; c.E.crat ]

let launch_of app (e : B.evaluated) =
  App.launch app ~kernel:e.B.alloc.Regalloc.Allocator.kernel ~input:e.B.input ()

(* The distinct simulated points of a pass, keyed by Engine.sim_key. *)
let points p =
  let engine = Option.get p.engine in
  List.concat_map
    (fun (_, (c : E.comparison)) ->
       List.map
         (fun (e : B.evaluated) ->
            let l = launch_of c.E.app e in
            (Crat.Engine.sim_key engine l cfg ~tlp:e.B.tlp, c.E.app, l, e))
         (evaluated c))
    p.comparisons
  |> Layers.dedup (fun (k, _, _, _) -> k)

let speedup_geomean p =
  Measure.geomean
    (List.map (fun (_, c) -> E.speedup_vs_opt c c.E.crat) p.comparisons)

(* Counters that are pure functions of the draw; needs the pass's engine. *)
let counters p =
  let r = Crat.Engine.report (Option.get p.engine) in
  let pts = points p in
  Measure.
    [ row ~det:true "sim_cycles" "cycles"
        (float_of_int
           (List.fold_left (fun s (_, _, _, e) -> s + B.cycles e) 0 pts))
    ; count "distinct_points" (List.length pts)
    ; row ~det:true "crat_speedup_geomean" "ratio" (speedup_geomean p)
    ; count "engine.sim_runs" r.Crat.Engine.sim_runs
    ; count "engine.sim_hits" r.Crat.Engine.sim_hits
    ; count "engine.trace_records" r.Crat.Engine.trace_records
    ; count "engine.trace_replays" r.Crat.Engine.trace_replays
    ; count "engine.alloc_runs" r.Crat.Engine.alloc_runs
    ; count "engine.alloc_hits" r.Crat.Engine.alloc_hits
    ; count "spill_bytes"
        (List.fold_left
           (fun s (_, c) ->
              List.fold_left
                (fun s e -> s + Regalloc.Allocator.spill_bytes e.B.alloc)
                s (evaluated c))
           0 p.comparisons)
    ]

let run tally ~seed ~seconds ~trace ~dir =
  let ops = Draw.sweep seed in
  let pool = Draw.pool (List.map fst Draw.sweep_strata) in
  let setup, setup_s = Measure.setup_sampler (fun () -> Measure.build_inputs pool) in
  (* Cold reference answers, one per distinct point (replay off, store
     bypassed), computed once per run and compared with every pass. *)
  let reference = Hashtbl.create 32 in
  let ref_engine = Crat.Engine.create ~jobs:1 ~replay:false () in
  let first = ref None in
  let check_pass p =
    Measure.check tally
      (List.length p.comparisons = List.length ops)
      "sweep pass completed %d of %d comparisons" (List.length p.comparisons)
      (List.length ops);
    List.iter
      (fun (k, (app : App.t), l, (e : B.evaluated)) ->
         let cold =
           match Hashtbl.find_opt reference k with
           | Some st -> st
           | None ->
             let st = Crat.Engine.simulate ~cache:false ref_engine l cfg ~tlp:e.B.tlp in
             Hashtbl.add reference k st;
             st
         in
         Layers.check_stats tally ~expected:cold e.B.stats
           "%s %s reg=%d tlp=%d: engine stats differ from a cold re-simulation"
           app.App.abbr e.B.label e.B.reg e.B.tlp)
      (points p);
    let g = speedup_geomean p in
    Measure.check tally (Float.is_finite g && g > 0.0) "crat geomean %g" g;
    let c = counters p in
    (match !first with
     | None -> first := Some c
     | Some f -> Measure.check_repeat tally ~what:"sweep" f c);
    c
  in
  let last_counters = ref [] in
  let pass () =
    let p = run_pass tally ops in
    let traced = Span.enabled () in
    last_counters := check_pass p;
    (* the traced pass is decomposed below: keep its points *)
    let pts =
      if traced then
        List.map
          (fun (_, app, _, (e : B.evaluated)) ->
             { Layers.app
             ; kernel = e.B.alloc.Regalloc.Allocator.kernel
             ; cfg
             ; tlp = e.B.tlp
             ; expected = Some e.B.stats
             })
          (points p)
      else []
    in
    p.report <- Option.map Crat.Engine.report p.engine;
    p.engine <- None;
    (p, pts)
  in
  let off, on = Measure.loop ~setup ~seconds ~traced:trace pass in
  let passes = List.map fst (off @ on) in
  let walls l = List.map (fun (p, _) -> p.wall) l in
  let wall_s = Measure.median (walls off) in
  let cycles = Measure.find !last_counters "sim_cycles" in
  let p50 = Measure.median (List.concat_map (fun p -> p.op_ms) passes) in
  let pct, tail_ms, n = Measure.tail (List.concat_map (fun p -> p.op_ms) passes) in
  let wrows = Measure.wall_rows ~walls:(walls off) ~build_s:(setup_s ()) in
  let e2e =
    Measure.
      [ row "setup_s" "s" (setup_s ())
      ; List.hd wrows
      ; row "peak_rss_mb" "MB" (peak_rss_mb "self")
      ]
  in
  let report =
    List.tl wrows
    @ Measure.
      [ row "sim_cycles_per_s" "cycles/s" (cycles /. wall_s)
      ; row "op_p50_ms" "ms" p50 ~note:"one compare_app call"
      ; row "op_tail_ms" "ms" tail_ms ~note:(Printf.sprintf "p%.0f of %d" pct n)
      ; row "passes" "count" (float_of_int (List.length passes))
          ~note:
            ("draw: "
             ^ String.concat " "
                 (List.map
                    (fun ((a : App.t), b) ->
                       a.App.abbr ^ "/" ^ Machine.Backend.to_string b)
                    ops))
      ]
    @ !last_counters
  in
  let layers =
    if not trace then ([], [])
    else begin
      let on_pass, pts = List.hd (List.rev on) in
      let subjects =
        List.map
          (fun (backend, (c : E.comparison)) ->
             { Layers.sapp = c.E.app
             ; backend
             ; cfg_of = cfg
             ; regs = List.map (fun e -> e.B.reg) (evaluated c)
             })
          on_pass.comparisons
      in
      let spans, rows =
        Layers.traced (fun () ->
          Layers.run tally ?report:on_pass.report ~dir subjects pts)
      in
      ( spans
      , Measure.row "trace.overhead" "ratio"
          (Measure.overhead ~off:(walls off) ~on:(walls on))
        :: rows )
    end
  in
  (e2e, report, layers)
