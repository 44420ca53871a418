(* Workload "check": the CI gate sweep. The library bodies of `crat
   verify`, `lint --validate`, `sanitize --validate` and `equiv` over a
   stratified seeded draw of suite apps, plus the seeded known-bad
   corpora. The static layers and the Refinterp replays do the work;
   Interp, Sm and the store do almost none. *)

module App = Workloads.App
module D = Verify.Diagnostic
module Gate = Verify.Gate

let cfg = Gpusim.Config.fermi

type counts =
  { mutable errors : int
  ; mutable warnings : int
  ; mutable advisories : int
  ; mutable proven_safe : int
  ; mutable corpus_caught : int
  ; equiv : Layers.acc  (** proofs and unknowns of the equivalence checks *)
  }

let tally_diags c diags =
  c.errors <- c.errors + List.length (D.errors diags);
  c.warnings <- c.warnings + List.length (D.warnings diags)

let gate_app tally c (app : App.t) =
  let abbr = app.App.abbr in
  let block_size = app.App.block_size in
  let k = Span.with_ "workloads:App.kernel" (fun () -> App.kernel app) in
  let verify stage kernel =
    let d =
      Span.with_ "verify:Checker.check_kernel" (fun () ->
        Verify.Checker.check_kernel ~block_size kernel)
    in
    tally_diags c d;
    Layers.no_errors tally (abbr ^ " " ^ stage) d
  in
  verify "pre-opt" k;
  let k', _ = Span.with_ "opt:Pipeline.run" (fun () -> Ptxopt.Pipeline.run ~block_size k) in
  verify "post-opt" k';
  let a =
    Span.with_ "regalloc:Allocator.allocate" (fun () ->
      Regalloc.Allocator.allocate ~block_size ~reg_limit:app.App.default_regs k)
  in
  let d =
    Span.with_ "verify:Checker.check_allocation" (fun () ->
      Verify.Checker.check_allocation a)
  in
  tally_diags c d;
  Layers.no_errors tally (abbr ^ " post-alloc") d;
  let report, failures =
    Span.with_ "refinterp:Lint.validate" (fun () -> Crat.Lint.validate ~cfg app)
  in
  c.advisories <- c.advisories + List.length report.Verify.Advisor.diags;
  Measure.check tally (failures = []) "%s lint --validate: %s" abbr
    (String.concat "; " failures);
  List.iter
    (fun (sr : Crat.Sanitize.stage_report) ->
       let r = sr.Crat.Sanitize.report in
       c.proven_safe <- c.proven_safe + r.Verify.Sanitize.discharge.Verify.Sanitize.safe;
       tally_diags c r.Verify.Sanitize.diags;
       Layers.no_errors tally (abbr ^ " sanitize " ^ sr.Crat.Sanitize.stage) r.Verify.Sanitize.diags)
    (Span.with_ "verify:Sanitize.stages" (fun () -> Crat.Sanitize.stages app));
  let dyn =
    Span.with_ "refinterp:Sanitize.validate" (fun () -> Crat.Sanitize.validate ~cfg app)
  in
  Measure.check tally (dyn.Crat.Sanitize.failures = []) "%s sanitize --validate: %s"
    abbr (String.concat "; " dyn.Crat.Sanitize.failures);
  let l = Span.with_ "machine:Lower.run" (fun () -> Machine.Lower.run a) in
  List.iter
    (fun (name, check) -> Layers.gate tally c.equiv ~what:abbr ~name check)
    [ ("equiv:Gate.Equiv", Gate.Equiv { block_size; num_blocks = None; left = k; right = k' })
    ; ("equiv:Gate.Equiv_alloc", Gate.Equiv_alloc a)
    ; ("equiv:Gate.Equiv_lower", Gate.Equiv_lower l)
    ]

(* Every seeded known-bad case must be caught with its expected code
   (and an equivalence refutation must come with a witness that
   replays). *)
let corpora tally c =
  List.iter
    (fun (case : Verify.Corpus.case) ->
       let d =
         Span.with_ "verify:Corpus.diagnostics_of" (fun () ->
           Verify.Corpus.diagnostics_of case)
       in
       let hit = Layers.count_codes case.Verify.Corpus.expect d > 0 in
       if hit then c.corpus_caught <- c.corpus_caught + 1;
       Measure.check tally hit "verify corpus %s: expected %s not raised"
         case.Verify.Corpus.label case.Verify.Corpus.expect)
    (Verify.Corpus.cases ());
  List.iter
    (fun (case : Equiv.Corpus.case) ->
       let o = Span.with_ "equiv:Corpus.outcome_of" (fun () -> Equiv.Corpus.outcome_of case) in
       let hit =
         Layers.count_codes case.Equiv.Corpus.expect (Verify.Equiv_check.diagnostics_of o) > 0
       in
       let replays =
         match o.Equiv.Check.verdict with
         | Equiv.Check.Refuted w ->
           let left, right = Equiv.Corpus.runners case in
           Equiv.Witness.replay ~left ~right w <> None
         | _ -> false
       in
       if hit && replays then c.corpus_caught <- c.corpus_caught + 1;
       Measure.check tally (hit && replays)
         "equiv corpus %s: expected %s with a replaying witness"
         case.Equiv.Corpus.label case.Equiv.Corpus.expect)
    (Equiv.Corpus.cases ())

type pass =
  { wall : float
  ; op_ms : float list
  ; counts : counts
  }

let run_pass tally apps =
  let c =
    { errors = 0; warnings = 0; advisories = 0; proven_safe = 0; corpus_caught = 0
    ; equiv = Layers.acc () }
  in
  let t0 = Measure.now () in
  let op_ms =
    Span.with_ "pass:check" (fun () ->
      let ms =
        List.map
          (fun (app : App.t) ->
             let (), dt =
               Measure.time (fun () ->
                 ignore (Measure.attempt tally ("gates " ^ app.App.abbr) (fun () ->
                   gate_app tally c app)))
             in
             dt *. 1000.0)
          apps
      in
      ignore (Measure.attempt tally "corpora" (fun () -> corpora tally c));
      ms)
  in
  { wall = Measure.now () -. t0; op_ms; counts = c }

let counters p =
  let c = p.counts in
  Measure.
    [ count "diag.errors" c.errors
    ; count "diag.warnings" c.warnings
    ; count "lint.advisories" c.advisories
    ; count "sanitize.proven_safe" c.proven_safe
    ; count "equiv.proved" c.equiv.Layers.proved
    ; count "equiv.unknown" c.equiv.Layers.unknown
    ; count "corpus.caught" c.corpus_caught
    ]

let run tally ~seed ~seconds ~trace ~dir =
  let apps = Draw.check seed in
  let setup, setup_s =
    Measure.setup_sampler (fun () -> Measure.build_inputs (Draw.pool Draw.check_strata))
  in
  let first = ref None in
  let pass () =
    let p = run_pass tally apps in
    let c = counters p in
    (match !first with
     | None -> first := Some c
     | Some f -> Measure.check_repeat tally ~what:"check" f c);
    p
  in
  let off, on = Measure.loop ~setup ~seconds ~traced:trace pass in
  let passes = off @ on in
  let walls l = List.map (fun p -> p.wall) l in
  let ops = List.concat_map (fun p -> p.op_ms) passes in
  let pct, tail_ms, n = Measure.tail ops in
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
      [ row "op_p50_ms" "ms" (median ops) ~note:"one app's gate battery"
      ; row "op_tail_ms" "ms" tail_ms ~note:(Printf.sprintf "p%.0f of %d" pct n)
      ; row "passes" "count" (float_of_int (List.length passes))
          ~note:("draw: " ^ String.concat " " (List.map (fun (a : App.t) -> a.App.abbr) apps))
      ]
    @ counters (List.hd passes)
  in
  let layers =
    if not trace then ([], [])
    else begin
      let subjects =
        List.map
          (fun (app : App.t) ->
             { Layers.sapp = app
             ; backend = Machine.Backend.Ptx
             ; cfg_of = cfg
             ; regs = [ app.App.default_regs ]
             })
          apps
      in
      (* the default allocated launch of each app, at its occupancy TLP *)
      let pts =
        List.map
          (fun (app : App.t) ->
             let a =
               Regalloc.Allocator.allocate ~block_size:app.App.block_size
                 ~reg_limit:app.App.default_regs (App.kernel app)
             in
             let r = Crat.Resource.analyze cfg app in
             { Layers.app
             ; kernel = a.Regalloc.Allocator.kernel
             ; cfg
             ; tlp = max 1 r.Crat.Resource.max_tlp
             ; expected = None
             })
          apps
      in
      let spans, rows = Layers.traced (fun () -> Layers.run tally ~dir subjects pts) in
      ( spans
      , Measure.row "trace.overhead" "ratio"
          (Measure.overhead ~off:(walls off) ~on:(walls on))
        :: rows )
    end
  in
  (e2e, report, layers)
