(* The decomposition pass of a traced run: the distinct apps, allocations
   and launches a pass evaluated are sent once more, one call at a time,
   to each layer's own public entry point, each call inside a span. Self
   time per layer comes from the spans; work counts come from the calls'
   results. The simulation statistics it produces must be bit-identical
   to the answers of the measured pass. *)

module App = Workloads.App
module Gate = Verify.Gate
module D = Verify.Diagnostic

(* One simulated point of a pass: the allocated kernel it ran, its
   timing configuration and TLP, and the pass's answer when it had one. *)
type point =
  { app : App.t
  ; kernel : Ptx.Kernel.t
  ; cfg : Gpusim.Config.t
  ; tlp : int
  ; expected : Gpusim.Stats.t option
  }

type subject =
  { sapp : App.t
  ; backend : Machine.Backend.t
  ; cfg_of : Gpusim.Config.t  (** configuration for the core layer calls *)
  ; regs : int list  (** register limits the pass allocated at *)
  }

let fingerprint (st : Gpusim.Stats.t) = Digest.string (Marshal.to_string st [])

(* The output check shared by every workload: an answer must be
   bit-identical to the reference. *)
let check_stats tally ~expected got fmt =
  Measure.check tally (fingerprint expected = fingerprint got) fmt

let dedup key l =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun x ->
       let k = key x in
       if Hashtbl.mem seen k then false
       else (Hashtbl.add seen k (); true))
    l

let count_codes code diags =
  List.length (List.filter (fun d -> d.D.code = code) diags)

(* Counters accumulated over the decomposition. *)
type acc =
  { mutable folded : int
  ; mutable eliminated : int
  ; mutable allocs : int
  ; mutable rounds : int
  ; mutable spill_bytes : int
  ; mutable scalarized : int
  ; mutable v_errors : int
  ; mutable v_warnings : int
  ; mutable proved : int
  ; mutable unknown : int
  ; mutable warp_instrs : int
  ; mutable in_sim : float
  ; mutable cycles : int
  ; mutable records : int
  ; mutable replays : int
  ; mutable events : int
  ; mutable trace_bytes : int
  }

let acc () =
  { folded = 0; eliminated = 0; allocs = 0; rounds = 0; spill_bytes = 0
  ; scalarized = 0; v_errors = 0; v_warnings = 0; proved = 0; unknown = 0
  ; warp_instrs = 0; in_sim = 0.0; cycles = 0; records = 0; replays = 0
  ; events = 0; trace_bytes = 0 }

(* An error-severity diagnostic fails the check. *)
let no_errors tally what diags =
  let errs = D.errors diags in
  Measure.check tally (errs = []) "%s: %d error(s)%s" what (List.length errs)
    (match errs with d :: _ -> " e.g. " ^ D.to_string d | [] -> "")

(* Run one gate check inside a span: an error fails the check, and the
   diagnostics are counted into [acc] (equivalence proofs and unknowns,
   or verifier errors and warnings). *)
let gate tally acc ~what ~name check =
  let diags = Span.with_ name (fun () -> Gate.diagnostics_of check) in
  let errs = List.length (D.errors diags) in
  no_errors tally (what ^ " " ^ name) diags;
  (match check with
   | Gate.Equiv _ | Gate.Equiv_alloc _ | Gate.Equiv_lower _ ->
     acc.proved <- acc.proved + count_codes "E101" diags;
     acc.unknown <- acc.unknown + count_codes "E301" diags
   | _ ->
     acc.v_errors <- acc.v_errors + errs;
     acc.v_warnings <- acc.v_warnings + List.length (D.warnings diags))

let per_app tally acc engine (s : subject) =
  let app = s.sapp in
  let block_size = app.App.block_size in
  let k = Span.with_ "workloads:App.kernel" (fun () -> App.kernel app) in
  let k', rep =
    Span.with_ "opt:Pipeline.run" (fun () -> Ptxopt.Pipeline.run ~block_size k)
  in
  acc.folded <- acc.folded + rep.Ptxopt.Pipeline.folded;
  acc.eliminated <- acc.eliminated + rep.Ptxopt.Pipeline.eliminated;
  ignore (Span.with_ "absint:Lint.lint" (fun () -> Crat.Lint.lint ~cfg:s.cfg_of app));
  let r =
    Span.with_ "absint:Resource.analyze" (fun () ->
      Crat.Resource.analyze ~backend:s.backend s.cfg_of app)
  in
  let uniform =
    Span.with_ "machine:Scalarize.run" (fun () ->
      Machine.Scalarize.run ~block_size k')
  in
  acc.scalarized <- acc.scalarized + Ptx.Reg.Set.cardinal uniform;
  gate tally acc ~what:app.App.abbr ~name:"verify:Gate.Kernel"
    (Gate.Kernel { block_size = Some block_size; kernel = k });
  gate tally acc ~what:app.App.abbr ~name:"verify:Gate.Sanitize"
    (Gate.Sanitize { block_size = Some block_size; kernel = k });
  gate tally acc ~what:app.App.abbr ~name:"equiv:Gate.Equiv"
    (Gate.Equiv { block_size; num_blocks = None; left = k; right = k' });
  let _, lint_fail =
    Span.with_ "refinterp:Lint.validate" (fun () -> Crat.Lint.validate ~cfg:s.cfg_of app)
  in
  Measure.check tally (lint_fail = []) "%s: lint claims violated: %s" app.App.abbr
    (String.concat "; " lint_fail);
  let dyn =
    Span.with_ "refinterp:Sanitize.validate" (fun () ->
      Crat.Sanitize.validate ~cfg:s.cfg_of app)
  in
  Measure.check tally (dyn.Crat.Sanitize.failures = []) "%s: sanitizer: %s"
    app.App.abbr (String.concat "; " dyn.Crat.Sanitize.failures);
  ignore
    (Span.with_ "core:Opttlp.profile" (fun () ->
       Crat.Opttlp.profile engine s.cfg_of app ~max_tlp:r.Crat.Resource.max_tlp ()));
  ignore
    (Span.with_ "core:Optimizer.plan" (fun () ->
       Crat.Optimizer.plan ~backend:s.backend engine s.cfg_of app));
  List.iter
    (fun reg_limit ->
       let a =
         Span.with_ "regalloc:Allocator.allocate" (fun () ->
           Regalloc.Allocator.allocate ~block_size ~reg_limit k)
       in
       acc.allocs <- acc.allocs + 1;
       acc.rounds <- acc.rounds + a.Regalloc.Allocator.rounds;
       acc.spill_bytes <- acc.spill_bytes + Regalloc.Allocator.spill_bytes a;
       gate tally acc ~what:app.App.abbr ~name:"verify:Gate.Allocation" (Gate.Allocation a);
       let l = Span.with_ "machine:Lower.run" (fun () -> Machine.Lower.run a) in
       gate tally acc ~what:app.App.abbr ~name:"verify:Gate.Machine" (Gate.Machine l);
       gate tally acc ~what:app.App.abbr ~name:"equiv:Gate.Equiv_alloc" (Gate.Equiv_alloc a);
       gate tally acc ~what:app.App.abbr ~name:"equiv:Gate.Equiv_lower" (Gate.Equiv_lower l))
    (List.sort_uniq compare s.regs)

(* All points of one launch: emulate it, record its trace once, round
   the trace through bytes and the store, replay every point. *)
let per_launch tally acc store (pts : point list) =
  let p0 = List.hd pts in
  let app = p0.app in
  let input = App.default_input app in
  let launch =
    Span.with_ "workloads:App.launch" (fun () ->
      App.launch app ~kernel:p0.kernel ~input ())
  in
  let fresh tlp =
    { launch with
      Gpusim.Launch.memory = Gpusim.Memory.copy launch.Gpusim.Launch.memory
    ; tlp_limit = tlp
    }
  in
  Span.with_ "interp:Emulator.run" (fun () -> Gpusim.Emulator.run (fresh p0.tlp));
  let tr = Gpusim.Replay.create launch in
  let recorded, t_record =
    Measure.time (fun () ->
      Span.with_ "record:Sm.run~record" (fun () ->
        Gpusim.Sm.run ~record:tr p0.cfg (fresh p0.tlp)))
  in
  Gpusim.Replay.finish tr;
  acc.records <- acc.records + 1;
  acc.warp_instrs <- acc.warp_instrs + recorded.Gpusim.Stats.warp_instrs;
  acc.events <- acc.events + Gpusim.Replay.events tr;
  let bytes = Span.with_ "replay:Replay.to_bytes" (fun () -> Gpusim.Replay.to_bytes tr) in
  acc.trace_bytes <- acc.trace_bytes + String.length bytes;
  let key = Gpusim.Replay.launch_key launch in
  (* the engine's write-through order: look up, miss, record, put *)
  ignore (Span.with_ "store:Store.get" (fun () -> Store.get store ~kind:"trace" ~key));
  Span.with_ "store:Store.put" (fun () -> Store.put store ~kind:"trace" ~key bytes);
  let back = Span.with_ "store:Store.get" (fun () -> Store.get store ~kind:"trace" ~key) in
  Measure.check tally (back = Some bytes) "%s: store returned other trace bytes"
    app.App.abbr;
  match Span.with_ "replay:Replay.of_bytes" (fun () -> Gpusim.Replay.of_bytes bytes) with
  | None -> Measure.check tally false "%s: trace bytes do not unmarshal" app.App.abbr
  | Some tr' ->
    List.iteri
      (fun i p ->
         let st, t_replay =
           Measure.time (fun () ->
             Span.with_ "sm:Sm.run~replay" (fun () ->
               Gpusim.Sm.run ~replay:tr' p.cfg (Gpusim.Launch.with_tlp launch p.tlp)))
         in
         acc.replays <- acc.replays + 1;
         acc.cycles <- acc.cycles + st.Gpusim.Stats.cycles;
         if i = 0 then begin
           acc.in_sim <- acc.in_sim +. Float.max 0.0 (t_record -. t_replay);
           check_stats tally ~expected:recorded st
             "%s: replayed stats differ from the recording run" app.App.abbr
         end;
         match p.expected with
         | Some e ->
           check_stats tally ~expected:e st
             "%s tlp=%d: decomposition stats differ from the measured pass"
             app.App.abbr p.tlp
         | None -> ())
      pts

(* Daemon framing with no compute: Stats round trips on a store-less
   daemon. Used by workloads whose passes bypass the daemon. *)
let serve_probe tally dir =
  let socket = Filename.concat dir "probe.sock" in
  Proc.with_daemon ~socket (fun _ ->
    match Serve.Client.connect ~socket () with
    | Error e ->
      Measure.check tally false "probe connect: %s" e;
      (0, [])
    | Ok c ->
      Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () ->
        let rtts =
          List.init 20 (fun _ ->
            let r, dt =
              Measure.time (fun () ->
                Span.with_ "serve:Client.server_stats" (fun () ->
                  Serve.Client.server_stats c))
            in
            Measure.check tally (Result.is_ok r) "probe stats request failed";
            dt *. 1000.0)
        in
        match Serve.Client.server_stats c with
        | Ok s -> (s.Serve.Protocol.requests, rtts)
        | Error e ->
          Measure.check tally false "probe stats: %s" e;
          (0, rtts)))

type serve_layer =
  { requests : int
  ; dedup_hits : int
  ; rtt_ms : float list
  }

(* Run the decomposition. [report] is the engine report the engine rows
   show (the pass's own for sweep; else the decomposition's engine); [serve] the daemon figures of a
   serve pass, or None to probe a daemon here. Returns every span
   recorded so far (traced passes first) and the per-layer rows, which
   count the decomposition's spans only. *)
let run tally ?report ?serve ~dir subjects points =
  let acc = acc () in
  let pass_spans = Span.take () in
  let core_engine = Crat.Engine.create ~jobs:1 () in
  let subjects = dedup (fun s -> (s.sapp.App.abbr, s.backend, s.regs)) subjects in
  List.iter
    (fun s ->
       ignore
         (Measure.attempt tally ("decompose " ^ s.sapp.App.abbr) (fun () ->
            per_app tally acc core_engine s)))
    subjects;
  let store = Store.open_ (Filename.concat dir "decompose-store") in
  let points =
    dedup
      (fun p ->
         ( Digest.string (Marshal.to_string p.kernel [])
         , p.app.App.abbr, Marshal.to_string p.cfg [], p.tlp ))
      points
  in
  let launches = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun p ->
       let k = (p.app.App.abbr, Digest.string (Marshal.to_string p.kernel [])) in
       match Hashtbl.find_opt launches k with
       | Some l -> Hashtbl.replace launches k (p :: l)
       | None ->
         Hashtbl.add launches k [ p ];
         order := k :: !order)
    points;
  List.iter
    (fun k ->
       let pts = List.rev (Hashtbl.find launches k) in
       ignore
         (Measure.attempt tally ("decompose launch " ^ fst k) (fun () ->
            per_launch tally acc store pts)))
    (List.rev !order);
  let sst = Store.stats store in
  Store.close store;
  let serve =
    match serve with
    | Some s -> s
    | None ->
      let requests, rtt_ms = serve_probe tally dir in
      { requests; dedup_hits = 0; rtt_ms }
  in
  let spans = Span.take () in
  let by_layer = Span.self_by ~key:Span.layer spans in
  let by_name = Span.self_by ~key:Fun.id spans in
  let report =
    match report with Some r -> r | None -> Crat.Engine.report core_engine
  in
  let open Measure in
  let s ?note name = row ?note name "s" in
  let per_ms total n = if n = 0 then 0.0 else 1000.0 *. total /. float_of_int n in
  let puts = sst.Store.puts in
  ( pass_spans @ spans,
  [ s "workloads.build_s" (by_layer "workloads")
  ; s "opt.busy_s" (by_layer "opt")
  ; count "opt.folded" acc.folded
  ; count "opt.eliminated" acc.eliminated
  ; s "absint.busy_s" (by_layer "absint")
  ; count "regalloc.allocs" acc.allocs
  ; s "regalloc.busy_s" (by_layer "regalloc")
  ; count "regalloc.rounds" acc.rounds
  ; row ~det:true "regalloc.spill_bytes" "bytes" (float_of_int acc.spill_bytes)
  ; s "machine.busy_s" (by_layer "machine")
  ; count "machine.scalarized" acc.scalarized
  ; s "verify.kernel_s" (by_name "verify:Gate.Kernel")
  ; s "verify.allocation_s" (by_name "verify:Gate.Allocation")
  ; s "verify.machine_s" (by_name "verify:Gate.Machine")
  ; s "verify.sanitize_s" (by_name "verify:Gate.Sanitize")
  ; count "verify.errors" acc.v_errors
  ; count "verify.warnings" acc.v_warnings
  ; s "equiv.busy_s" (by_layer "equiv")
  ; count "equiv.proved" acc.proved
  ; count "equiv.unknown" acc.unknown
  ; count "interp.warp_instrs" acc.warp_instrs
  ; s "interp.busy_s" (by_layer "interp")
  ; row "interp.ns_per_warp_instr" "ns"
      (1e9 *. by_layer "interp" /. float_of_int (max 1 acc.warp_instrs))
  ; s ~note:"Sm.run ~record minus its replay" "interp.in_sim_s" acc.in_sim
  ; row ~det:true "sm.cycles" "cycles" (float_of_int acc.cycles)
  ; s "sm.busy_s" (by_layer "sm")
  ; row "sm.ns_per_cycle" "ns" (1e9 *. by_layer "sm" /. float_of_int (max 1 acc.cycles))
  ; count "replay.records" acc.records
  ; count "replay.replays" acc.replays
  ; count "replay.events" acc.events
  ; row ~det:true "replay.trace_bytes" "bytes" (float_of_int acc.trace_bytes)
  ; s "replay.marshal_s" (by_name "replay:Replay.to_bytes")
  ; s "replay.unmarshal_s" (by_name "replay:Replay.of_bytes")
  ; s "refinterp.busy_s" (by_layer "refinterp")
  ; s "core.resource_s" (by_name "absint:Resource.analyze")
  ; s "core.opttlp_s" (by_name "core:Opttlp.profile")
  ; s "core.plan_s" (by_name "core:Optimizer.plan")
  ; count "engine.sim_runs" report.Crat.Engine.sim_runs
  ; count "engine.sim_hits" report.Crat.Engine.sim_hits
  ; count "engine.alloc_runs" report.Crat.Engine.alloc_runs
  ; count "engine.alloc_hits" report.Crat.Engine.alloc_hits
  ; s "engine.job_wall_s" report.Crat.Engine.job_wall
  ; row ~det:true "store.bytes" "bytes" (float_of_int sst.Store.bytes)
  ; count "store.entries" sst.Store.entries
  ; count "store.hits" sst.Store.hits
  ; count "store.misses" sst.Store.misses
  ; row "store.put_ms" "ms" (per_ms (by_name "store:Store.put") puts)
  ; row "store.get_ms" "ms"
      (per_ms (by_name "store:Store.get") (sst.Store.hits + sst.Store.misses))
  ; count "serve.requests" serve.requests
  ; row "serve.dedup_hits" "count" (float_of_int serve.dedup_hits)
  ; row "serve.rtt_ms" "ms" (median serve.rtt_ms)
  ] )

let traced f =
  Span.enable true;
  Fun.protect ~finally:(fun () -> Span.enable false) f
