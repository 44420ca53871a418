module App = Workloads.App
module San = Verify.Sanitize
module Sancheck = Gpusim.Sancheck

type stage_report =
  { stage : string
  ; report : San.report
  }

let stage_names = [ "pre-opt"; "post-opt"; "post-alloc" ]

let stages ?regs ?(spare = 0) (app : App.t) =
  let block_size = app.App.block_size in
  let regs = Option.value ~default:app.App.default_regs regs in
  let shared_policy = if spare > 0 then `Spare spare else `Off in
  let k = App.kernel app in
  let k', _ = Ptxopt.Pipeline.run ~block_size k in
  let a =
    Regalloc.Allocator.allocate ~shared_policy ~block_size ~reg_limit:regs k
  in
  [ { stage = "pre-opt"; report = San.sanitize_kernel ~block_size k }
  ; { stage = "post-opt"; report = San.sanitize_kernel ~block_size k' }
  ; { stage = "post-alloc"
    ; report =
        San.sanitize_kernel ~block_size a.Regalloc.Allocator.kernel
    }
  ]

type dynamic =
  { report : San.report
  ; counters : Sancheck.counters
  ; failures : string list
  }

let int_params ps =
  List.filter_map
    (fun (n, v) ->
       match v with
       | Gpusim.Value.I x -> Some (n, x)
       | Gpusim.Value.F _ -> None)
    ps

let replay report launch =
  let rt = Sancheck.runtime (San.mask report) in
  Gpusim.Emulator.run ~sanitize:rt launch;
  rt.Sancheck.counters

let validate ?(cfg = Gpusim.Config.fermi) ?input (app : App.t) =
  let input =
    match input with
    | Some i -> i
    | None -> App.default_input app
  in
  let kernel = App.kernel app in
  let params = App.params app input in
  let report =
    San.sanitize_kernel ~block_size:app.App.block_size
      ~num_blocks:input.App.num_blocks ~params:(int_params params) kernel
  in
  let counters =
    replay report
      (Gpusim.Launch.make ~warp_size:cfg.Gpusim.Config.warp_size ~kernel
         ~block_size:app.App.block_size ~num_blocks:input.App.num_blocks
         ~params (App.memory app input))
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  List.iter
    (fun d ->
       if Verify.Diagnostic.is_error d then
         fail "%s: static %s" app.App.abbr (Verify.Diagnostic.to_string d))
    report.San.diags;
  List.iter
    (fun (pc, (s : Sancheck.stat)) ->
       if s.Sancheck.violations > 0 then
         match s.Sancheck.first with
         | Some v ->
           fail
             "%s[%d]: %d out-of-bounds lane access(es); first: lane %d tid \
              %d at offset %Ld"
             app.App.abbr pc s.Sancheck.violations v.Sancheck.v_lane
             v.Sancheck.v_tid v.Sancheck.v_addr
         | None ->
           fail "%s[%d]: %d out-of-bounds lane access(es)" app.App.abbr pc
             s.Sancheck.violations)
    (Sancheck.stats counters);
  { report; counters; failures = List.rev !failures }
