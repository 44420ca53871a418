(* Trace-driven replay: replayed statistics must be bit-identical to a
   cold run's across the full statdump fingerprint surface, and the
   trace store must key launches correctly. *)

module G = Gpusim

let fermi = G.Config.fermi
let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* record under one run, replay under the same point, compare every
   Stats.t field structurally (Stats.t is pure data, so (=) is
   bit-identity) *)
let record_then_replay ?scheduler cfg (l : G.Launch.t) =
  let tr = G.Replay.create l in
  let cold =
    G.Sm.run ?scheduler ~record:tr cfg
      { l with G.Launch.memory = G.Memory.copy l.G.Launch.memory }
  in
  G.Replay.finish tr;
  let replayed = G.Sm.run ?scheduler ~replay:tr cfg l in
  (cold, replayed, tr)

(* ---------- differential sweep (statdump fingerprint surface) ---------- *)

(* The same 88-config surface bench/statdump.ml fingerprints: every
   workload, default and r20-allocated builds, TLP 1 and 3, 2 blocks. *)
let test_replay_bit_identical_suite () =
  List.iter
    (fun (app : Workloads.App.t) ->
       let input =
         { (Workloads.App.default_input app) with Workloads.App.num_blocks = 2 }
       in
       let alloc =
         Regalloc.Allocator.allocate ~block_size:app.Workloads.App.block_size
           ~shared_policy:(`Spare 512) ~reg_limit:20
           (Workloads.App.kernel app)
       in
       List.iter
         (fun tlp ->
            List.iter
              (fun (variant, kernel) ->
                 let l =
                   match kernel with
                   | None -> Workloads.App.launch app ~tlp ~input ()
                   | Some k -> Workloads.App.launch app ~kernel:k ~tlp ~input ()
                 in
                 let cold, replayed, _ = record_then_replay fermi l in
                 check
                   (Printf.sprintf "%s/%s/tlp%d bit-identical"
                      app.Workloads.App.abbr variant tlp)
                   true (cold = replayed))
              [ ("default", None)
              ; ("r20", Some alloc.Regalloc.Allocator.kernel)
              ])
         [ 1; 3 ])
    Workloads.Suite.all

(* the trace is config- and TLP-independent: record once under fermi,
   replay under kepler and at a different TLP; each must equal its own
   cold run *)
let test_trace_valid_across_config_and_tlp () =
  let app = Workloads.Suite.find "CFD" in
  let input =
    { (Workloads.App.default_input app) with Workloads.App.num_blocks = 2 }
  in
  let l = Workloads.App.launch app ~tlp:1 ~input () in
  let tr = G.Replay.create l in
  let _ =
    G.Sm.run ~record:tr fermi
      { l with G.Launch.memory = G.Memory.copy l.G.Launch.memory }
  in
  G.Replay.finish tr;
  List.iter
    (fun (name, cfg, tlp) ->
       let lt = G.Launch.with_tlp l tlp in
       let cold =
         G.Sm.run cfg { lt with G.Launch.memory = G.Memory.copy lt.G.Launch.memory }
       in
       let replayed = G.Sm.run ~replay:tr cfg lt in
       check (name ^ " matches its cold run") true (cold = replayed))
    [ ("fermi tlp3", fermi, 3)
    ; ("kepler tlp1", G.Config.kepler, 1)
    ; ("kepler tlp2", G.Config.kepler, 2)
    ]

(* replay must not touch global memory *)
let test_replay_leaves_memory_untouched () =
  let app = Workloads.Suite.find "GAU" in
  let input =
    { (Workloads.App.default_input app) with Workloads.App.num_blocks = 2 }
  in
  let l = Workloads.App.launch app ~tlp:2 ~input () in
  let before = G.Memory.copy l.G.Launch.memory in
  let _, _, tr = record_then_replay fermi l in
  ignore tr;
  check "initial memory preserved through record+replay" true
    (G.Memory.equal before l.G.Launch.memory)

(* QCheck: random kernels through the same record/replay differential,
   reusing the fastpath harness generator *)
let prop_replay_random_kernels =
  QCheck.Test.make ~count:25 ~name:"replay bit-identical on random kernels"
    Testsupport.Gen.arbitrary_kernel (fun k ->
      let mem = G.Memory.create () in
      G.Memory.write_f32_array mem ~base:0x1000_0000L
        (Workloads.Data.uniform_f32 ~seed:11 1024);
      let l =
        G.Launch.make ~kernel:k ~block_size:64 ~num_blocks:2 ~tlp_limit:2
          ~params:
            [ ("inp", G.Value.I 0x1000_0000L)
            ; ("out", G.Value.I 0x2000_0000L)
            ; ("n", G.Value.of_int 1024)
            ]
          mem
      in
      let cold, replayed, _ = record_then_replay fermi l in
      cold = replayed)

(* ---------- launch keys ---------- *)

(* the trace key must ignore what the trace does not depend on (timing
   config, TLP) and separate what it does (params, initial memory) *)
let test_launch_key_discrimination () =
  let mk ?(param = 0x1000_0000L) ?(seed = 3) () =
    let mem = G.Memory.create () in
    G.Memory.write_f32_array mem ~base:0x1000_0000L
      (Workloads.Data.uniform_f32 ~seed 64);
    let app = Workloads.Suite.find "GAU" in
    let input = Workloads.App.default_input app in
    G.Launch.make
      ~kernel:(Workloads.App.kernel app)
      ~block_size:app.Workloads.App.block_size
      ~num_blocks:input.Workloads.App.num_blocks
      ~params:[ ("inp", G.Value.I param) ]
      mem
  in
  let base = G.Replay.launch_key (mk ()) in
  check "structural: same launch content, same key" true
    (G.Replay.launch_key (mk ()) = base);
  check "TLP not in the key" true
    (G.Replay.launch_key (G.Launch.with_tlp (mk ()) 5) = base);
  check "params in the key" true
    (G.Replay.launch_key (mk ~param:0x2000_0000L ()) <> base);
  check "initial memory in the key" true
    (G.Replay.launch_key (mk ~seed:4 ()) <> base)

(* a written-then-zeroed slot must digest like an unwritten one only if
   the value genuinely reads back identically; integer zero does *)
let test_memory_digest_canonical () =
  let a = G.Memory.create () in
  let b = G.Memory.create () in
  G.Memory.write b 0x100L Ptx.Types.U32 (G.Value.of_int 0);
  check "writing integer zero keeps the canonical digest" true
    (G.Memory.digest a = G.Memory.digest b);
  G.Memory.write b 0x100L Ptx.Types.U32 (G.Value.of_int 7);
  check "a real write changes the digest" true
    (G.Memory.digest a <> G.Memory.digest b)

(* ---------- the store through the engine ---------- *)

let small_app abbr =
  let a = Workloads.Suite.find abbr in
  let i = Workloads.App.default_input a in
  { a with
    Workloads.App.inputs =
      [ { i with Workloads.App.num_blocks = 2; ilabel = "replay-small" } ]
  }

(* one launch, two configs: the engine records once and replays once,
   answering both from the same trace *)
let test_engine_records_once_per_launch () =
  let e = Crat.Engine.create () in
  let a = small_app "KMN" in
  let l = Workloads.App.launch a ~input:(Workloads.App.default_input a) () in
  let s_f = Crat.Engine.simulate e l fermi ~tlp:1 in
  let s_k = Crat.Engine.simulate e l G.Config.kepler ~tlp:1 in
  let rep = Crat.Engine.report e in
  check_int "two simulations ran" 2 rep.Crat.Engine.sim_runs;
  check_int "one trace recorded" 1 rep.Crat.Engine.trace_records;
  check_int "second config replayed" 1 rep.Crat.Engine.trace_replays;
  (* and each equals a replay-free engine's answer *)
  let e0 = Crat.Engine.create ~replay:false () in
  check "fermi stats match a no-replay engine" true
    (s_f = Crat.Engine.simulate e0 l fermi ~tlp:1);
  check "kepler stats match a no-replay engine" true
    (s_k = Crat.Engine.simulate e0 l G.Config.kepler ~tlp:1)

(* different params/memory are different launches: no trace sharing *)
let test_engine_separates_launches () =
  let e = Crat.Engine.create () in
  let a = small_app "GAU" in
  let i1 = Workloads.App.default_input a in
  let i2 = { i1 with Workloads.App.num_blocks = i1.Workloads.App.num_blocks + 1 } in
  let _ = Crat.Engine.simulate e (Workloads.App.launch a ~input:i1 ()) fermi ~tlp:1 in
  let _ = Crat.Engine.simulate e (Workloads.App.launch a ~input:i2 ()) fermi ~tlp:1 in
  let rep = Crat.Engine.report e in
  check_int "each distinct launch records its own trace" 2
    rep.Crat.Engine.trace_records;
  check_int "nothing replayed across distinct launches" 0
    rep.Crat.Engine.trace_replays

(* a budget too small for any trace degrades to cold-only, never wrong *)
let test_store_budget_eviction () =
  let e = Crat.Engine.create ~trace_budget:4 () in
  let a = small_app "GAU" in
  let l = Workloads.App.launch a ~input:(Workloads.App.default_input a) () in
  let s1 = Crat.Engine.simulate e l fermi ~tlp:1 in
  let s2 = Crat.Engine.simulate e l G.Config.kepler ~tlp:1 in
  let rep = Crat.Engine.report e in
  check_int "oversized trace never replayed" 0 rep.Crat.Engine.trace_replays;
  let e0 = Crat.Engine.create ~replay:false () in
  check "results still correct" true
    (s1 = Crat.Engine.simulate e0 l fermi ~tlp:1
     && s2 = Crat.Engine.simulate e0 l G.Config.kepler ~tlp:1)

(* ---------- traces are recorded at dispatch ---------- *)

module B = Ptx.Builder
module I = Ptx.Instr
module T = Ptx.Types

(* [v] after a dependent chain of [n] adds to 1: [n + 1], and time for
   the timing model to let other blocks run *)
let add_chain b n =
  let v = B.mov b T.U32 (B.imm 1) in
  for _ = 1 to n do
    B.acc_binop b I.Add T.U32 v (B.imm 1)
  done;
  v

(* A cross-block global race: block 0 stores a flag after a 200-add
   chain; block 1 loads the flag and uses it as its lane stride, so its
   store coalesces into one segment when it reads the flag first and
   into 32 when block 0 stored first. *)
let race_kernel () =
  let b = B.create "race" in
  let flag = B.param b "flag" T.U64 in
  let out = B.param b "out" T.U64 in
  let ctaid = B.special b Ptx.Reg.Ctaid_x in
  let flagp = B.ld_param b T.U64 flag in
  let first = B.setp b I.Eq T.U32 (B.reg ctaid) (B.imm 0) in
  let reader = B.fresh_label b "Lreader" in
  let fin = B.fresh_label b "Ldone" in
  B.bra_ifnot b first reader;
  let v = add_chain b 200 in
  B.st b T.Global T.U32 (B.reg flagp) 0 (B.reg v);
  B.bra b fin;
  B.label b reader;
  let stride = B.ld b T.Global T.U32 (B.reg flagp) 0 in
  let tid = B.special b Ptx.Reg.Tid_x in
  let words = B.mul b T.U32 (B.reg tid) (B.reg stride) in
  let bytes = B.mul b T.U32 (B.reg words) (B.imm 4) in
  let off = B.cvt b T.U64 T.U32 (B.reg bytes) in
  let outp = B.ld_param b T.U64 out in
  let addr = B.add b T.U64 (B.reg outp) (B.reg off) in
  B.st b T.Global T.U32 (B.reg addr) 0 (B.reg tid);
  B.label b fin;
  B.finish b

let race_launch ?(tlp = 1) () =
  G.Launch.make ~kernel:(race_kernel ()) ~block_size:32 ~num_blocks:2
    ~tlp_limit:tlp
    ~params:[ ("flag", G.Value.I 0x1000L); ("out", G.Value.I 0x10_0000L) ]
    (G.Memory.create ())

(* Whatever TLP the engine is asked for first, its answer at each TLP
   equals a direct run's and a replay-free engine's: one launch has one
   trace, whatever schedule the timing model would have interleaved. *)
let test_race_order_independent () =
  let l = race_launch () in
  let direct tlp =
    let lt = G.Launch.with_tlp l tlp in
    G.Sm.run fermi { lt with G.Launch.memory = G.Memory.copy lt.G.Launch.memory }
  in
  let e0 = Crat.Engine.create ~replay:false () in
  List.iter
    (fun order ->
       let e = Crat.Engine.create () in
       List.iter
         (fun tlp ->
            let st = Crat.Engine.simulate e l fermi ~tlp in
            let name what =
              Printf.sprintf "tlp %d (order %s) equals %s" tlp
                (String.concat "," (List.map string_of_int order))
                what
            in
            check_int (name "a direct Sm.run's global segments")
              (direct tlp).G.Stats.global_segments st.G.Stats.global_segments;
            check (name "a direct Sm.run") true (st = direct tlp);
            check (name "a replay-free engine") true
              (st = Crat.Engine.simulate e0 l fermi ~tlp))
         order)
    [ [ 1; 2 ]; [ 2; 1 ] ]

(* every block writes [ctaid + 1] to its 32 words after a 200-add
   chain *)
let stamp_kernel () =
  let b = B.create "stamp" in
  let out = B.param b "out" T.U64 in
  let _ = add_chain b 200 in
  let ctaid = B.special b Ptx.Reg.Ctaid_x in
  let tid = B.special b Ptx.Reg.Tid_x in
  let gid = B.mad b T.U32 (B.reg ctaid) (B.imm 32) (B.reg tid) in
  let bytes = B.mul b T.U32 (B.reg gid) (B.imm 4) in
  let off = B.cvt b T.U64 T.U32 (B.reg bytes) in
  let outp = B.ld_param b T.U64 out in
  let addr = B.add b T.U64 (B.reg outp) (B.reg off) in
  let v = B.add b T.U32 (B.reg ctaid) (B.imm 1) in
  B.st b T.Global T.U32 (B.reg addr) 0 (B.reg v);
  B.finish b

(* A run cut short by [Cycle_limit] has executed the blocks it
   dispatched, whole, and no other: at TLP 1 the limit falls inside
   block 0's timing, so block 0's words are written and the last
   block's are untouched. *)
let test_cycle_limit_is_lazy () =
  let mem = G.Memory.create () in
  let l =
    G.Launch.make ~kernel:(stamp_kernel ()) ~block_size:32 ~num_blocks:3
      ~tlp_limit:1 ~params:[ ("out", G.Value.I 0L) ] mem
  in
  (match G.Sm.run ~max_cycles:10 fermi l with
   | _ -> Alcotest.fail "expected Cycle_limit"
   | exception G.Sm.Cycle_limit _ -> ());
  let words = G.Memory.read_u32_array mem ~base:0L 96 in
  check "dispatched block 0 executed whole" true
    (Array.for_all (( = ) 1) (Array.sub words 0 32));
  check "undispatched last block untouched" true
    (Array.for_all (( = ) 0) (Array.sub words 64 32))

let () =
  Alcotest.run "replay"
    [ ( "differential"
      , [ Alcotest.test_case "suite sweep bit-identical (22 apps x 2 builds x 2 TLPs)"
            `Slow test_replay_bit_identical_suite
        ; Alcotest.test_case "trace valid across config and TLP" `Slow
            test_trace_valid_across_config_and_tlp
        ; Alcotest.test_case "replay leaves memory untouched" `Quick
            test_replay_leaves_memory_untouched
        ; QCheck_alcotest.to_alcotest prop_replay_random_kernels
        ] )
    ; ( "keys"
      , [ Alcotest.test_case "launch key discrimination" `Quick
            test_launch_key_discrimination
        ; Alcotest.test_case "memory digest canonical" `Quick
            test_memory_digest_canonical
        ] )
    ; ( "engine"
      , [ Alcotest.test_case "records once per launch" `Slow
            test_engine_records_once_per_launch
        ; Alcotest.test_case "separates distinct launches" `Slow
            test_engine_separates_launches
        ; Alcotest.test_case "tiny budget degrades to cold" `Slow
            test_store_budget_eviction
        ] )
    ; ( "dispatch"
      , [ Alcotest.test_case "cross-block race answered order-independently"
            `Quick test_race_order_independent
        ; Alcotest.test_case "Cycle_limit leaves undispatched blocks unexecuted"
            `Quick test_cycle_limit_is_lazy
        ] )
    ]
