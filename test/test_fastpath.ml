(* Differential tests for the allocation-free fast path:

   - random kernels stepped through {!Gpusim.Interp} (predecoded,
     unboxed) and {!Gpusim.Refinterp} (the original boxed interpreter)
     in lockstep, requiring bit-identical control flow, lane addresses,
     register contents (value bits AND float tags) and final memory;
   - the validation gates' dynamic counters, which now come from the
     fast path: per-pc {!Gpusim.Profile} counters and final memory of a
     whole launch (as [crat lint --validate] runs it), and sanitizer
     {!Gpusim.Sancheck.stats} and final memory of a sanitized replay
     through {!Crat.Sanitize.replay} (as [crat sanitize --validate] runs
     it), against the same results from {!Gpusim.Refinterp} — a
     reference-side profiling driver and [Refinterp.run ~sanitize] —
     over random kernels (shared-memory staging and wild shared stores
     included), a branch to its own join point, and every suite
     workload's default launch;
   - the paged {!Gpusim.Memory} against the old Hashtbl store as a
     model, over adversarial address patterns (unaligned, negative,
     huge) and every scalar type. *)

module G = Gpusim

let value_eq a b =
  Int64.equal (G.Value.to_bits a) (G.Value.to_bits b)
  && Bool.equal (G.Value.is_f a) (G.Value.is_f b)

(* ---------- Interp vs Refinterp lockstep ---------- *)

let kernel_regs k =
  List.concat_map
    (fun i -> Ptx.Instr.defs i @ Ptx.Instr.uses i)
    (Ptx.Kernel.instrs k)
  |> List.sort_uniq compare

let lane_addrs_match wf (lane_addrs : (int * int64) list) =
  let n = G.Interp.mem_count wf in
  List.length lane_addrs = n
  && List.for_all2
       (fun (lane, addr) i ->
          lane = G.Interp.mem_lane wf i && Int64.equal addr (G.Interp.mem_addr wf i))
       lane_addrs
       (List.init n Fun.id)

let exec_matches wf (f : G.Interp.exec) (r : G.Refinterp.exec) =
  match (f, r) with
  | G.Interp.E_alu c, G.Refinterp.E_alu c' -> c = c'
  | ( G.Interp.E_mem { space; write; width }
    , G.Refinterp.E_mem { space = s'; write = w'; width = wd'; lane_addrs } ) ->
    Ptx.Types.equal_space space s' && write = w' && width = wd'
    && lane_addrs_match wf lane_addrs
  | G.Interp.E_barrier, G.Refinterp.E_barrier -> true
  | G.Interp.E_exit, G.Refinterp.E_exit -> true
  | _ -> false

let regs_match regs wf wr =
  List.for_all
    (fun r ->
       let vf = G.Interp.read_reg_values wf r in
       let vr = G.Refinterp.read_reg_values wr r in
       Array.length vf = Array.length vr
       && Array.for_all2 value_eq vf vr)
    regs

let prop_lockstep =
  QCheck.Test.make ~count:40 ~name:"fast path tracks reference interpreter"
    Testsupport.Gen.arbitrary_kernel (fun k ->
      let mem_f = G.Memory.create () in
      G.Memory.write_f32_array mem_f ~base:0x1000_0000L
        (Workloads.Data.uniform_f32 ~seed:11 1024);
      let mem_r = G.Memory.copy mem_f in
      let params =
        [ ("inp", G.Value.I 0x1000_0000L)
        ; ("out", G.Value.I 0x2000_0000L)
        ; ("n", G.Value.of_int 1024)
        ]
      in
      let image = G.Image.prepare k in
      let lctx_f =
        { G.Interp.image; global = mem_f; params; block_size = 64; num_blocks = 2 ; san = None}
      in
      let lctx_r =
        { G.Refinterp.image; global = mem_r; params; block_size = 64
        ; num_blocks = 2 ; san = None}
      in
      let regs = kernel_regs k in
      for ctaid = 0 to 1 do
        let _, warps_f = G.Interp.make_block lctx_f ~ctaid ~warp_size:32 in
        let _, warps_r = G.Refinterp.make_block lctx_r ~ctaid ~warp_size:32 in
        let pairs = List.combine warps_f warps_r in
        let budget = ref 2_000_000 in
        let live = ref true in
        while !live && !budget > 0 do
          live := false;
          List.iter
            (fun (wf, wr) ->
               if not (G.Interp.is_done wf) then begin
                 live := true;
                 decr budget;
                 if G.Refinterp.is_done wr then
                   QCheck.Test.fail_report "reference warp finished early";
                 if G.Interp.pc wf <> G.Refinterp.pc wr then
                   QCheck.Test.fail_report "pc diverged";
                 if G.Interp.active_mask wf <> G.Refinterp.active_mask wr then
                   QCheck.Test.fail_report "active mask diverged";
                 let ef = G.Interp.step wf in
                 let er = G.Refinterp.step wr in
                 if not (exec_matches wf ef er) then
                   QCheck.Test.fail_report "exec/lane addresses diverged"
               end)
            pairs;
          if !live && !budget = 0 then QCheck.Test.fail_report "step budget blown"
        done;
        List.iter
          (fun (wf, wr) ->
             if not (G.Refinterp.is_done wr) then
               QCheck.Test.fail_report "fast warp finished early";
             if not (regs_match regs wf wr) then
               QCheck.Test.fail_report "register file diverged")
          pairs
      done;
      G.Memory.equal mem_f mem_r)

(* whole-launch: the boxed reference semantics vs the fast path driven
   by the timing simulator (whose scheduler interleaves warps
   differently, so only the per-thread output buffer is compared) *)
let prop_ref_vs_sm =
  QCheck.Test.make ~count:15 ~name:"timing sim on fast path matches reference run"
    Testsupport.Gen.arbitrary_kernel (fun k ->
      let mem_r = G.Memory.create () in
      G.Memory.write_f32_array mem_r ~base:0x1000_0000L
        (Workloads.Data.uniform_f32 ~seed:7 1024);
      let mem_f = G.Memory.copy mem_r in
      let params =
        [ ("inp", G.Value.I 0x1000_0000L)
        ; ("out", G.Value.I 0x2000_0000L)
        ; ("n", G.Value.of_int 1024)
        ]
      in
      G.Refinterp.run
        (G.Launch.make ~kernel:k ~block_size:64 ~num_blocks:2 ~params mem_r);
      let _ =
        G.Sm.run G.Config.fermi
          (G.Launch.make ~kernel:k ~block_size:64 ~num_blocks:2 ~tlp_limit:2
             ~params mem_f)
      in
      Testsupport.Gen.outputs_equal
        (G.Memory.read_f32_array mem_r ~base:0x2000_0000L 128)
        (G.Memory.read_f32_array mem_f ~base:0x2000_0000L 128))

(* ---------- validation counters: Interp observer vs Refinterp ---------- *)

(* {!Gpusim.Profile}'s counters recomputed on the reference interpreter,
   straight from its lane-address lists and predicate values, under the
   same barrier-waiting block driver as {!Gpusim.Emulator}. *)
module Ref_profile = struct
  let segments ~line lane_addrs =
    let line = Int64.of_int line in
    List.length
      (List.sort_uniq Int64.compare
         (List.map (fun (_, a) -> Int64.div a line) lane_addrs))

  let bank_degree ~banks lane_addrs =
    let words =
      List.sort_uniq Int64.compare
        (List.map (fun (_, a) -> Int64.div a 4L) lane_addrs)
    in
    let counts = Hashtbl.create 16 in
    List.fold_left
      (fun degree w ->
         let bank = Int64.to_int (Int64.rem w (Int64.of_int banks)) + banks in
         let c = 1 + Option.value ~default:0 (Hashtbl.find_opt counts bank) in
         Hashtbl.replace counts bank c;
         max degree c)
      1 words

  let sorted tbl =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

  let run ?(line = 128) ?(banks = 32) (l : G.Launch.t) =
    let mems = Hashtbl.create 64 in
    let branches = Hashtbl.create 16 in
    let before w =
      match G.Refinterp.peek w with
      | Some (Ptx.Instr.Bra_pred (p, sense, _)) ->
        let mask = G.Refinterp.active_mask w in
        let taken = ref 0 in
        Array.iteri
          (fun lane v ->
             if mask land (1 lsl lane) <> 0 && G.Value.to_bool v = sense then
               taken := !taken lor (1 lsl lane))
          (G.Refinterp.read_reg_values w p);
        let s =
          match Hashtbl.find_opt branches (G.Refinterp.pc w) with
          | Some s -> s
          | None ->
            let s = { G.Profile.b_execs = 0; b_divergent = 0 } in
            Hashtbl.add branches (G.Refinterp.pc w) s;
            s
        in
        s.G.Profile.b_execs <- s.G.Profile.b_execs + 1;
        if !taken <> 0 && mask land lnot !taken <> 0 then
          s.G.Profile.b_divergent <- s.G.Profile.b_divergent + 1
      | _ -> ()
    in
    let after pc (e : G.Refinterp.exec) =
      match e with
      | G.Refinterp.E_mem { space; lane_addrs; _ } ->
        let s =
          match Hashtbl.find_opt mems pc with
          | Some s -> s
          | None ->
            let s =
              { G.Profile.m_execs = 0; max_segments = 0; max_bank_degree = 0
              ; m_space = space }
            in
            Hashtbl.add mems pc s;
            s
        in
        s.G.Profile.m_execs <- s.G.Profile.m_execs + 1;
        (match space with
         | Ptx.Types.Global | Ptx.Types.Local ->
           s.G.Profile.max_segments <-
             max s.G.Profile.max_segments (segments ~line lane_addrs)
         | Ptx.Types.Shared ->
           s.G.Profile.max_bank_degree <-
             max s.G.Profile.max_bank_degree (bank_degree ~banks lane_addrs)
         | _ -> ())
      | _ -> ()
    in
    let lctx =
      { G.Refinterp.image = G.Image.prepare l.G.Launch.kernel
      ; global = l.G.Launch.memory
      ; params = l.G.Launch.params
      ; block_size = l.G.Launch.block_size
      ; num_blocks = l.G.Launch.num_blocks
      ; san = None
      }
    in
    for ctaid = 0 to l.G.Launch.num_blocks - 1 do
      let _, warps =
        G.Refinterp.make_block lctx ~ctaid ~warp_size:l.G.Launch.warp_size
      in
      let warps = Array.of_list warps in
      let waiting = Array.make (Array.length warps) false in
      let live i = not (G.Refinterp.is_done warps.(i) || waiting.(i)) in
      let progress = ref true in
      while (not (Array.for_all G.Refinterp.is_done warps)) && !progress do
        progress := false;
        Array.iteri
          (fun i w ->
             let stop = ref (not (live i)) in
             while not !stop do
               before w;
               let pc = G.Refinterp.pc w in
               let e = G.Refinterp.step w in
               after pc e;
               progress := true;
               match e with
               | G.Refinterp.E_barrier ->
                 waiting.(i) <- true;
                 stop := true
               | G.Refinterp.E_exit -> stop := true
               | G.Refinterp.E_alu _ | G.Refinterp.E_mem _ -> ()
             done)
          warps;
        if not (List.exists live (List.init (Array.length warps) Fun.id)) then
          Array.fill waiting 0 (Array.length waiting) false
      done;
      if not (Array.for_all G.Refinterp.is_done warps) then
        failwith "reference profile: barrier deadlock"
    done;
    (sorted mems, sorted branches)
end

(* One launch through both sides, each on its own memory copy: the
   profiled run, then — given a static [report] — the sanitized replay
   with [report]'s residual checks armed. [None] when the sides agree,
   otherwise which results differ. *)
let profile_mismatch ?report (l : G.Launch.t) =
  let copy () = { l with G.Launch.memory = G.Memory.copy l.G.Launch.memory } in
  let lf = copy () and lr = copy () in
  let prof = G.Profile.run lf in
  let mems_r, branches_r = Ref_profile.run lr in
  if G.Profile.mems prof <> mems_r then Some "per-pc memory counters"
  else if G.Profile.branches prof <> branches_r then Some "per-pc branch splits"
  else if not (G.Memory.equal lf.G.Launch.memory lr.G.Launch.memory) then
    Some "final memory"
  else
    match report with
    | None -> None
    | Some report ->
      let lf = copy () and lr = copy () in
      let counters = Crat.Sanitize.replay report lf in
      let rt = G.Sancheck.runtime (Verify.Sanitize.mask report) in
      G.Refinterp.run ~sanitize:rt lr;
      if G.Sancheck.stats counters <> G.Sancheck.stats rt.G.Sancheck.counters
      then Some "sanitizer stats"
      else if not (G.Memory.equal lf.G.Launch.memory lr.G.Launch.memory) then
        Some "sanitized final memory"
      else None

let prop_profile =
  QCheck.Test.make ~count:40 ~name:"validation counters on Interp match Refinterp"
    (QCheck.make ~print:Ptx.Printer.kernel_to_string
       (Testsupport.Gen.kernel ~with_shared:true ()))
    (fun k ->
      let mem = G.Memory.create () in
      G.Memory.write_f32_array mem ~base:0x1000_0000L
        (Workloads.Data.uniform_f32 ~seed:13 1024);
      let params =
        [ ("inp", G.Value.I 0x1000_0000L)
        ; ("out", G.Value.I 0x2000_0000L)
        ; ("n", G.Value.of_int 1024)
        ]
      in
      let report = Verify.Sanitize.sanitize_kernel ~block_size:64 k in
      match
        profile_mismatch ~report
          (G.Launch.make ~kernel:k ~block_size:64 ~num_blocks:2 ~params mem)
      with
      | None -> true
      | Some what -> QCheck.Test.fail_reportf "%s diverged" what)

(* A branch whose target is its own fall-through and join point: both
   halves of a split reconverge within the step, so the active mask
   alone cannot show it. *)
let test_profile_self_join () =
  let module B = Ptx.Builder in
  let b = B.create "self_join" in
  let tid = B.special b Ptx.Reg.Tid_x in
  let bit = B.binop b Ptx.Instr.And Ptx.Types.U32 (B.reg tid) (B.imm 1) in
  let p = B.setp b Ptx.Instr.Eq Ptx.Types.U32 (B.reg bit) (B.imm 1) in
  let join = B.fresh_label b "Lj" in
  B.bra_ifnot b p join;
  B.label b join;
  let k = B.finish b in
  let l = G.Launch.make ~kernel:k ~block_size:64 ~num_blocks:1 (G.Memory.create ()) in
  (match profile_mismatch l with
   | None -> ()
   | Some what -> Alcotest.failf "%s diverged" what);
  match G.Profile.branches (G.Profile.run l) with
  | [ (_, s) ] ->
    Alcotest.(check int) "both warps split" 2 s.G.Profile.b_divergent
  | bs -> Alcotest.failf "expected one branch, got %d" (List.length bs)

(* every suite workload's default launch, profiled and replayed with the
   launch-specialised report armed, as [crat lint/sanitize --validate]
   run it *)
let test_profile_suite () =
  List.iter
    (fun (app : Workloads.App.t) ->
       let input = Workloads.App.default_input app in
       let kernel = Workloads.App.kernel app in
       let int_params =
         List.filter_map
           (fun (n, v) ->
              match v with G.Value.I x -> Some (n, x) | G.Value.F _ -> None)
           (Workloads.App.params app input)
       in
       let report =
         Verify.Sanitize.sanitize_kernel ~block_size:app.Workloads.App.block_size
           ~num_blocks:input.Workloads.App.num_blocks ~params:int_params kernel
       in
       match profile_mismatch ~report (Workloads.App.launch app ~input ()) with
       | None -> ()
       | Some what -> Alcotest.failf "%s: %s diverged" app.Workloads.App.abbr what)
    Workloads.Suite.all

(* ---------- paged memory vs the old Hashtbl model ---------- *)

(* the seed's memory implementation, verbatim: the model *)
module Model = struct
  type t = (int64, G.Value.t) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let read (t : t) addr ty =
    match Hashtbl.find_opt t addr with
    | Some v -> G.Value.truncate ty v
    | None -> G.Value.truncate ty G.Value.zero

  let write (t : t) addr ty v = Hashtbl.replace t addr (G.Value.truncate ty v)
end

let gen_addr =
  QCheck.Gen.oneof
    [ QCheck.Gen.map (fun i -> Int64.of_int (4 * abs i)) (QCheck.Gen.int_bound 3000)
      (* aligned, spanning several pages *)
    ; QCheck.Gen.map
        (fun i -> Int64.of_int ((4 * abs i) + 1))
        (QCheck.Gen.int_bound 200)  (* unaligned -> side table *)
    ; QCheck.Gen.map (fun i -> Int64.of_int (-4 * (1 + abs i))) (QCheck.Gen.int_bound 200)
      (* negative -> side table *)
    ; QCheck.Gen.map
        (fun i -> Int64.add 0x4000_0000_0000_0000L (Int64.of_int (4 * abs i)))
        (QCheck.Gen.int_bound 200)  (* beyond the paged range *)
    ]

let gen_scalar = QCheck.Gen.oneofl Ptx.Types.all_scalars

let gen_value =
  QCheck.Gen.oneof
    [ QCheck.Gen.map (fun i -> G.Value.I (Int64.of_int i)) QCheck.Gen.int
    ; QCheck.Gen.map (fun f -> G.Value.F f) QCheck.Gen.float
    ; QCheck.Gen.return (G.Value.F Float.nan)
    ; QCheck.Gen.return (G.Value.I (-1L))
    ]

type mem_op =
  | Write of int64 * Ptx.Types.scalar * G.Value.t
  | Read of int64 * Ptx.Types.scalar

let gen_op =
  QCheck.Gen.oneof
    [ QCheck.Gen.map3 (fun a ty v -> Write (a, ty, v)) gen_addr gen_scalar gen_value
    ; QCheck.Gen.map2 (fun a ty -> Read (a, ty)) gen_addr gen_scalar
    ]

let pp_op = function
  | Write (a, ty, v) ->
    Printf.sprintf "write %Ld %s %Ld" a
      (Ptx.Types.scalar_to_string ty)
      (G.Value.to_bits v)
  | Read (a, ty) -> Printf.sprintf "read %Ld %s" a (Ptx.Types.scalar_to_string ty)

let arbitrary_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "\n" (List.map pp_op ops))
    (QCheck.Gen.list_size (QCheck.Gen.int_range 1 400) gen_op)

let prop_memory_model =
  QCheck.Test.make ~count:200 ~name:"paged memory matches the Hashtbl model"
    arbitrary_ops (fun ops ->
      let m = G.Memory.create () in
      let model = Model.create () in
      List.iter
        (function
          | Write (a, ty, v) ->
            G.Memory.write m a ty v;
            Model.write model a ty v
          | Read (a, ty) ->
            let got = G.Memory.read m a ty in
            let want = Model.read model a ty in
            if not (value_eq got want) then
              QCheck.Test.fail_reportf "read %Ld %s: got %Ld/%b want %Ld/%b" a
                (Ptx.Types.scalar_to_string ty)
                (G.Value.to_bits got) (G.Value.is_f got) (G.Value.to_bits want)
                (G.Value.is_f want))
        ops;
      (* the fold view agrees with the model's contents *)
      let dump mem_fold =
        mem_fold (fun k v acc -> (k, G.Value.to_bits v, G.Value.is_f v) :: acc) []
        |> List.filter (fun (_, bits, _) -> not (Int64.equal bits 0L))
        |> List.sort compare
      in
      dump (fun f init -> G.Memory.fold f m init)
      = dump (fun f init -> Hashtbl.fold f model init))

let test_memory_copy_isolated () =
  let m = G.Memory.create () in
  G.Memory.write m 8L Ptx.Types.U32 (G.Value.of_int 7);
  let c = G.Memory.copy m in
  G.Memory.write c 8L Ptx.Types.U32 (G.Value.of_int 9);
  G.Memory.write c 1048576L Ptx.Types.F32 (G.Value.F 2.5);
  Alcotest.(check int) "original untouched" 7
    (Int64.to_int (G.Value.to_int64 (G.Memory.read m 8L Ptx.Types.U32)));
  Alcotest.(check int) "copy updated" 9
    (Int64.to_int (G.Value.to_int64 (G.Memory.read c 8L Ptx.Types.U32)));
  Alcotest.(check bool) "copies diverge" false (G.Memory.equal m c)

let () =
  Alcotest.run "fastpath"
    [ ( "differential"
      , List.map QCheck_alcotest.to_alcotest
          [ prop_lockstep; prop_ref_vs_sm; prop_profile; prop_memory_model ]
        @ [ Alcotest.test_case "profile: branch to its own join point" `Quick
              test_profile_self_join
          ; Alcotest.test_case "profile: suite default launches" `Slow
              test_profile_suite
          ] )
    ; ( "memory"
      , [ Alcotest.test_case "copy isolation" `Quick test_memory_copy_isolated ] )
    ]
