(* Reference SIMT interpreter.

   This is the original boxed interpreter, kept verbatim as the
   semantic oracle for {!Interp}'s predecoded/unboxed fast path: it
   re-matches [Ptx.Instr.t] constructors at every step, keys registers
   through a [Hashtbl] of boxed [Value.t] arrays and resolves
   symbols/params with [List.assoc]. Slow but obviously faithful to
   the instruction definitions; the differential property tests run
   random kernels through both interpreters in lockstep and require
   bit-identical registers, control flow and memory. Not used by the
   timing simulator, the emulator or the validation gates; besides the
   differential tests, only witness replay runs on it. *)

type launch_ctx =
  { image : Image.t
  ; global : Memory.t
  ; params : (string * Value.t) list
  ; block_size : int
  ; num_blocks : int
  ; san : Sancheck.runtime option
  }

type block_ctx =
  { launch : launch_ctx
  ; ctaid : int
  ; shared : Memory.t
  ; nwarps : int
  }

type stack_entry =
  { mutable next_pc : int
  ; reconv_pc : int
  ; mask : int
  }

type warp =
  { block : block_ctx
  ; wid : int
  ; base_tid : int
  ; nlanes : int
  ; regs : (int, Value.t array) Hashtbl.t
  ; mutable stack : stack_entry list
  ; mutable done_ : bool
  }

let reg_key r =
  let cls =
    match Ptx.Types.reg_class (Ptx.Reg.ty r) with
    | Ptx.Types.Cpred -> 0
    | Ptx.Types.C32 -> 1
    | Ptx.Types.C64 -> 2
  in
  (cls lsl 24) lor Ptx.Reg.id r

let full_mask n = (1 lsl n) - 1

let make_block launch ~ctaid ~warp_size =
  if launch.block_size <= 0 || launch.block_size mod warp_size <> 0 then
    invalid_arg "Refinterp.make_block: block size must be a multiple of warp size";
  let nwarps = launch.block_size / warp_size in
  let block = { launch; ctaid; shared = Memory.create (); nwarps } in
  let warps =
    List.init nwarps (fun w ->
      { block
      ; wid = w
      ; base_tid = w * warp_size
      ; nlanes = warp_size
      ; regs = Hashtbl.create 64
      ; stack =
          [ { next_pc = 0
            ; reconv_pc = -1
            ; mask = full_mask warp_size
            }
          ]
      ; done_ = false
      })
  in
  (block, warps)

let is_done w = w.done_

let tos w =
  match w.stack with
  | e :: _ -> e
  | [] -> failwith "Interp: empty SIMT stack"

let normalize w =
  let rec loop () =
    match w.stack with
    | e :: (_ :: _ as rest) when e.next_pc = e.reconv_pc ->
      w.stack <- rest;
      loop ()
    | _ :: _ | [] -> ()
  in
  loop ()

let pc w = (tos w).next_pc
let active_mask w = (tos w).mask
let block_of w = w.block
let warp_id w = w.wid

let instrs w = w.block.launch.image.Image.flow.Cfg.Flow.instrs

let peek w =
  if w.done_ then None
  else begin
    normalize w;
    let p = pc w in
    let arr = instrs w in
    if p >= Array.length arr then None else Some arr.(p)
  end

let read_reg w r =
  let key = reg_key r in
  match Hashtbl.find_opt w.regs key with
  | Some a -> a
  | None ->
    let a = Array.make w.nlanes Value.zero in
    Hashtbl.replace w.regs key a;
    a

let read_reg_values w r = Array.copy (read_reg w r)

let global_tid w lane =
  (w.block.ctaid * w.block.launch.block_size) + w.base_tid + lane

let eval_special w lane s =
  let v =
    match s with
    | Ptx.Reg.Tid_x -> w.base_tid + lane
    | Ptx.Reg.Tid_y -> 0
    | Ptx.Reg.Ctaid_x -> w.block.ctaid
    | Ptx.Reg.Ctaid_y -> 0
    | Ptx.Reg.Ntid_x -> w.block.launch.block_size
    | Ptx.Reg.Ntid_y -> 1
    | Ptx.Reg.Nctaid_x -> w.block.launch.num_blocks
    | Ptx.Reg.Nctaid_y -> 1
    | Ptx.Reg.Laneid -> lane
    | Ptx.Reg.Warpid -> w.wid
  in
  Value.of_int v

let param_value w name =
  match List.assoc_opt name w.block.launch.params with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Interp: unbound parameter %s" name)

let sym_value w lane name =
  (* shared symbols resolve to an offset inside the block's shared region;
     local symbols resolve to a globally-unique per-thread address *)
  let image = w.block.launch.image in
  match List.assoc_opt name image.Image.shared_offsets with
  | Some off -> Value.of_int off
  | None ->
    (match List.assoc_opt name image.Image.local_offsets with
     | Some off ->
       Value.I (Image.local_addr image ~global_tid:(global_tid w lane) ~sym_offset:off)
     | None -> invalid_arg (Printf.sprintf "Interp: unknown symbol %s" name))

let eval w lane (op : Ptx.Instr.operand) =
  match op with
  | Ptx.Instr.Oreg r -> (read_reg w r).(lane)
  | Ptx.Instr.Oimm i -> Value.I i
  | Ptx.Instr.Ofimm f -> Value.F f
  | Ptx.Instr.Ospecial s -> eval_special w lane s
  | Ptx.Instr.Osym s -> sym_value w lane s
  | Ptx.Instr.Oparam p -> param_value w p

let addr_of w lane (a : Ptx.Instr.address) =
  Int64.add (Value.to_int64 (eval w lane a.base)) (Int64.of_int a.offset)

(* Sanitizer probes. Shared addresses are already segment-relative;
   local accesses are checked on the naive (pre-interleave) address,
   reduced to an offset into the thread's own frame — which also keeps
   [Image.remap_local] from being fed an out-of-frame address. *)

let san_shared w ~pc ~lane ~width a =
  match w.block.launch.san with
  | None -> true
  | Some rt ->
    Sancheck.check rt ~pc ~lane ~tid:(w.base_tid + lane) ~width ~rel:a

let san_local w ~pc ~lane ~width naive =
  match w.block.launch.san with
  | None -> true
  | Some rt ->
    let image = w.block.launch.image in
    let rel =
      Int64.sub naive
        (Int64.add Image.local_base
           (Int64.of_int (global_tid w lane * image.Image.local_frame_bytes)))
    in
    Sancheck.check rt ~pc ~lane ~tid:(w.base_tid + lane) ~width ~rel

type exec =
  | E_alu of Ptx.Instr.op_class
  | E_mem of
      { space : Ptx.Types.space
      ; write : bool
      ; width : int
      ; lane_addrs : (int * int64) list
      }
  | E_barrier
  | E_exit

let iter_active mask nlanes f =
  for lane = 0 to nlanes - 1 do
    if mask land (1 lsl lane) <> 0 then f lane
  done

let popcount m =
  let rec loop m acc = if m = 0 then acc else loop (m lsr 1) (acc + (m land 1)) in
  loop m 0

let step w =
  if w.done_ then invalid_arg "Interp.step: warp already done";
  normalize w;
  let e = tos w in
  let this_pc = e.next_pc in
  let arr = instrs w in
  if this_pc >= Array.length arr then begin
    w.done_ <- true;
    E_exit
  end
  else begin
    let ins = arr.(this_pc) in
    let mask = e.mask in
    e.next_pc <- this_pc + 1;
    let set_reg r lane v =
      (read_reg w r).(lane) <- Value.truncate (Ptx.Reg.ty r) v
    in
    let result =
      match ins with
      | Ptx.Instr.Mov (ty, d, a) ->
        iter_active mask w.nlanes (fun l -> set_reg d l (Value.truncate ty (eval w l a)));
        E_alu (Ptx.Instr.classify ins)
      | Ptx.Instr.Binop (op, ty, d, a, b) ->
        iter_active mask w.nlanes (fun l ->
          set_reg d l (Value.binop op ty (eval w l a) (eval w l b)));
        E_alu (Ptx.Instr.classify ins)
      | Ptx.Instr.Mad (ty, d, a, b, c) ->
        iter_active mask w.nlanes (fun l ->
          set_reg d l (Value.mad ty (eval w l a) (eval w l b) (eval w l c)));
        E_alu (Ptx.Instr.classify ins)
      | Ptx.Instr.Unop (op, ty, d, a) ->
        iter_active mask w.nlanes (fun l -> set_reg d l (Value.unop op ty (eval w l a)));
        E_alu (Ptx.Instr.classify ins)
      | Ptx.Instr.Cvt (dt, st, d, a) ->
        iter_active mask w.nlanes (fun l ->
          set_reg d l (Value.convert ~dst:dt ~src:st (eval w l a)));
        E_alu (Ptx.Instr.classify ins)
      | Ptx.Instr.Setp (c, ty, d, a, b) ->
        iter_active mask w.nlanes (fun l ->
          let r = Value.compare_values c ty (eval w l a) (eval w l b) in
          set_reg d l (Value.I (if r then 1L else 0L)));
        E_alu (Ptx.Instr.classify ins)
      | Ptx.Instr.Selp (ty, d, a, b, p) ->
        iter_active mask w.nlanes (fun l ->
          let pv = (read_reg w p).(l) in
          let v = if Value.to_bool pv then eval w l a else eval w l b in
          set_reg d l (Value.truncate ty v));
        E_alu (Ptx.Instr.classify ins)
      | Ptx.Instr.Ld (Ptx.Types.Param, ty, d, addr) ->
        (match addr.Ptx.Instr.base with
         | Ptx.Instr.Oparam p ->
           iter_active mask w.nlanes (fun l ->
             set_reg d l (Value.truncate ty (param_value w p));
             ignore l)
         | Ptx.Instr.Oreg _ | Ptx.Instr.Oimm _ | Ptx.Instr.Ofimm _
         | Ptx.Instr.Ospecial _ | Ptx.Instr.Osym _ ->
           invalid_arg "Interp: ld.param requires a parameter base");
        E_alu Ptx.Instr.Mem_const_param
      | Ptx.Instr.Ld (Ptx.Types.Const, ty, d, addr) ->
        iter_active mask w.nlanes (fun l ->
          let a = addr_of w l addr in
          set_reg d l (Memory.read w.block.launch.global a ty));
        E_alu Ptx.Instr.Mem_const_param
      | Ptx.Instr.Ld (Ptx.Types.Shared, ty, d, addr) ->
        let lane_addrs = ref [] in
        let width = Ptx.Types.width_bytes ty in
        iter_active mask w.nlanes (fun l ->
          let a = addr_of w l addr in
          if san_shared w ~pc:this_pc ~lane:l ~width a then begin
            lane_addrs := (l, a) :: !lane_addrs;
            set_reg d l (Memory.read w.block.shared a ty)
          end);
        E_mem
          { space = Ptx.Types.Shared
          ; write = false
          ; width
          ; lane_addrs = List.rev !lane_addrs
          }
      | Ptx.Instr.Ld (((Ptx.Types.Global | Ptx.Types.Local) as sp), ty, d, addr) ->
        let lane_addrs = ref [] in
        let width = Ptx.Types.width_bytes ty in
        iter_active mask w.nlanes (fun l ->
          let a = addr_of w l addr in
          match sp with
          | Ptx.Types.Local ->
            if san_local w ~pc:this_pc ~lane:l ~width a then begin
              let a =
                Image.remap_local w.block.launch.image
                  ~global_tid:(global_tid w l) a
              in
              lane_addrs := (l, a) :: !lane_addrs;
              set_reg d l (Memory.read w.block.launch.global a ty)
            end
          | Ptx.Types.Global | Ptx.Types.Shared | Ptx.Types.Reg
          | Ptx.Types.Param | Ptx.Types.Const ->
            lane_addrs := (l, a) :: !lane_addrs;
            set_reg d l (Memory.read w.block.launch.global a ty));
        E_mem
          { space = sp
          ; write = false
          ; width
          ; lane_addrs = List.rev !lane_addrs
          }
      | Ptx.Instr.Ld ((Ptx.Types.Reg as sp), _, _, _) ->
        invalid_arg
          (Printf.sprintf "Interp: ld.%s unsupported" (Ptx.Types.space_to_string sp))
      | Ptx.Instr.St (Ptx.Types.Shared, ty, addr, v) ->
        let lane_addrs = ref [] in
        let width = Ptx.Types.width_bytes ty in
        iter_active mask w.nlanes (fun l ->
          let a = addr_of w l addr in
          if san_shared w ~pc:this_pc ~lane:l ~width a then begin
            lane_addrs := (l, a) :: !lane_addrs;
            Memory.write w.block.shared a ty (eval w l v)
          end);
        E_mem
          { space = Ptx.Types.Shared
          ; write = true
          ; width
          ; lane_addrs = List.rev !lane_addrs
          }
      | Ptx.Instr.St (((Ptx.Types.Global | Ptx.Types.Local) as sp), ty, addr, v) ->
        let lane_addrs = ref [] in
        let width = Ptx.Types.width_bytes ty in
        iter_active mask w.nlanes (fun l ->
          let a = addr_of w l addr in
          match sp with
          | Ptx.Types.Local ->
            if san_local w ~pc:this_pc ~lane:l ~width a then begin
              let a =
                Image.remap_local w.block.launch.image
                  ~global_tid:(global_tid w l) a
              in
              lane_addrs := (l, a) :: !lane_addrs;
              Memory.write w.block.launch.global a ty (eval w l v)
            end
          | Ptx.Types.Global | Ptx.Types.Shared | Ptx.Types.Reg
          | Ptx.Types.Param | Ptx.Types.Const ->
            lane_addrs := (l, a) :: !lane_addrs;
            Memory.write w.block.launch.global a ty (eval w l v));
        E_mem
          { space = sp
          ; write = true
          ; width
          ; lane_addrs = List.rev !lane_addrs
          }
      | Ptx.Instr.St ((Ptx.Types.Reg | Ptx.Types.Param | Ptx.Types.Const), _, _, _)
        -> invalid_arg "Interp: unsupported store space"
      | Ptx.Instr.Bra l ->
        e.next_pc <- Cfg.Flow.target_index w.block.launch.image.Image.flow l;
        E_alu Ptx.Instr.Ctrl
      | Ptx.Instr.Bra_pred (p, sense, l) ->
        let target = Cfg.Flow.target_index w.block.launch.image.Image.flow l in
        let taken = ref 0 in
        iter_active mask w.nlanes (fun lane ->
          let pv = Value.to_bool (read_reg w p).(lane) in
          if pv = sense then taken := !taken lor (1 lsl lane));
        let fall = mask land lnot !taken in
        if !taken = 0 then () (* next_pc already pc+1 *)
        else if fall = 0 then e.next_pc <- target
        else begin
          let reconv = w.block.launch.image.Image.reconv.(this_pc) in
          e.next_pc <- reconv;
          w.stack <-
            { next_pc = target; reconv_pc = reconv; mask = !taken }
            :: { next_pc = this_pc + 1; reconv_pc = reconv; mask = fall }
            :: w.stack
        end;
        E_alu Ptx.Instr.Ctrl
      | Ptx.Instr.Bar_sync -> E_barrier
      | Ptx.Instr.Ret ->
        if List.length w.stack > 1 then
          failwith "Interp: divergent ret is not supported";
        w.done_ <- true;
        E_exit
    in
    normalize w;
    result
  end

(* Emulator-style driver (mirrors {!Emulator.run_block}), so the
   differential tests can run whole launches through the reference
   semantics without going through [Interp]. *)

let run_block lctx ~ctaid ~warp_size =
  let _block, warps = make_block lctx ~ctaid ~warp_size in
  let warps = Array.of_list warps in
  let waiting = Array.make (Array.length warps) false in
  let all_done () = Array.for_all is_done warps in
  let progress = ref true in
  while (not (all_done ())) && !progress do
    progress := false;
    Array.iteri
      (fun i w ->
         if (not (is_done w)) && not waiting.(i) then begin
           let stop = ref false in
           while not !stop do
             match step w with
             | E_barrier ->
               waiting.(i) <- true;
               stop := true;
               progress := true
             | E_exit ->
               stop := true;
               progress := true
             | E_alu _ | E_mem _ -> progress := true
           done
         end)
      warps;
    let live_blocked = ref true in
    Array.iteri
      (fun i w -> if (not (is_done w)) && not waiting.(i) then live_blocked := false)
      warps;
    if !live_blocked then Array.iteri (fun i _ -> waiting.(i) <- false) warps
  done;
  if not (all_done ()) then failwith "Refinterp: barrier deadlock"

let run ?sanitize (l : Launch.t) =
  let image = Image.prepare l.Launch.kernel in
  let lctx =
    { image
    ; global = l.Launch.memory
    ; params = l.Launch.params
    ; block_size = l.Launch.block_size
    ; num_blocks = l.Launch.num_blocks
    ; san = sanitize
    }
  in
  for ctaid = 0 to l.Launch.num_blocks - 1 do
    run_block lctx ~ctaid ~warp_size:l.Launch.warp_size
  done
