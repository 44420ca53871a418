type observer = Interp.warp -> pc:int -> mask:int -> Interp.exec -> unit

let[@inline] step observe w =
  match observe with
  | None -> Interp.step w
  | Some f ->
    let pc = Interp.pc w in
    let mask = Interp.active_mask w in
    let e = Interp.step w in
    f w ~pc ~mask e;
    e

let run_block ?observe lctx ~ctaid ~warp_size =
  let _block, warps = Interp.make_block lctx ~ctaid ~warp_size in
  let warps = Array.of_list warps in
  let waiting = Array.make (Array.length warps) false in
  let all_done () = Array.for_all Interp.is_done warps in
  (* run each warp until it blocks on a barrier or finishes; release the
     barrier when every live warp reached it *)
  let progress = ref true in
  while (not (all_done ())) && !progress do
    progress := false;
    Array.iteri
      (fun i w ->
         if (not (Interp.is_done w)) && not waiting.(i) then begin
           let stop = ref false in
           while not !stop do
             match step observe w with
             | Interp.E_barrier ->
               waiting.(i) <- true;
               stop := true;
               progress := true
             | Interp.E_exit ->
               stop := true;
               progress := true
             | Interp.E_alu _ | Interp.E_mem _ -> progress := true
           done
         end)
      warps;
    (* all live warps waiting -> release the barrier *)
    let live_blocked = ref true in
    Array.iteri
      (fun i w -> if (not (Interp.is_done w)) && not waiting.(i) then live_blocked := false)
      warps;
    if !live_blocked then
      Array.iteri (fun i _ -> waiting.(i) <- false) warps
  done;
  if not (all_done ()) then failwith "Emulator: barrier deadlock"

let launch_ctx ?sanitize image (l : Launch.t) =
  { Interp.image
  ; global = l.Launch.memory
  ; params = l.Launch.params
  ; block_size = l.Launch.block_size
  ; num_blocks = l.Launch.num_blocks
  ; san = sanitize
  }

let run ?observe ?sanitize ?ctaid (l : Launch.t) =
  let lctx = launch_ctx ?sanitize (Image.prepare l.Launch.kernel) l in
  let block ctaid = run_block ?observe lctx ~ctaid ~warp_size:l.Launch.warp_size in
  match ctaid with
  | Some c -> block c
  | None ->
    for c = 0 to l.Launch.num_blocks - 1 do
      block c
    done

let record tr (l : Launch.t) ~ctaid =
  let code = (Replay.image tr).Image.code in
  let observe w ~pc ~mask e =
    (* a warp that runs off the end of the code exits without issuing:
       that step is not an instruction, so it is not recorded *)
    if pc < Array.length code.Dcode.code then begin
      let wt = Replay.wtrace tr ~ctaid ~wid:(Interp.warp_id w) in
      Replay.record wt ~pc ~mask;
      match e with
      | Interp.E_mem _ ->
        for i = 0 to Interp.mem_count w - 1 do
          Replay.record_addr wt (Interp.mem_addr w i)
        done
      | Interp.E_alu _ | Interp.E_barrier | Interp.E_exit -> ()
    end
  in
  run_block ~observe (launch_ctx (Replay.image tr) l) ~ctaid
    ~warp_size:l.Launch.warp_size

let run_to_memory (l : Launch.t) =
  let m = Memory.copy l.Launch.memory in
  run { l with Launch.memory = m };
  m
