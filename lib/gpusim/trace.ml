type entry =
  { pc : int
  ; instr : Ptx.Instr.t
  ; mask : int
  ; def_value : Value.t option
  }

exception Aborted of entry list * string

let warp_trace ?(max_steps = 10_000) ~ctaid ~warp (l : Launch.t) =
  if warp < 0 || warp >= l.Launch.block_size / l.Launch.warp_size then
    invalid_arg "Trace.warp_trace: no such warp";
  let exception Full in
  let log = ref [] in
  let steps = ref 0 in
  let observe w ~pc ~mask _ =
    let image = (Interp.block_of w).Interp.launch.Interp.image in
    let instrs = image.Image.flow.Cfg.Flow.instrs in
    (* a step past the end of the code is the warp falling off it *)
    if Interp.warp_id w = warp && pc < Array.length instrs then begin
      incr steps;
      let instr = instrs.(pc) in
      let def_value =
        match Ptx.Instr.defs instr with
        | d :: _ -> Some (Interp.read_reg_values w d).(0)
        | [] -> None
      in
      log := { pc; instr; mask; def_value } :: !log;
      if !steps >= max_steps then raise_notrace Full
    end
  in
  (if max_steps > 0 then
     try Emulator.run ~observe ~ctaid l with
     | Full -> ()
     | Failure msg -> raise (Aborted (List.rev !log, msg)));
  List.rev !log

let pp_entry fmt e =
  Format.fprintf fmt "%5d %08x  %a" e.pc (e.mask land 0xFFFFFFFF) Ptx.Instr.pp
    e.instr;
  match e.def_value with
  | Some v -> Format.fprintf fmt "   ; lane0 = %a" Value.pp v
  | None -> ()

let pp fmt entries =
  Format.fprintf fmt "%5s %8s  %s@." "pc" "mask" "instruction";
  List.iter (fun e -> Format.fprintf fmt "%a@." pp_entry e) entries
