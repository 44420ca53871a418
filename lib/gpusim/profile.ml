type mem_stat =
  { mutable m_execs : int
  ; mutable max_segments : int
  ; mutable max_bank_degree : int
  ; m_space : Ptx.Types.space
  }

type branch_stat =
  { mutable b_execs : int
  ; mutable b_divergent : int
  }

type t =
  { mem_tbl : (int, mem_stat) Hashtbl.t
  ; branch_tbl : (int, branch_stat) Hashtbl.t
  }

let mem_stat t pc space =
  match Hashtbl.find_opt t.mem_tbl pc with
  | Some s -> s
  | None ->
    let s = { m_execs = 0; max_segments = 0; max_bank_degree = 0; m_space = space } in
    Hashtbl.add t.mem_tbl pc s;
    s

let branch_stat t pc =
  match Hashtbl.find_opt t.branch_tbl pc with
  | Some s -> s
  | None ->
    let s = { b_execs = 0; b_divergent = 0 } in
    Hashtbl.add t.branch_tbl pc s;
    s

(* The last access's lane addresses as [Int64.div addr unit] keys
   (an int: the quotient of any int64 by 4 or more fits), sorted in
   place — insertion sort, as there are at most warp-size of them. *)
let sorted_keys keys w unit =
  let n = Interp.mem_count w in
  for i = 0 to n - 1 do
    let k = Int64.to_int (Int64.div (Interp.mem_addr w i) unit) in
    let j = ref (i - 1) in
    while !j >= 0 && keys.(!j) > k do
      keys.(!j + 1) <- keys.(!j);
      decr j
    done;
    keys.(!j + 1) <- k
  done;
  n

(* distinct L1-line indices over the lane base addresses, as
   {!Sm.coalesce} counts them *)
let segments keys w ~line =
  let n = sorted_keys keys w (Int64.of_int line) in
  let d = ref (min n 1) in
  for i = 1 to n - 1 do
    if keys.(i) <> keys.(i - 1) then incr d
  done;
  !d

(* max distinct 4-byte words mapping to one bank, as
   {!Sm.bank_conflict_degree}; the bank of a word is its signed
   remainder, kept distinct from the positive classes by offsetting *)
let bank_degree keys counts w ~banks =
  let n = sorted_keys keys w 4L in
  Array.fill counts 0 (Array.length counts) 0;
  let degree = ref 1 in
  for i = 0 to n - 1 do
    if i = 0 || keys.(i) <> keys.(i - 1) then begin
      let bank = (keys.(i) mod banks) + banks in
      let c = counts.(bank) + 1 in
      counts.(bank) <- c;
      if c > !degree then degree := c
    end
  done;
  !degree

let run ?(line = 128) ?(banks = 32) (l : Launch.t) =
  let t = { mem_tbl = Hashtbl.create 64; branch_tbl = Hashtbl.create 16 } in
  let keys = Array.make l.Launch.warp_size 0 in
  let counts = Array.make (2 * banks) 0 in
  let observe w ~pc ~mask (e : Interp.exec) =
    match e with
    | Interp.E_mem { space; _ } ->
      let s = mem_stat t pc space in
      s.m_execs <- s.m_execs + 1;
      (match space with
       | Ptx.Types.Global | Ptx.Types.Local ->
         s.max_segments <- max s.max_segments (segments keys w ~line)
       | Ptx.Types.Shared ->
         s.max_bank_degree <-
           max s.max_bank_degree (bank_degree keys counts w ~banks)
       | _ -> ())
    | Interp.E_alu _ ->
      let image = (Interp.block_of w).Interp.launch.Interp.image in
      (match image.Image.code.Dcode.code.(pc) with
       | Dcode.DBra_pred { target; reconv; _ } ->
         let s = branch_stat t pc in
         s.b_execs <- s.b_execs + 1;
         (* A split leaves the active mask a strict non-empty subset of
            the mask before the step; a uniform branch leaves it equal,
            or pops to a sibling or parent entry, neither a subset. The
            exception is a branch to its own fall-through that is also
            the join point: both halves reconverge at once, so read the
            predicate. *)
         let after = Interp.active_mask w in
         let split =
           if target = reconv && pc + 1 = reconv then
             match image.Image.flow.Cfg.Flow.instrs.(pc) with
             | Ptx.Instr.Bra_pred (p, sense, _) ->
               let values = Interp.read_reg_values w p in
               let taken = ref 0 in
               Array.iteri
                 (fun lane v ->
                    if mask land (1 lsl lane) <> 0 && Value.to_bool v = sense
                    then taken := !taken lor (1 lsl lane))
                 values;
               !taken <> 0 && !taken <> mask
             | _ -> false
           else after <> 0 && after <> mask && after land lnot mask = 0
         in
         if split then s.b_divergent <- s.b_divergent + 1
       | _ -> ())
    | Interp.E_barrier | Interp.E_exit -> ()
  in
  Emulator.run ~observe l;
  t

let sorted tbl =
  List.sort
    (fun (a, _) (b, _) -> Stdlib.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let mems t = sorted t.mem_tbl
let branches t = sorted t.branch_tbl
