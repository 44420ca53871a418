(** Reference SIMT interpreter — the original boxed implementation,
    kept as the semantic oracle for {!Interp}'s predecoded/unboxed
    fast path. The differential property tests step random kernels
    through both in lockstep and require bit-identical register
    contents, control flow and memory. Not used by any production
    path: the timing simulator, the emulator and the lint/sanitize
    validation gates ({!Profile}, [Crat.Sanitize]) all run on
    {!Interp}. Its only other client is translation validation's
    witness replay ([Equiv.Witness]), which re-executes a refuted
    edge's counterexample on the reference semantics. *)

type launch_ctx =
  { image : Image.t
  ; global : Memory.t
  ; params : (string * Value.t) list
  ; block_size : int
  ; num_blocks : int
  ; san : Sancheck.runtime option
      (** armed sanitizer: shared/local lane accesses are checked
          against its per-pc mask, and violating lanes suppressed *)
  }

type block_ctx =
  { launch : launch_ctx
  ; ctaid : int
  ; shared : Memory.t
  ; nwarps : int
  }

type warp

val make_block : launch_ctx -> ctaid:int -> warp_size:int -> block_ctx * warp list
val is_done : warp -> bool
val pc : warp -> int
val active_mask : warp -> int
val block_of : warp -> block_ctx
val warp_id : warp -> int
val peek : warp -> Ptx.Instr.t option

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

val step : warp -> exec
val popcount : int -> int
val read_reg_values : warp -> Ptx.Reg.t -> Value.t array
val reg_key : Ptx.Reg.t -> int

val run : ?sanitize:Sancheck.runtime -> Launch.t -> unit
(** Emulator-style whole-launch execution through the reference
    semantics, mutating the launch's global memory in place.
    [sanitize] arms the hybrid sanitizer; its counters are the
    caller's to inspect afterwards. *)
