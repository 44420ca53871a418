(** Functional emulator: executes a launch on {!Interp} with no timing
    model. This is the one block driver for functional runs outside the
    timing simulator: the semantics-preservation oracle (original and
    allocated kernels must leave identical global memory), the sanitized
    replay behind [crat sanitize --validate], and — through an observer —
    the dynamic counters of {!Profile} and the warp log of {!Trace}. *)

type observer = Interp.warp -> pc:int -> mask:int -> Interp.exec -> unit
(** Called after every warp step with the warp, the pc and active mask
    it had before the step, and what the step did. Lane addresses of an
    [E_mem] step are readable through {!Interp.mem_count}/
    {!Interp.mem_lane}/{!Interp.mem_addr} until the warp's next step. *)

val run :
  ?observe:observer -> ?sanitize:Sancheck.runtime -> ?ctaid:int -> Launch.t -> unit
(** Execute the blocks sequentially, mutating the launch's global
    memory in place. Within a block, each warp runs until it reaches a
    barrier or exits; the barrier is released once every live warp
    waits on it. [ctaid] runs that one block instead of the whole grid.
    [sanitize] arms the hybrid sanitizer in the underlying {!Interp};
    its counters belong to the caller. An exception raised by [observe]
    aborts the run.
    @raise Failure on barrier deadlock or divergent return. *)

val run_to_memory : Launch.t -> Memory.t
(** Like {!run} but on a copy of the launch's memory; returns the
    resulting memory. *)
