(** Functional emulator: executes a launch on {!Interp} with no timing
    model. Every functional run executes its blocks here: the
    semantics-preservation oracle (original and allocated kernels must
    leave identical global memory), the sanitized replay behind
    [crat sanitize --validate], through an observer the dynamic counters
    of {!Profile} and the warp log of {!Trace}, and the {!Replay} traces
    {!Sm} times, recorded one block at a time as {!Sm} dispatches it
    ({!record}). *)

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

val record : Replay.t -> Launch.t -> ctaid:int -> unit
(** [record tr l ~ctaid] executes block [ctaid] as {!run} does,
    mutating [l]'s global memory, and appends every warp's issued pcs,
    masks and lane addresses to [tr]'s buffers for that block. The
    block runs on [tr]'s prepared image, so recording a launch block by
    block prepares its kernel once. [tr] must have been created for a
    launch of [l]'s geometry.
    @raise Failure on barrier deadlock or divergent return. *)

val run_to_memory : Launch.t -> Memory.t
(** Like {!run} but on a copy of the launch's memory; returns the
    resulting memory. *)
