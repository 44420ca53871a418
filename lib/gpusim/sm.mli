(** Cycle-level SM timing simulator.

    One streaming multiprocessor executes thread blocks under a TLP
    limit (concurrent blocks), with:
    - [num_schedulers] greedy-then-oldest (GTO) warp schedulers, one
      issue per scheduler per cycle;
    - a scoreboard per warp (RAW/WAW on register slots);
    - a load/store unit with a bounded segment queue; warp accesses are
      coalesced into L1-line segments; MSHR reservation failures replay
      and are charged as cache-congestion stalls;
    - an L1 data cache backed by a (possibly shared) L2, interconnect
      and DRAM bandwidth model; shared memory has fixed latency plus
      bank-conflict serialisation;
    - block-level barriers and a block dispatcher that refills freed
      slots, mirroring the paper's thread-block-level throttling.

    The instruction front-end is pluggable: a live {!Interp} warp
    (functional execution), optionally capturing a {!Replay} trace as a
    side effect ([?record]), or a replay cursor over a previously
    recorded trace ([?replay]) that feeds the timing pipeline the same
    (pc, mask, addresses) stream while skipping operand evaluation and
    register-file writes — replayed statistics are bit-identical to a
    cold run's.

    The stepping API ({!create}/{!step}) lets {!Gpu} advance several SMs
    against one shared memory hierarchy; {!run} is the single-SM
    convenience wrapper used throughout the experiments. *)

exception Cycle_limit of Stats.t

(** The levels behind the per-SM L1: shared between SMs in a multi-SM
    simulation. *)
type shared_memsys

val make_shared : Config.t -> shared_memsys
val shared_dram_bytes : shared_memsys -> int
val shared_l2_stats : shared_memsys -> Cache.stats

type t

val create :
  ?scheduler:[ `Gto | `Lrr ]
  -> ?dynamic_tlp:bool
      (** DynCTA-style runtime throttling (Kayiran et al., the paper's
          reference [3]): a controller samples cache-congestion pressure
          each window and pauses/resumes resident thread blocks. The
          OptTLP baseline is this technique's offline-profiled optimum *)
  -> ?bypass_global:bool
      (** static L1 bypassing for global traffic (loads and stores go
          straight to the interconnect/L2); local spill traffic still
          caches. An extension hook: the paper notes CRAT composes with
          cache-bypassing techniques *)
  -> ?record:Replay.t
      (** capture the dynamic trace into this (empty) trace while
          executing functionally; exclusive with [?replay] *)
  -> ?replay:Replay.t
      (** drive the timing pipeline from this recorded trace instead of
          executing functionally; the launch's geometry must match the
          trace's, and global memory is left untouched *)
  -> Config.t
  -> shared_memsys
  -> next_block:(unit -> int option)
      (** global block dispenser: called whenever a slot frees; [None]
          when the grid is exhausted *)
  -> Launch.t
  -> t
(** [launch.num_blocks] is only used for the kernel's [%nctaid]; block
    ids come from [next_block]. The launch's [warp_size] must equal the
    configuration's. *)

val step : t -> unit
(** Advance one cycle. *)

val busy : t -> bool
(** Blocks resident or still obtainable from the dispenser. *)

val stats : t -> Stats.t
(** Live statistics (cycles updated on {!finalize}). *)

val finalize : t -> Stats.t
(** Stamp cycle count and copy L1/L2 statistics into the result. *)

val run :
  ?max_cycles:int
  -> ?scheduler:[ `Gto | `Lrr ]
  -> ?bypass_global:bool
  -> ?dynamic_tlp:bool
  -> ?record:Replay.t
  -> ?replay:Replay.t
  -> Config.t
  -> Launch.t
  -> Stats.t
(** Single-SM convenience: private memory hierarchy, sequential block
    ids [0 .. num_blocks-1]; the launch's [tlp_limit] bounds concurrent
    blocks. Stretches of cycles in which every scheduler provably
    repeats its stall are skipped in one jump, with the statistics
    {!step}-ping through them would give.
    @raise Cycle_limit when [max_cycles] (default 40_000_000) elapses. *)
