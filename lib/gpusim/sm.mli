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

    The SM times traces only: every warp issues from a {!Replay.cursor},
    which feeds the timing pipeline the (pc, mask, addresses) stream of
    one warp. A block's trace comes from a previously recorded trace
    ([?replay]) or, failing that, is recorded when the block is
    dispatched, by executing that one block on {!Emulator}
    ({!Emulator.record}). So a cold run and a replay of its trace give
    bit-identical statistics by construction, and a run cut short by
    [Cycle_limit] never executes a block it never dispatched.

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
      (** record each dispatched block into this (empty) trace instead
          of a private one, so the caller can keep it; exclusive with
          [?replay] *)
  -> ?replay:Replay.t
      (** time this recorded trace instead of executing functionally;
          global memory is left untouched *)
  -> Config.t
  -> shared_memsys
  -> next_block:(unit -> int option)
      (** global block dispenser: called whenever a slot frees; [None]
          when the grid is exhausted *)
  -> Launch.t
  -> t
(** [launch.num_blocks] is only used for the kernel's [%nctaid]; block
    ids come from [next_block]. Unless [?replay] is given, each block
    executes whole on {!Emulator}, against the launch's global memory,
    when it is dispatched, before its first instruction issues. The
    launch's [warp_size] must equal the configuration's, and its
    geometry the trace's. *)

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
    blocks. [?record] and [?replay] are as in {!create}: the blocks
    dispatched before the run ends (or raises [Cycle_limit]) have
    executed whole, and no other block has. Stretches of cycles in which every scheduler provably
    repeats its stall are skipped in one jump, with the statistics
    {!step}-ping through them would give.
    @raise Cycle_limit when [max_cycles] (default 40_000_000) elapses. *)
