(** Trace-driven replay: record a launch's dynamic trace once, replay it
    through the timing layer arbitrarily many times.

    The timing pipeline ({!Sm}'s scoreboard, LSU, coalescer, caches and
    bank-conflict model) consumes only three things per issued warp
    instruction: the pc (indexing {!Dcode}'s per-pc tables), the active
    mask, and — for shared/global/local accesses — the resolved lane
    addresses. All three are invariant across timing configurations for
    a fixed launch (kernel image, geometry, parameters, initial
    memory): this is the trace-mode decoupling of GPGPU-Sim/Accel-Sim.
    {!Emulator.record} captures them per warp in flat growable arrays;
    a {!cursor} then feeds them to the timing layer, skipping {!Dcode}
    operand evaluation and register-file writes entirely. Cursors are
    the only front end {!Sm} has — a cold run records each block as it
    dispatches it — so a replayed run's {!Stats.t} is bit-identical to
    a cold one by construction.

    Traces are keyed by {!launch_key} — kernel image, geometry,
    parameters and a canonical {!Memory.digest} of the initial memory,
    explicitly NOT the timing {!Config.t} or TLP limit — so one
    recording serves a whole multi-config sweep ({!Store}). *)

type wtrace
(** One warp's trace: the issued pc sequence with active masks, plus
    the flat lane-address stream consumed by memory events. *)

type t
(** A whole launch's trace: per-[ctaid] per-warp {!wtrace}s, sharing
    the prepared kernel image. *)

val create : Launch.t -> t
(** Empty trace for a launch (prepares the kernel image once; replayed
    runs reuse it and skip {!Image.prepare} too). *)

val image : t -> Image.t
val block_size : t -> int
val num_blocks : t -> int
val warp_size : t -> int

val events : t -> int
(** Total recorded footprint: issued instructions plus recorded lane
    addresses — the unit of the {!Store} budget. *)

(** {2 Recording} *)

val wtrace : t -> ctaid:int -> wid:int -> wtrace
(** The warp's trace buffer. Recording appends; a warp is recorded at
    most once per launch (block ids are dispensed globally). *)

val record : wtrace -> pc:int -> mask:int -> unit
(** Append one issued instruction. For a memory instruction
    ([Dcode.exec_of.(pc)] is [E_mem]), exactly [Dcode.popcount mask] lane
    addresses must follow via {!record_addr} before the next {!record}. *)

val record_addr : wtrace -> int64 -> unit

val finish : t -> unit
(** Shrink every warp buffer to its recorded length. Call once after a
    successful recording run, before storing the trace. *)

(** {2 Replay} *)

type cursor
(** A replay front-end over one warp's trace: the stepping surface
    {!Sm} issues from, {!fetch}/{!active_mask}/{!step}/{!mem_count}/
    {!mem_addr}. *)

val cursor : t -> ctaid:int -> wid:int -> cursor
val is_done : cursor -> bool
val warp_id : cursor -> int

val fetch : cursor -> int
(** Next pc to issue, or [-1] when the trace is exhausted. *)

val active_mask : cursor -> int

val step : cursor -> Dcode.exec
(** Advance one event; for [E_mem] the lane addresses become available
    through {!mem_count}/{!mem_addr} until the next {!step}. *)

val mem_count : cursor -> int
val mem_addr : cursor -> int -> int64

(** {2 Launch keys and the trace store} *)

val launch_key : ?kernel_digest:string -> Launch.t -> string
(** Content key of a launch's dynamic trace: digest over the kernel
    image (pass [kernel_digest] to reuse a memoized digest of
    [l.kernel]), block size, grid size, warp size, parameters and the
    canonical initial-memory digest. Ignores timing configuration and
    [tlp_limit]. The trace is schedule-independent by construction, racy
    kernels included: it is recorded on {!Emulator}'s schedule (blocks
    in dispatch order, each warp run to its next barrier), never on the
    timed interleaving. *)

val to_bytes : t -> string
(** Marshal a finished trace (the whole record, prepared image
    included — all pure data) for a persistent store. *)

val of_bytes : string -> t option
(** Unmarshal a {!to_bytes} payload; [None] when the payload does not
    unmarshal. Only feed this checksummed bytes that {!to_bytes} wrote —
    unmarshalling is not type-safe. *)

(** Thread-safe bounded trace store, keyed by {!launch_key}. *)
module Store : sig
  type trace = t
  type t

  val create :
    ?max_events:int -> ?on_evict:(string -> trace -> unit) -> unit -> t
  (** [max_events] (default [1 lsl 25]) bounds the summed {!events} of
      resident traces; inserting past the budget evicts oldest-first. A
      single trace larger than the whole budget is not stored.
      [on_evict] observes each eviction (key and trace) before the trace
      is dropped — the engine uses it to spill evicted traces to the
      persistent on-disk store instead of losing them. *)

  val find : t -> string -> trace option
  val add : t -> string -> trace -> unit
  val mem : t -> string -> bool
  val length : t -> int
  val events : t -> int
  val clear : t -> unit
end
