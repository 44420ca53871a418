(** Per-SM execution statistics collected by the timing simulator; the
    raw material of every figure in the paper's evaluation. *)

type t =
  { mutable cycles : int
  ; mutable warp_instrs : int
  ; mutable thread_instrs : int
  ; mutable issue_cycles : int  (** scheduler-cycles that issued *)
  ; mutable stall_scoreboard : int
      (** scheduler-cycles blocked only by operand dependences *)
  ; mutable stall_mem_congestion : int
      (** scheduler-cycles blocked by cache-resource congestion (LSU queue
          full or MSHR reservation failure) — Figure 5(b) *)
  ; mutable stall_barrier : int
  ; mutable stall_idle : int  (** nothing to schedule *)
  ; mutable lsu_replay_cycles : int  (** L1 reservation-failure retries *)
  ; mutable global_load_lanes : int
  ; mutable global_store_lanes : int
  ; mutable local_load_lanes : int
  ; mutable local_store_lanes : int
  ; mutable shared_load_lanes : int
  ; mutable shared_store_lanes : int
  ; mutable shared_bank_conflicts : int
      (** extra serialisation passes caused by bank conflicts *)
  ; mutable global_segments : int
  ; mutable local_segments : int  (** Figure 16's local-memory accesses *)
  ; l1 : Cache.stats
  ; l2 : Cache.stats
  ; mutable dram_bytes : int
  ; mutable blocks_completed : int
  ; mutable max_concurrent_blocks : int
  ; mutable sfu_instrs : int
  ; mutable alu_instrs : int
  }

val create : unit -> t
val ipc : t -> float
val l1_hit_rate : t -> float
val mem_stall_fraction : t -> float
(** Fraction of scheduler-cycles lost to cache-resource congestion. *)

val local_accesses : t -> int
val pp : Format.formatter -> t -> unit

val fingerprint : t -> string
(** Every field (L1/L2 counters included) on one line in a fixed
    [key=value] format. Two simulator builds are semantics-equivalent
    iff they print the same fingerprints; see [bench/statdump.ml]. *)
