type t =
  { mutable cycles : int
  ; mutable warp_instrs : int
  ; mutable thread_instrs : int
  ; mutable issue_cycles : int
  ; mutable stall_scoreboard : int
  ; mutable stall_mem_congestion : int
  ; mutable stall_barrier : int
  ; mutable stall_idle : int
  ; mutable lsu_replay_cycles : int
  ; mutable global_load_lanes : int
  ; mutable global_store_lanes : int
  ; mutable local_load_lanes : int
  ; mutable local_store_lanes : int
  ; mutable shared_load_lanes : int
  ; mutable shared_store_lanes : int
  ; mutable shared_bank_conflicts : int
  ; mutable global_segments : int
  ; mutable local_segments : int
  ; l1 : Cache.stats
  ; l2 : Cache.stats
  ; mutable dram_bytes : int
  ; mutable blocks_completed : int
  ; mutable max_concurrent_blocks : int
  ; mutable sfu_instrs : int
  ; mutable alu_instrs : int
  }

let create () =
  { cycles = 0
  ; warp_instrs = 0
  ; thread_instrs = 0
  ; issue_cycles = 0
  ; stall_scoreboard = 0
  ; stall_mem_congestion = 0
  ; stall_barrier = 0
  ; stall_idle = 0
  ; lsu_replay_cycles = 0
  ; global_load_lanes = 0
  ; global_store_lanes = 0
  ; local_load_lanes = 0
  ; local_store_lanes = 0
  ; shared_load_lanes = 0
  ; shared_store_lanes = 0
  ; shared_bank_conflicts = 0
  ; global_segments = 0
  ; local_segments = 0
  ; l1 = Cache.fresh_stats ()
  ; l2 = Cache.fresh_stats ()
  ; dram_bytes = 0
  ; blocks_completed = 0
  ; max_concurrent_blocks = 0
  ; sfu_instrs = 0
  ; alu_instrs = 0
  }

let ipc t =
  if t.cycles = 0 then 0. else float_of_int t.warp_instrs /. float_of_int t.cycles

let l1_hit_rate t = Cache.read_hit_rate t.l1

let mem_stall_fraction t =
  let total =
    t.issue_cycles + t.stall_scoreboard + t.stall_mem_congestion
    + t.stall_barrier + t.stall_idle
  in
  if total = 0 then 0.
  else float_of_int t.stall_mem_congestion /. float_of_int total

let local_accesses t = t.local_load_lanes + t.local_store_lanes

let pp fmt t =
  Format.fprintf fmt
    "cycles=%d instrs=%d ipc=%.3f l1_hit=%.3f mem_stall=%.3f blocks=%d@."
    t.cycles t.warp_instrs (ipc t) (l1_hit_rate t) (mem_stall_fraction t)
    t.blocks_completed;
  Format.fprintf fmt
    "  lanes: gld=%d gst=%d lld=%d lst=%d sld=%d sst=%d; segs: g=%d l=%d@."
    t.global_load_lanes t.global_store_lanes t.local_load_lanes
    t.local_store_lanes t.shared_load_lanes t.shared_store_lanes
    t.global_segments t.local_segments;
  Format.fprintf fmt
    "  stalls: sb=%d mem=%d bar=%d idle=%d replays=%d; dram=%dB bankconf=%d@."
    t.stall_scoreboard t.stall_mem_congestion t.stall_barrier t.stall_idle
    t.lsu_replay_cycles t.dram_bytes t.shared_bank_conflicts

let fingerprint t =
  Printf.sprintf
    "cycles=%d wi=%d ti=%d issue=%d sb=%d memc=%d bar=%d idle=%d replay=%d \
     gld=%d gst=%d lld=%d lst=%d sld=%d sst=%d bankc=%d gseg=%d lseg=%d \
     l1r=%d l1rh=%d l1w=%d l1wh=%d l1rf=%d l1wb=%d l1f=%d \
     l2r=%d l2rh=%d l2w=%d l2wh=%d l2rf=%d l2wb=%d l2f=%d \
     dram=%d blocks=%d maxblk=%d sfu=%d alu=%d"
    t.cycles t.warp_instrs t.thread_instrs t.issue_cycles t.stall_scoreboard
    t.stall_mem_congestion t.stall_barrier t.stall_idle t.lsu_replay_cycles
    t.global_load_lanes t.global_store_lanes t.local_load_lanes
    t.local_store_lanes t.shared_load_lanes t.shared_store_lanes
    t.shared_bank_conflicts t.global_segments t.local_segments t.l1.Cache.reads
    t.l1.Cache.read_hits t.l1.Cache.writes t.l1.Cache.write_hits
    t.l1.Cache.reserve_fails t.l1.Cache.writebacks t.l1.Cache.fills
    t.l2.Cache.reads t.l2.Cache.read_hits t.l2.Cache.writes
    t.l2.Cache.write_hits t.l2.Cache.reserve_fails t.l2.Cache.writebacks
    t.l2.Cache.fills t.dram_bytes t.blocks_completed t.max_concurrent_blocks
    t.sfu_instrs t.alu_instrs
