(** OptTLP determination (paper Section 4.1): by profiling — run each
    TLP in [1, MaxTLP] and keep the fastest — or statically, by
    mimicking GTO scheduling over computation/memory segments with a
    bandwidth and cache-contention model (Fig. 10b). *)

type profile_result =
  { opt_tlp : int
  ; samples : (int * int) list  (** (tlp, cycles), TLP ascending *)
  }

val profile :
  Engine.t
  -> Gpusim.Config.t
  -> Workloads.App.t
  -> ?input:Workloads.App.input
  -> ?kernel:Ptx.Kernel.t
  -> max_tlp:int
  -> unit
  -> profile_result
(** Default kernel: the app's kernel allocated at its default register
    count. The TLP ladder is submitted to the engine as one batch, so
    the samples fan across domains. *)

val estimate_static :
  Gpusim.Config.t -> Workloads.App.t -> ?input:Workloads.App.input -> max_tlp:int -> unit -> int
(** Static GTO-mimicking estimate: pick the TLP maximising modelled
    block throughput, where each warp is a segment sequence, memory
    segments pay a contention- and bandwidth-dependent latency, and
    one warp's compute occupies the pipeline at a time. *)

val mimic_cycles :
  Gpusim.Config.t -> Segments.trace -> warps_per_block:int -> tlp:int -> float
(** Modelled cycles for one wave of [tlp] blocks (exposed for tests and
    the analytical-model ablation). *)
