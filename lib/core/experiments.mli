(** Drivers that regenerate every table and figure of the paper's
    evaluation (Section 7). Each returns one {!table} (title, columns,
    typed rows, summary values) holding the series the paper plots;
    {!pp_table} prints any of them, {!lookup} reads one cell by row key
    and column name. `bench/main.exe` calls these, and EXPERIMENTS.md
    records paper-vs-measured.

    All drivers share one {!Engine.t}: each (kernel image, config,
    input, TLP) simulation runs once across the whole set, and
    sweep-shaped drivers submit their frontier as a batch so
    independent jobs fan across the engine's domains. *)

val geomean : float list -> float

(** {2 Figure tables} *)

type cell =
  | Int of int
  | Float of float * int  (** value, digits printed after the point *)
  | Text of string

type table =
  { title : string
  ; columns : string list
  ; rows : cell list list  (** one cell per column; the first is the row key *)
  ; summary : (string * cell) list  (** named geomean / mean lines *)
  }

val pp_table : Format.formatter -> table -> unit
(** Title, header, one line per row (text left-aligned, numbers
    right-aligned), then one [name: value] line per summary value. *)

val lookup : table -> row:string -> col:string -> cell
(** The cell in column [col] of the one row whose key prints as [row].
    Raises [Invalid_argument] naming the missing column, or the row key
    when no row or several rows carry it. *)

val column : table -> string -> cell list
(** Every row's cell in one column, in row order. Raises
    [Invalid_argument] naming a missing column. *)

val number : cell -> float
(** An [Int] or [Float] cell's value; raises [Invalid_argument] on
    [Text]. *)

(** The four techniques evaluated on one app (Section 7.2). *)
type comparison =
  { app : Workloads.App.t
  ; max_tlp : Baselines.evaluated
  ; opt_tlp : Baselines.evaluated
  ; crat_local : Baselines.evaluated
  ; crat : Baselines.evaluated
  ; plan : Optimizer.plan
  }

(** [compare_app ?backend engine cfg app] evaluates every baseline;
    [backend] (default [Ptx]) selects the register-file model for the
    resource analysis and allocations (see {!Optimizer.plan}). *)
val compare_app :
  ?backend:Machine.Backend.t
  -> Engine.t
  -> Gpusim.Config.t
  -> Workloads.App.t
  -> comparison
val speedup_vs_opt : comparison -> Baselines.evaluated -> float

(** {2 Tables} *)

val tab1 : Engine.t -> Gpusim.Config.t -> Workloads.App.t list -> table
(** Resource-usage parameters, profiled and static OptTLP. *)

val tab2 : Gpusim.Config.t -> table
val tab3 : Workloads.App.t list -> table

(** {2 Characterisation (Section 1-2)} *)

val fig1 : Engine.t -> Gpusim.Config.t -> Workloads.App.t list -> table
val fig2 : Engine.t -> Gpusim.Config.t -> Workloads.App.t -> table
(** The (reg, TLP) design-space surface (stair registers x feasible
    TLPs), speedups normalised to MaxTLP. *)

val fig3 : Engine.t -> Gpusim.Config.t -> Workloads.App.t -> table
(** MaxTLP / OptTLP / OptTLP+Reg / CRAT for one app (default: CFD). *)

val fig5 : Engine.t -> Gpusim.Config.t -> Workloads.App.t list -> table
val fig6 : Engine.t -> Gpusim.Config.t -> Workloads.App.t -> table
(** Registers per thread vs TLP and static instructions after
    allocation. *)

val fig7 : Gpusim.Config.t -> Workloads.App.t list -> table
val fig8 : Engine.t -> Gpusim.Config.t -> Workloads.App.t -> table
(** FDTD case study: register limit sweep plus the choice of which
    sub-stack to host in shared memory (best-gain vs worst-gain);
    speedups vs the 48-register build. *)

(** {2 Framework internals (Sections 4-5)} *)

val fig11 : Engine.t -> Gpusim.Config.t -> Workloads.App.t -> table
(** The full staircase (set ["stairs"]) then the pruned candidates
    (set ["pruned"]). *)

val fig12 : Engine.t -> Gpusim.Config.t -> Workloads.App.t -> table
(** Spill bytes of the linear-scan reference and of the Chaitin-Briggs
    allocator over a register sweep. *)

(** {2 Evaluation (Section 7)} *)

(** The headline sweep, speedups normalised to OptTLP;
    [~backend:Machine] re-runs it on the machine ISA with split
    register files. *)
val fig13 :
  ?backend:Machine.Backend.t
  -> Engine.t
  -> Gpusim.Config.t
  -> Workloads.App.t list
  -> table * comparison list

val fig14 : comparison list -> table
val fig15 : Gpusim.Config.t -> comparison list -> table
val fig16 : comparison list -> table
(** CRAT local-memory accesses / CRAT-local local-memory accesses, for
    the apps where CRAT-local spills. *)

val fig18 : Engine.t -> Gpusim.Config.t -> Workloads.App.t list -> table
val fig20 : Engine.t -> Gpusim.Config.t -> Workloads.App.t list -> table
val energy : comparison list -> table
(** CRAT energy / OptTLP energy. *)

val overhead : Engine.t -> Gpusim.Config.t -> Workloads.App.t list -> table
(** Wall-clock cost of OptTLP by profiling vs by static analysis. Each
    app is profiled on a private serial engine that keeps no traces, so
    every TLP sample is recorded and timed cold; the caller's engine
    runs no simulation here. *)

(** {2 Ablations} — design choices called out in DESIGN.md *)

val ablation_scheduler : Engine.t -> Gpusim.Config.t -> Workloads.App.t list -> table
(** Greedy-then-oldest vs loose-round-robin warp scheduling at each
    app's OptTLP. *)

val ablation_chunk : Engine.t -> Gpusim.Config.t -> Workloads.App.t -> reg:int -> table
(** Algorithm 1 sub-stack granularity: whole-type stacks (the paper) vs
    finer chunks (our extension of the paper's "alternative split
    methods" future work). *)

val ablation_type_strict : Workloads.App.t list -> table
(** PTX type-affinity in colouring (paper Section 5.2): registers used
    with and without the same-type preference. *)

val ablation_allocator : Engine.t -> Gpusim.Config.t -> Workloads.App.t -> reg:int -> table
(** Allocator-quality extensions over the paper: copy coalescing and
    rematerialisation, separately and together, at a spill-inducing
    register limit. *)

val gpu_scaling : Engine.t -> Gpusim.Config.t -> Workloads.App.t -> tlp:int -> table
(** Whole-GPU runs with a growing SM count sharing one L2/DRAM: shows
    bandwidth, not SM count, bounding memory-bound kernels. *)

val extension_bypass : Engine.t -> Gpusim.Config.t -> Workloads.App.t -> table
(** CRAT composed with static L1 bypassing for global traffic (the
    paper's related-work suggestion): MaxTLP, MaxTLP+bypass, CRAT and
    CRAT+bypass. Bypassing frees the whole L1 for spill traffic. *)

val dynamic_tlp : Engine.t -> Gpusim.Config.t -> Workloads.App.t list -> table
(** The paper's OptTLP baseline is the offline-profiled optimum of
    block-level throttling (Kayiran et al.); this runs the *online*
    DynCTA-style controller for comparison: MaxTLP vs dynamic throttling
    vs OptTLP vs CRAT, in cycles. *)

(** {2 Register-file backends} *)

val scalarization : Gpusim.Config.t -> Workloads.App.t list -> table
(** Scalarization off ([Ptx]) vs on ([Machine]) per app: the spill-free
    vector limit under each backend, the scalar footprint, and the TLP
    each backend reaches at its own spill-free point. *)
