(** Per-pc dynamic counters for cross-validating the static advisor.

    Runs a whole launch on the fast interpreter ({!Interp}, through the
    {!Emulator} block driver with an observer on every warp step) and
    records, at every flat instruction index of the kernel's
    {!Cfg.Flow}:

    - memory accesses: execution count, the maximum number of distinct
      L1-line segments a single warp access touched (global and local
      spaces, post local-interleave — exactly what {!Sm.coalesce}
      counts), and the maximum shared-memory bank-conflict degree
      (mirroring {!Sm.bank_conflict_degree});
    - conditional branches: execution count and how many executions
      actually split the warp (read off the active mask: a split
      leaves it a strict non-empty subset of the mask before the
      step).

    The static advisor ({!Verify.Advisor}) must cover every event
    recorded here with a "may" prediction at the same pc, and no
    dynamic maximum may exceed a static bound — the differential
    honesty check run by [crat lint --validate]. *)

type mem_stat =
  { mutable m_execs : int
  ; mutable max_segments : int  (** 0 until a global/local access fires *)
  ; mutable max_bank_degree : int  (** 0 until a shared access fires *)
  ; m_space : Ptx.Types.space
  }

type branch_stat =
  { mutable b_execs : int
  ; mutable b_divergent : int  (** executions where the warp split *)
  }

type t

val run : ?line:int -> ?banks:int -> Launch.t -> t
(** Execute the launch (mutating its global memory in place) and
    collect the counters. Geometry defaults match {!Config.fermi}. *)

val mems : t -> (int * mem_stat) list
(** Per-pc memory counters, ascending by pc. *)

val branches : t -> (int * branch_stat) list
