(** The top-level compilation and measurement pipeline — the paper's
    "parameterizable code reorganization and simulation system".

    A MiniMod source compiles for a machine configuration at one of five
    cumulative optimization levels (the x-axis of Figure 4-8); the
    resulting program runs on the functional simulator while the
    machine's timing model counts cycles.

    The level's pass sequence is an explicit list of named passes
    ({!pipeline}).  [?check] validates the IR after every pass and
    raises {!Pass_failed} naming the offending pass; [?on_pass] observes
    the program after every pass (the differential oracle
    [Diffcheck] executes these snapshots against each other). *)

open Ilp_ir
open Ilp_machine

(** Cumulative optimization levels:
    - [O0]: no optimization at all (every variable in memory, original
      instruction order);
    - [O1]: + pipeline instruction scheduling;
    - [O2]: + intra-block optimizations (constant folding, local CSE and
      copy propagation, dead code elimination);
    - [O3]: + global optimizations (loop-invariant code motion,
      dominator-based global CSE);
    - [O4]: + global register allocation (home promotion).

    Expression-temporary allocation always runs; the temp-pool size
    comes from the machine configuration, as in Section 3. *)
type opt_level = O0 | O1 | O2 | O3 | O4

val opt_level_name : opt_level -> string
val all_levels : opt_level list
val level_rank : opt_level -> int
val at_least : opt_level -> opt_level -> bool

type unroll_spec = {
  mode : Ilp_lang.Unroll.mode;
  factor : int;
  bounds : bool;
      (** enable bound-aware full unroll / remainder peeling for loops
          with known trip counts *)
}

type pass = {
  pass_name : string;  (** e.g. ["dce"], ["post_global.const_fold"] *)
  pass_stage : Validate.stage;
      (** the well-formedness stage the program must satisfy {e after}
          this pass runs *)
  pass_run : Program.t -> Program.t;
  pass_verify :
    (before:Program.t ->
    after:Program.t ->
    Ilp_analysis.Diagnostics.t list)
    option;
      (** independent before/after verification run under [?check] —
          the register-allocation checkers
          ({!Ilp_regalloc.Regalloc_verify}) on ["global_alloc"] and
          ["temp_alloc"] *)
}
(** One named IR-to-IR stage of the compilation pipeline. *)

exception Pass_failed of { pass : string; issue : string }
(** Raised under [?check] when a pass breaks an invariant: IR
    well-formedness ({!Validate}, including register-file bounds at
    [`Allocated]) or an error-severity static lint finding
    ({!Ilp_analysis.Lint}) after any pass, a failed [pass_verify], or
    schedule illegality ({!Ilp_sched.Check_sched}) after
    ["list_sched"]. *)

val frontend : string -> Ilp_lang.Tast.tprogram
(** Parse and type check. *)

val local_cleanup : Program.t -> Program.t
(** Constant folding, local CSE, DCE — the O2 pass group, also used to
    clean up after the global passes. *)

val pipeline : level:opt_level -> Config.t -> pass list
(** The post-codegen, pre-scheduling pass sequence for [level], in
    execution order (always ending in ["temp_alloc"]).  Folding a
    codegen result through [pass_run] reproduces
    {!compile_unscheduled} exactly. *)

val compile_unscheduled :
  ?unroll:unroll_spec ->
  ?check:bool ->
  ?on_pass:(string -> Validate.stage -> Program.t -> unit) ->
  level:opt_level ->
  Config.t ->
  string ->
  Program.t
(** Everything {!compile} does short of the machine-specific scheduling
    pass: fully register-allocated, unscheduled.  Depends on [config]
    only through [temp_regs]/[home_regs], so configurations agreeing on
    those share one pre-scheduled program — the sharing contract
    [Ilp_sim.Trace_buffer] relies on.

    [?on_pass name stage program] fires after codegen and after every
    pipeline pass; [?check] (default false) validates the IR at each of
    those points and raises {!Pass_failed} naming the first pass whose
    output is malformed. *)

val schedule :
  ?check:bool ->
  ?memdep:bool ->
  ?ranges:bool ->
  ?on_pass:(string -> Validate.stage -> Program.t -> unit) ->
  level:opt_level ->
  Config.t ->
  Program.t ->
  Program.t
(** The final per-block list-scheduling pass (identity below O1).
    Preserves instruction identities, so any two schedules of the same
    {!compile_unscheduled} result are replay-compatible.  [?check]
    verifies the result is a DDG-respecting permutation of the input
    ({!Ilp_sched.Check_sched}) and still well-formed, raising
    {!Pass_failed} with pass ["list_sched"] otherwise.

    [?memdep] (default false) lets the scheduler drop memory
    serialization edges {!Ilp_analysis.Memdep} proves [No_alias]; under
    [?check], every removed edge is re-justified from independently
    recomputed analysis facts.  [?ranges] (default true) enables the
    value-range disambiguation tier inside that analysis. *)

val compile :
  ?unroll:unroll_spec ->
  ?check:bool ->
  ?memdep:bool ->
  ?ranges:bool ->
  ?on_pass:(string -> Validate.stage -> Program.t -> unit) ->
  level:opt_level ->
  Config.t ->
  string ->
  Program.t
(** Compile MiniMod source for [config] at [level]; the result is fully
    register-allocated and (from O1) scheduled for [config].  Equal to
    {!schedule} of {!compile_unscheduled}. *)

val measure :
  ?unroll:unroll_spec ->
  ?level:opt_level ->
  ?memdep:bool ->
  ?cache:Ilp_sim.Cache.t ->
  Config.t ->
  string ->
  Ilp_sim.Metrics.run
(** Compile (default O4) and measure in one step: capture the binary's
    trace and replay it ({!Ilp_sim.Metrics.measure_replay}). *)
