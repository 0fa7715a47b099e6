(** Differential oracle over the compilation pipeline.

    Executes a workload at stage boundaries and compares observable
    behaviour against the unoptimized reference, proving dynamically
    that every pass preserved semantics.  Every snapshot runs as the
    pass left it, virtual registers included: {!Exec} gives each call
    its own register frame.

    Two comparison strengths:

    - {b cross-stage} ({!compare_semantics}): only the benchmark
      checksum protocol is invariant across optimization — the final
      value of the [__sink] global and the exact sequence of values
      stored to it.  ([__sink] is excluded from home promotion, no pass
      deletes or reorders stores, and same-address stores are totally
      ordered by the DDG.)  Floats compare with a small relative
      tolerance so legal FP reassociation — careful unrolling — is not
      flagged.
    - {b schedule-vs-input} ({!compare_exact}): list scheduling permutes
      instructions but deletes nothing, so dynamic instruction counts,
      per-class counts, the per-address store value sequences, final
      memory (compared with {!Exec.first_difference}) and final
      registers must all match exactly. *)

open Ilp_ir
open Ilp_machine
open Ilp_sim

exception Mismatch of { stage : string; what : string }
(** A stage's observable behaviour diverged from its reference;
    [stage] is the pass or boundary name ("dce", "list_sched",
    "unroll x4", ...). *)

type observation = {
  outcome : Exec.outcome;
  sink_stream : Value.t list;  (** values stored to [__sink], in order *)
  stores_by_addr : (int, Value.t list) Hashtbl.t;
      (** per-address sequence of stored values, in store order *)
}

val observe : ?options:Exec.options -> Program.t -> observation
(** Execute a program, virtual or allocated, recording the dynamic
    store streams alongside the usual outcome. *)

val compare_semantics :
  stage:string -> reference:observation -> observation -> unit

val compare_exact :
  stage:string -> reference:observation -> observation -> unit

type granularity = [ `Boundaries | `Every_pass ]
(** Where to execute: the paper's stage boundaries (post-codegen,
    post-opt, post-regalloc, post-schedule — a handful of executions
    per compile, the default) or after every single pass (best bug
    localisation; the fuzzer uses this on its small programs). *)

val check_unscheduled :
  ?unroll:Ilp.unroll_spec ->
  ?options:Exec.options ->
  ?granularity:granularity ->
  level:Ilp.opt_level ->
  Config.t ->
  string ->
  Program.t
(** The pre-scheduling part of {!check_compile}: compile with [~check],
    execute the chosen snapshots against the post-codegen reference (and
    when unrolling, the reference against the non-unrolled O0 program),
    and return the checked unscheduled program — ready for
    {!Ilp.schedule}.  The sweep engine's capture phase runs this so that
    capture-once/replay-many sweeps pay the differential executions once
    per capture, not once per machine configuration. *)

val check_compile :
  ?unroll:Ilp.unroll_spec ->
  ?options:Exec.options ->
  ?granularity:granularity ->
  ?memdep:bool ->
  level:Ilp.opt_level ->
  Config.t ->
  string ->
  Program.t
(** Compile [source] at [level] with {!Ilp.compile}'s [~check] (static
    IR validation after every pass, schedule legality after
    scheduling), execute the chosen snapshots, and compare each against
    the post-codegen reference of the same compilation; when unrolling,
    additionally compare that reference against the non-unrolled O0
    program.  Returns the final scheduled program.  Raises {!Mismatch}
    on divergence, {!Ilp.Pass_failed} on a static check failure.

    [?memdep] (default false) additionally builds the
    alias-disambiguated schedule ({!Ilp.schedule} with [~memdep:true],
    itself re-checked by [Check_sched]) and compares it
    {!compare_exact}-strictly — per-address store streams — against the
    unscheduled program, so a wrongly pruned dependence edge surfaces as
    a dynamic mismatch.  When both checks pass, the disambiguated
    schedule is the one returned — a checked memdep compilation measures
    the program it proved. *)

val check_workload :
  ?options:Exec.options ->
  ?granularity:granularity ->
  ?memdep:bool ->
  ?levels:Ilp.opt_level list ->
  ?unroll_specs:Ilp.unroll_spec list ->
  Config.t ->
  string ->
  unit
(** {!check_compile} at each of [levels] (default all five) and — at O4
    — each unroll spec in [unroll_specs] (default none). *)
