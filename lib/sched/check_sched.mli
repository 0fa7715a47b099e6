(** Schedule legality checking.

    A scheduled block is legal when it is a permutation of the input
    block whose order respects every edge of the input block's
    dependence graph ({!Ddg.build}).  Edge weights are irrelevant to
    legality: the scheduler emits an issue {e order} and the in-order
    timing model re-derives every stall at simulation time, so ignoring
    a latency costs cycles, never correctness.  For the same reason the
    [branch_ends_packet] ablation needs no legality condition — it
    narrows issue groups inside the timing model and the emitted order
    is oblivious to issue-group boundaries.

    Run by {!Ilp_core.Ilp.schedule} after list scheduling when checking
    is enabled, and directly by the test suite's injected-defect
    tests. *)

open Ilp_ir
open Ilp_machine

exception Illegal of string
(** The scheduled code is not a DDG-respecting permutation of the
    input: an instruction was dropped, duplicated or invented, a
    dependence edge points backwards in the emitted order, the
    terminator is no longer last, or the block/function structure
    changed. *)

val check_block :
  ?classify:(Instr.t -> Instr.t -> Ilp_analysis.Memdep.alias) ->
  Config.t ->
  original:Block.t ->
  scheduled:Block.t ->
  unit
(** The checker always rebuilds the {e conservative} DDG of the
    original block.  A violated edge is legal only when [classify] is
    supplied, the edge carries nothing but the memory-ordering hazard
    ({!Ddg.kind_mem}), and the classifier — recomputed here from the
    original code, independently of whatever the scheduler used —
    proves the pair [No_alias]. *)

val check_func :
  ?memdep:bool ->
  ?ranges:bool ->
  Config.t ->
  original:Func.t ->
  scheduled:Func.t ->
  unit
(** With [~memdep:true], re-justifies removed edges per block with
    {!Ilp_analysis.Memdep.analyze} of the original function.  The
    analysis runs on demand, so only a schedule that reverses a memory
    edge pays for it. *)

val check_program :
  ?memdep:bool ->
  ?ranges:bool ->
  Config.t ->
  original:Program.t ->
  scheduled:Program.t ->
  unit
(** Check every block of every function; functions and blocks must pair
    up positionally (scheduling never changes program structure). *)
