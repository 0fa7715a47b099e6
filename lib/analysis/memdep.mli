(** Static memory-dependence analysis.

    Decides whether two memory instructions of one basic block can
    touch the same word, refining the conservative region test
    ({!Ilp_ir.Mem_info.disjoint}) the scheduler otherwise relies on.
    Two tiers: a flow-sensitive dataflow tracking each register as a
    symbolic base plus constant-offset interval (so values hoisted out
    of the block — loop counters, LICM'd constants — are visible), and
    a per-block symbolic evaluation folding addresses into linear
    combinations of hash-consed terms with exact native-[int]
    arithmetic.  A third tier evaluates symbolic differences that do
    not fold to a constant over the {!Range.V} reduced product: masked
    or scaled index terms with disjoint interval windows or
    incompatible strides prove the difference nonzero even when its
    exact value is unknown.

    Each tier runs only when a verdict needs it: {!analyze} computes
    nothing, the first pair a {!classifier} of the function classifies
    solves the dataflow (numbering the function's registers once), a
    block's first classified pair evaluates that block, and the first
    address difference that does not fold to a constant solves the
    ranges.  A {!t} therefore holds lazy state: classify with it only
    on the domain that created it.

    A [No_alias] verdict is a proof obligation: {!Ilp_sched.Check_sched}
    re-derives it, from the original code and independently, for every
    dependence edge the scheduler dropped that the emitted order
    actually reverses, and [Diffcheck] compares per-address store
    streams dynamically.  [test/memdep_ref.ml] keeps the eager
    analysis as the oracle of a verdict-by-verdict property. *)

open Ilp_ir

type alias = Must_alias | No_alias | May_alias

val equal_alias : alias -> alias -> bool
val pp_alias : alias Fmt.t

val conservative : Instr.t -> Instr.t -> alias
(** The refinement floor: [No_alias] exactly when
    {!Mem_info.disjoint} proves the annotations apart. *)

type t
(** Analysis of one function, computed as its verdicts are asked for. *)

val analyze : ?ranges:bool -> Func.t -> t
(** Records the function; no tier runs yet.  [ranges] (default [true])
    enables the value-range tier; disabling it leaves only the symbolic
    constant-difference test, for measuring what the ranges buy. *)

val classifier : t -> Label.t -> Instr.t -> Instr.t -> alias
(** [classifier t label] classifies instruction pairs of the block
    named [label].  Both instructions must belong to that block;
    anything the analysis has no facts for falls back to
    {!conservative}. *)

val classify_block : Instr.t list -> Instr.t -> Instr.t -> alias
(** A single block in isolation, without cross-block facts — for tests
    and callers holding a bare instruction list. *)

type stats = {
  pairs : int;  (** ordered same-block pairs with at least one store *)
  no_alias : int;  (** pairs proven independent *)
  must_alias : int;  (** pairs proven to touch the same word *)
  pruned : int;
      (** no-alias pairs the conservative rule would have serialized —
          the DDG edges disambiguation removes *)
}

val func_stats : t -> Func.t -> stats
