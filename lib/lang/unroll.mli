(** Loop unrolling at the typed-AST level (Figure 4-6).

    The paper unrolled Linpack and Livermore by hand in two ways; both
    are reproduced as mechanical transforms of innermost counted loops:

    - {e naive}: duplicate the loop body, each copy [j] seeing the index
      expression [i + j*step]; the main loop steps by [factor*step] with
      a scalar remainder loop after it.  The normal optimizer then
      removes the redundant computations;
    - {e careful}: additionally (a) reassociate accumulation chains —
      [s = s op e] in copy [j > 0] updates a fresh partial accumulator,
      folded into [s] after the loop — and (b) canonicalise array
      subscripts to [(base) ± constant] form so local CSE unifies the
      base across copies and the scheduler's symbolic disambiguation
      proves stores from early copies independent of loads in later
      copies.

    The {!Bounds} analysis classifies every candidate loop first.
    Degenerate loops (zero step, step fighting the comparison
    direction, a body that assigns the index, a limit expression the
    body invalidates) are always skipped with a per-reason counter —
    unrolling them is a miscompile.  With [~bounds:true], loops whose
    trip count folds to a compile-time constant are additionally
    {e fully unrolled} (trip count ≤ 8: straight-line
    copies, no loop, no remainder) or {e peeled} ([trips mod factor]
    leading copies so the main loop's residual count is an exact
    multiple of the factor — no remainder loop).

    Loops containing [return], and non-innermost loops, are left
    alone. *)

type mode = Naive | Careful

(** Why a candidate loop was left alone. *)
type skip_reason =
  | Degenerate_step  (** [tf_step = 0] *)
  | Direction_mismatch  (** step sign disagrees with the comparison *)
  | Index_mutated  (** the body assigns or re-declares the index *)
  | Limit_mutated
      (** the limit expression is not invariant under the body (the
          lowering re-evaluates it every iteration) *)
  | Has_return  (** the body contains [return] *)
  | Not_innermost  (** the body contains another loop *)

val all_skip_reasons : skip_reason list
(** Every reason, in a fixed order — the order reported interfaces
    (lint [--json]) use. *)

val skip_reason_name : skip_reason -> string
(** Stable snake_case name, e.g. ["degenerate_step"]. *)

type stats = {
  rolled : int;  (** classic factor unrolling with a remainder loop *)
  peeled : int;  (** remainder loop eliminated by peeling *)
  full : int;  (** fully unrolled — no loop left *)
  skipped : (skip_reason * int) list;
      (** one entry per {!skip_reason}, in [all_skip_reasons] order *)
}

val no_stats : stats
(** All-zero statistics (the factor ≤ 1 identity transform). *)

val skip_count : stats -> skip_reason -> int

val program :
  ?bounds:bool ->
  mode ->
  int ->
  Tast.tprogram ->
  Tast.tprogram
(** [program mode factor p]: unroll every innermost counted loop of
    every function by [factor] (1 = identity).  [bounds] (default
    [false]) enables full unroll and peeling for loops with known trip
    counts; loops of at most 8 trips are fully unrolled. *)

val program_stats :
  ?bounds:bool ->
  mode ->
  int ->
  Tast.tprogram ->
  Tast.tprogram * stats
(** [program] plus per-loop transformation and skip counts. *)

val normalize_index : Tast.texpr -> Tast.texpr
(** Careful-mode subscript canonicalisation: flatten an int expression
    into a signed term sum and rebuild it as
    [((pos_1 + ...) - neg_1 - ...) ± constant].  Exposed for tests. *)
