(** Value-range abstract interpretation: a reduced product of an
    interval domain and a congruence (stride) domain.

    The domains are language-agnostic — {!Ilp_lang.Absint} runs them
    structurally over MiniMod functions (with widening at loop heads and
    {!Ilp_lang.Bounds}-aware trip-count refinement) to prove array
    subscripts in bounds, while {!Ir} runs them over IR functions on the
    {!Dataflow.Forward_widen} solver to give {!Memdep} and
    {!Ilp_sched.Static_bound} register and memory-cell ranges.

    Soundness contract shared by every operation: the concrete result of
    the operation on any members of the argument sets is a member of the
    result set.  [join]/[widen] over-approximate set union, [meet]
    over-approximates intersection (returning either argument is always
    legal), and [widen] additionally stabilises every ascending chain. *)

(** Intervals over [int] with infinite endpoints. *)
module Interval : sig
  type bound = Ninf | Fin of int | Pinf

  type t = Bot | Iv of bound * bound  (** invariant: lo <= hi *)

  val top : t
  val of_const : int -> t
  val of_bounds : bound -> bound -> t
  (** Normalises crossed bounds to [Bot]. *)

  val equal : t -> t -> bool
  val join : t -> t -> t
  val meet : t -> t -> t
  val widen : t -> t -> t
  val narrow : t -> t -> t
  val mem : int -> t -> bool
  val pp : t Fmt.t
end

(** Congruence classes [r + k*m].  Modulus [0] means the exact constant
    [r]; modulus [1] is top. *)
module Congruence : sig
  type t = Bot | Cg of int * int  (** invariant: m >= 0, 0 <= r < m when m > 0 *)

  val top : t
  val of_const : int -> t
  val make : int -> int -> t
  (** [make r m], normalised. *)

  val equal : t -> t -> bool
  val join : t -> t -> t
  val meet : t -> t -> t
  val mem : int -> t -> bool
  val pp : t Fmt.t
end

(** The reduced product. *)
module V : sig
  type t = { iv : Interval.t; cg : Congruence.t }

  val top : t
  val bot : t
  val of_const : int -> t
  val of_interval : Interval.t -> t
  val make : Interval.t -> Congruence.t -> t
  (** Reduced: each component sharpens the other (a singleton interval
      becomes an exact congruence, interval endpoints move inward to the
      nearest member of the congruence class, incompatible components
      collapse to bottom). *)

  val is_bot : t -> bool
  val is_const : t -> int option
  val equal : t -> t -> bool
  val join : t -> t -> t
  val meet : t -> t -> t
  val widen : t -> t -> t
  val narrow : t -> t -> t
  val mem : int -> t -> bool

  val of_counted : start:int -> step:int -> trips:int -> t
  (** Exact range of a counted-loop index over all [trips >= 1]
      iterations: interval from [start] to [start + (trips-1)*step]
      and congruence [start mod |step|]. *)

  (** Abstract transfer of the arithmetic the IR and MiniMod share.
      Division and remainder follow OCaml/[Exec] truncated semantics. *)

  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val neg : t -> t
  val div : t -> t -> t
  val rem : t -> t -> t
  val band : t -> t -> t
  val bor : t -> t -> t
  val bxor : t -> t -> t
  val shl : t -> t -> t
  val shr : t -> t -> t
  val bool_result : t
  (** [0, 1] — comparisons and set-on-condition results. *)

  (** Comparison refinement: [assume_lt a b] are sharpened [(a, b)]
      under the assumption that the comparison held. *)

  val assume_lt : t -> t -> t * t
  val assume_le : t -> t -> t * t
  val assume_eq : t -> t -> t * t
  val assume_ne : t -> t -> t * t

  val separated : t -> t -> bool
  (** [separated a b]: no member of [a] equals any member of [b] —
      disjoint intervals or incompatible congruences.  The memory
      no-alias test. *)

  val excludes_zero : t -> bool
  (** Zero is not a member — the nonzero-difference no-alias test. *)

  val pp : t Fmt.t
  val to_string : t -> string
end

(** Register and scalar-memory ranges of an IR function, solved on
    {!Dataflow.Forward_widen} over dense environments.  The environment
    tracks the function's registers, named global scalars and stack
    slots; loads from tracked cells recover the stored range, so loop
    counters that live in stack slots keep their stride through the
    back edge.  {!Memdep} is its client: it numbers the registers and
    reads back the range of every definition and entry value. *)
module Ir : sig
  type t

  val analyze :
    regs:int -> reg:(Ilp_ir.Reg.t -> int) -> Cfg_info.t -> t
  (** [reg] numbers densely in [\[0, regs)] every register the
      function's instructions read or write, and {!Ilp_ir.Instr.ret_reg}. *)

  val def_range : t -> int -> V.t
  (** [def_range t g]: the range, over all executions, of the result of
      the function's [g]-th instruction (counting every instruction of
      every block in layout order); top for an instruction without a
      destination or in a block the analysis never reached. *)

  val entry_range : t -> int -> V.t
  (** The range of register number [r] at function entry. *)
end
