(** ASCII pipeline-occupancy diagrams, reproducing the execution
    diagrams of Section 2 (Figures 2-1 … 2-7) and the start-up transient
    of Figure 4-2.

    Instructions are rows; time runs left to right in minor cycles with
    ['|'] marks between base cycles.  Stages: [F]etch and [D]ecode (one
    base cycle each), [E]xecute (the operation latency), [W]rite-back.
    Issue times come from the same in-order model used for measurement,
    so structural hazards appear in the picture exactly as they cost
    cycles. *)

open Ilp_machine

val render : Config.t -> Ilp_ir.Instr.t list -> string
(** The first 24 base cycles of the straight-line [instrs]. *)

val independent_instrs : ?cls:[ `Int | `Mixed ] -> int -> Ilp_ir.Instr.t list
(** [n] mutually independent instructions — all integer adds, or a
    rotating add/load/FP-add/shift mix. *)

val dependent_instrs : int -> Ilp_ir.Instr.t list
(** A serial chain: each instruction consumes its predecessor's result
    (the Figure 1-1 (b) shape). *)

val render_vector : ?vector_length:int -> string list -> string
(** Figure 2-8: vector instructions issue serially, each spawning a
    chained string of element operations ([E] per element). *)
