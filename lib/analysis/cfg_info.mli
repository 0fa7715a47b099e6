(** Control-flow-graph view of a function: blocks as an array, successor
    and predecessor edges, and a reverse postorder for dataflow
    passes. *)

open Ilp_ir

type t = {
  func : Func.t;
  blocks : Block.t array;
  index_of : (string, int) Hashtbl.t;  (** label text -> block index *)
  succs : int list array;
  preds : int list array;
  rpo : int array;  (** reverse postorder of reachable blocks *)
}

val build : Func.t -> t
val n_blocks : t -> int

val positions : t -> int array * Instr.t array
(** Every instruction of the function numbered by position, blocks in
    layout order: [(first, instrs)] where [first.(b)] is the position of
    block [b]'s first instruction and [first.(n_blocks t)] the count. *)

val reachable : t -> int -> bool

val to_func : t -> Block.t array -> Func.t
(** Rebuild the function from (possibly rewritten) blocks. *)
