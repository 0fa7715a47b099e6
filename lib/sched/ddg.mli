(** Data-dependence graphs of basic blocks.

    Nodes are the block's instructions; edges carry minimum issue
    distances in (minor) cycles:

    - RAW (flow): producer → consumer, weight = the producer's operation
      latency under the target machine;
    - WAR and WAW: weight 0 — in-order issue reads operands at issue, so
      the pair may share a cycle but must keep its order;
    - memory: store→store and load→store in order (weight 0),
      store→load with weight 1 (store-buffer forwarding), except when
      {!Ilp_ir.Mem_info.disjoint} — or the optional memory-dependence
      classifier — proves the accesses independent;
    - calls are scheduling barriers;
    - a terminator is ordered after every other node. *)

open Ilp_ir
open Ilp_machine

type edges
(** Per (src, dst): the union of {!kind_reg}, {!kind_mem} and
    {!kind_order} bits that contributed the edge; read it with
    {!edge_kinds}. *)

type t = {
  instrs : Instr.t array;
  succs : (int * int) list array;  (** (successor, weight) *)
  preds : (int * int) list array;  (** (predecessor, weight) *)
  n_edges : int;
      (** distinct (src, dst) pairs — a pair carrying several hazards
          (say RAW and WAW) is one edge at the largest weight *)
  kinds : edges;
  n_pruned : int;
      (** memory-hazard pairs the classifier proved [No_alias] where the
          region annotations alone could not — serialization edges the
          conservative graph would carry *)
}

(** Edge-kind bits. *)

val kind_reg : int
(** RAW, WAR or WAW on a register. *)

val kind_mem : int
(** The (refinable) memory-ordering rule. *)

val kind_order : int
(** Call barrier or terminator-last ordering. *)

val edge_kinds : t -> src:int -> dst:int -> int
(** The kind bits of edge (src, dst); [0] when there is no edge. *)

val build :
  ?classify:(Instr.t -> Instr.t -> Ilp_analysis.Memdep.alias) ->
  Config.t ->
  Instr.t list ->
  t
(** Every edge runs forward: [succs.(k)] only contains indices greater
    than [k].  [classify], when given, refines the memory rule: a pair
    it proves {!Ilp_analysis.Memdep.No_alias} keeps no serialization
    edge.  It is only ever consulted on pairs the conservative test
    would serialize, so a classifier that answers [May_alias]
    everywhere reproduces the conservative graph exactly. *)

val heights : Config.t -> t -> int array
(** Critical-path height of each node: the time from the node's issue
    until its whole dependent subtree completes.  The list scheduler's
    priority function. *)

val available_parallelism : Instr.t list -> float
(** Instruction count divided by critical-path length under unit
    latencies, ignoring resource limits — the "parallelism" of code
    fragments as in Figure 1-1 and Figure 4-7. *)
