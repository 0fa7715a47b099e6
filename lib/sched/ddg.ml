(* Data-dependence graph of one basic block.

   Nodes are the block's instructions; edges carry minimum issue
   distances in (minor) cycles:

   - RAW (flow): producer -> consumer, weight = producer's operation
     latency under the target machine;
   - WAR and WAW: weight 0 — in-order issue reads operands at issue, so
     the pair may share a cycle but must keep its order;
   - memory: store->store and load->store in order (weight 0),
     store->load with weight 1 (store-buffer forwarding), except when
     the alias analysis proves the accesses disjoint
     ([Mem_info.disjoint], or the optional [classify] refinement from
     [Ilp_analysis.Memdep] returning [No_alias]);
   - calls are scheduling barriers: ordered after every earlier node and
     before every later one;
   - a terminator is ordered after every other node so it stays last. *)

open Ilp_ir
open Ilp_machine

(* Edge-kind bits: one (src, dst) edge may carry several hazards; the
   legality checker needs to know whether an edge exists for *any*
   reason besides the (refinable) memory rule. *)
let kind_reg = 1
let kind_mem = 2
let kind_order = 4

(* An edge's weight shifted past its kind bits. *)
let kind_bits = 3
let kind_mask = (1 lsl kind_bits) - 1

(* Per destination: its in-edges as [src; packed; src; packed; ...]. *)
type edges = int array array

type t = {
  instrs : Instr.t array;
  succs : (int * int) list array;  (** (dst, weight) *)
  preds : (int * int) list array;  (** (src, weight) *)
  n_edges : int;
  kinds : edges;
  n_pruned : int;
}

let edge_kinds t ~src ~dst =
  if dst < 0 || dst >= Array.length t.kinds then 0
  else
    let ins = t.kinds.(dst) in
    let rec find i =
      if i >= Array.length ins then 0
      else if ins.(i) = src then ins.(i + 1) land kind_mask
      else find (i + 2)
    in
    find 0

let mem_of (i : Instr.t) =
  match i.Instr.mem with Some m -> m | None -> Mem_info.unknown

module Regs = Hashtbl.Make (Int)

(* Every edge added while instruction [k] is processed ends at [k], so
   [k]'s in-edges collect in [slot], indexed by source, with the sources
   touched so far in [touched]; once [k] is done they move into [preds],
   [succs] and [kinds] and the slots are cleared for [k + 1]. *)
let build ?classify (config : Config.t) (instrs : Instr.t list) =
  let instrs = Array.of_list instrs in
  let n = Array.length instrs in
  let succs = Array.make n [] in
  let preds = Array.make n [] in
  let kinds = Array.make n [||] in
  (* packed weight and kinds of the edge from each source to [k], 0 for
     none (every edge has a kind bit) *)
  let slot = Array.make n 0 in
  let touched = Array.make n 0 and n_touched = ref 0 in
  let n_edges = ref 0 in
  let n_pruned = ref 0 in
  (* a pair carrying several hazards keeps the largest weight and the
     union of their kinds *)
  let add_edge ~kind src k weight =
    if src <> k then begin
      let v = slot.(src) in
      if v = 0 then begin
        slot.(src) <- (weight lsl kind_bits) lor kind;
        touched.(!n_touched) <- src;
        incr n_touched
      end
      else
        let w = max weight (v asr kind_bits) in
        slot.(src) <- (w lsl kind_bits) lor (v land kind_mask) lor kind
    end
  in
  let flush k =
    let ins = Array.make (2 * !n_touched) 0 in
    for e = 0 to !n_touched - 1 do
      let src = touched.(e) in
      let v = slot.(src) in
      let weight = v asr kind_bits in
      succs.(src) <- (k, weight) :: succs.(src);
      preds.(k) <- (src, weight) :: preds.(k);
      ins.(2 * e) <- src;
      ins.((2 * e) + 1) <- v;
      slot.(src) <- 0
    done;
    kinds.(k) <- ins;
    n_edges := !n_edges + !n_touched;
    n_touched := 0
  in
  (* last definition and uses-since-definition per register *)
  let last_def : int Regs.t = Regs.create 64 in
  let uses_since : int list Regs.t = Regs.create 64 in
  (* memory operations so far: (index, is_store, mem) *)
  let mem_ops = ref [] in
  let barrier = ref None in
  Array.iteri
    (fun k (i : Instr.t) ->
      let latency_of j =
        Config.latency config (Instr.iclass instrs.(j))
      in
      (* barrier ordering *)
      (match !barrier with Some b -> add_edge ~kind:kind_order b k 0 | None -> ());
      (* RAW *)
      List.iter
        (fun r ->
          match Regs.find_opt last_def (Reg.index r) with
          | Some d -> add_edge ~kind:kind_reg d k (latency_of d)
          | None -> ())
        (Instr.uses i);
      (* WAR and WAW *)
      List.iter
        (fun d ->
          (match Regs.find_opt uses_since (Reg.index d) with
          | Some users -> List.iter (fun u -> add_edge ~kind:kind_reg u k 0) users
          | None -> ());
          match Regs.find_opt last_def (Reg.index d) with
          | Some prev -> add_edge ~kind:kind_reg prev k 0
          | None -> ())
        (Instr.defs i);
      (* memory ordering *)
      if Instr.is_memory i then begin
        let m = mem_of i in
        let is_store = Instr.is_store i in
        List.iter
          (fun (j, j_store, mj) ->
            if (is_store || j_store) && not (Mem_info.disjoint m mj) then
              match classify with
              | Some f
                when f instrs.(j) i = Ilp_analysis.Memdep.No_alias ->
                  (* the value analysis proves the pair apart where the
                     region annotations could not *)
                  incr n_pruned
              | _ ->
                  let weight = if j_store && not is_store then 1 else 0 in
                  add_edge ~kind:kind_mem j k weight)
          !mem_ops;
        mem_ops := (k, is_store, m) :: !mem_ops
      end;
      (* calls: order against everything, and become the new barrier *)
      if Instr.is_call i then begin
        for j = 0 to k - 1 do
          add_edge ~kind:kind_order j k 0
        done;
        barrier := Some k
      end;
      (* terminators stay last *)
      if Instr.is_terminator i then
        for j = 0 to k - 1 do
          add_edge ~kind:kind_order j k 0
        done;
      flush k;
      (* bookkeeping *)
      List.iter
        (fun r ->
          let k' = Reg.index r in
          let prev = Option.value (Regs.find_opt uses_since k') ~default:[] in
          Regs.replace uses_since k' (k :: prev))
        (Instr.uses i);
      List.iter
        (fun d ->
          Regs.replace last_def (Reg.index d) k;
          Regs.replace uses_since (Reg.index d) [])
        (Instr.defs i))
    instrs;
  { instrs;
    succs;
    preds;
    n_edges = !n_edges;
    kinds;
    n_pruned = !n_pruned;
  }

(* Critical-path height of each node: the longest weighted path to any
   sink, plus the node's own latency.  Used as list-scheduling priority.

   Every edge runs from an earlier instruction to a later one ([build]
   only ever adds [j -> k] with [j < k]), so one reverse sweep sees each
   node after all of its successors.  No recursion: a recursive
   formulation follows successor chains and blows the stack on the long
   straight-line blocks high unroll factors produce. *)
let heights (config : Config.t) t =
  let n = Array.length t.instrs in
  let height = Array.make n 0 in
  for k = n - 1 downto 0 do
    (* height = time from this node's issue until the whole dependent
       subtree completes: at least its own latency, or a successor
       path (edge weights already carry the producer latency) *)
    let own = Config.latency config (Instr.iclass t.instrs.(k)) in
    height.(k) <-
      List.fold_left
        (fun acc (s, w) -> max acc (w + height.(s)))
        own t.succs.(k)
  done;
  height

(* The data-dependence parallelism of a block, ignoring resource limits:
   instruction count divided by critical-path length in unit-latency
   terms.  This is the "available parallelism" of code fragments like
   Figure 1-1 and Figure 4-7. *)
let available_parallelism (instrs : Instr.t list) =
  let unit_config = Config.make "unit" in
  let t = build unit_config instrs in
  let n = Array.length t.instrs in
  if n = 0 then 1.0
  else begin
    let h = heights unit_config t in
    let critical = Array.fold_left max 1 h in
    float_of_int n /. float_of_int critical
  end
