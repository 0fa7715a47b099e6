(* Reference for the loop counts [Trace_buffer.loop_counts] reads off a
   captured trace's segment visits.

   This is the execution observer [Static_bound] counted with before
   every measurement went through capture and replay.  It watches the
   dynamic instruction stream of the binary itself and recognises a
   back-edge traversal as a latch's last instruction immediately
   followed by the header's first; any other arrival at the header's
   first instruction is an entry.  It shares no code with the trace. *)

open Ilp_ir
module SB = Ilp_sched.Static_bound
module IntSet = Set.Make (Int)

type counters = {
  heads : (int, int) Hashtbl.t;  (** header-first instr id -> loop index *)
  latch_sets : IntSet.t array;
  trav : int array;
  entr : int array;
  mutable prev : int;
}

let counters (t : SB.t) =
  let n = List.length t.SB.bounds in
  let heads = Hashtbl.create n in
  let latch_sets = Array.make n IntSet.empty in
  List.iteri
    (fun k (b : SB.loop_bound) ->
      Hashtbl.replace heads b.SB.sb_header_first k;
      latch_sets.(k) <- IntSet.of_list b.SB.sb_latch_lasts)
    t.SB.bounds;
  { heads;
    latch_sets;
    trav = Array.make n 0;
    entr = Array.make n 0;
    prev = -1;
  }

(* Feed to [Exec.run ~observer]. *)
let observer c (i : Instr.t) (_addr : int) =
  let id = i.Instr.id in
  (match Hashtbl.find_opt c.heads id with
  | Some k ->
      if IntSet.mem c.prev c.latch_sets.(k) then c.trav.(k) <- c.trav.(k) + 1
      else c.entr.(k) <- c.entr.(k) + 1
  | None -> ());
  c.prev <- id

(* The counts, one per loop in the order of [t.bounds]. *)
let counts c =
  List.init (Array.length c.trav) (fun k ->
      { SB.traversals = c.trav.(k); entries = c.entr.(k) })

(* Run [program] once under the observer. *)
let run (t : SB.t) program =
  let c = counters t in
  ignore (Ilp_sim.Exec.run ~observer:(observer c) program);
  counts c
