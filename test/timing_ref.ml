(* Reference model of the in-order timing rules, for checking
   [Ilp_sim.Timing].

   Written from the paper's Section 3 model as DESIGN.md summarizes it
   (section 1, decisions 1, 2 and 6): in-order issue of at most
   [issue_width] instructions per minor cycle; an instruction waits
   until its sources are ready, until its writes would complete no
   earlier than the register's previous write, and until a copy of a
   functional unit serving its class is free; a branch ends its issue
   packet only under the [branch_ends_packet] ablation; a blocking
   direct-mapped, write-allocate cache stalls the pipeline on a store
   miss and lengthens a load's latency on a load miss.

   The model is deliberately naive: it advances one minor cycle at a
   time, and every cycle it asks again whether the oldest unissued
   instruction may issue.  It keeps its own scoreboard, unit
   reservations and cache tags, and shares no code with [Timing]
   beyond reading the configuration record. *)

open Ilp_ir
open Ilp_machine

(* One dynamic instruction, decoded the way [Timing.issue_decoded]
   takes it. *)
type instr = {
  cls : Iclass.t;
  is_load : bool;
  defs : int array;  (** destination register indices *)
  uses : int array;  (** source register indices *)
  addr : int;  (** word address of a memory access, or -1 *)
}

(* One executed instruction as an executor's observer reports it. *)
let of_instr (i : Instr.t) addr =
  let indices regs = Array.of_list (List.map Reg.index regs) in
  { cls = Instr.iclass i;
    is_load = Instr.is_load i;
    defs = indices (Instr.defs i);
    uses = indices (Instr.uses i);
    addr;
  }

type cache = { lines : int; line_words : int; penalty : int }

type result = {
  issue_cycles : int array;  (** minor cycle each instruction issued in *)
  minor_cycles : int;
  stall_cycles : int;
  instrs : int;
  histogram : int array;
      (** [histogram.(k)]: minor cycles of the run that issued exactly
          [k] instructions *)
  accesses : int;
  misses : int;
}

let run ?cache ~registers (config : Config.t) (stream : instr array) =
  (* [ready.(r)]: first cycle a reader of register [r] may issue, which
     is also the cycle its latest write completes *)
  let ready = Array.make registers 0 in
  (* per declared unit, the first cycle each copy accepts an issue *)
  let units =
    List.map
      (fun (u : Config.unit_spec) -> (u, Array.make u.Config.multiplicity 0))
      config.Config.units
  in
  let tags =
    match cache with Some c -> Array.make c.lines (-1) | None -> [||]
  in
  let accesses = ref 0 and misses = ref 0 in
  let cycle = ref 0 in
  let issued_in_cycle = ref 0 in
  let packet_closed = ref false in
  let blocked_until = ref 0 in
  let stalls = ref 0 in
  let issue_cycles = Array.make (Array.length stream) 0 in
  let next_cycle ~stall =
    if stall then incr stalls;
    incr cycle;
    issued_in_cycle := 0;
    packet_closed := false
  in
  let serves (u : Config.unit_spec) cls = List.mem cls u.Config.classes in
  Array.iteri
    (fun k ins ->
      let latency = ref (Config.latency config ins.cls) in
      (* the cache is probed when the instruction reaches the issue
         stage, in the cycle its predecessor issued *)
      (match cache with
      | Some c when ins.addr >= 0 ->
          incr accesses;
          let line = ins.addr / c.line_words in
          let slot = line mod c.lines in
          if tags.(slot) <> line then begin
            incr misses;
            tags.(slot) <- line;
            if ins.is_load then latency := !latency + c.penalty
            else blocked_until := max !blocked_until (!cycle + c.penalty)
          end
      | Some _ | None -> ());
      let issued = ref false in
      while not !issued do
        if !cycle < !blocked_until then next_cycle ~stall:true
        else if
          !issued_in_cycle >= config.Config.issue_width || !packet_closed
        then next_cycle ~stall:false
        else if
          Array.exists (fun r -> ready.(r) > !cycle) ins.uses
          || Array.exists (fun r -> ready.(r) > !cycle + !latency) ins.defs
        then next_cycle ~stall:true
        else begin
          let constrained = List.exists (fun (u, _) -> serves u ins.cls) units in
          let free =
            List.find_map
              (fun (u, copies) ->
                if not (serves u ins.cls) then None
                else
                  Option.map
                    (fun i -> (u, copies, i))
                    (Array.find_index (fun at -> at <= !cycle) copies))
              units
          in
          match free with
          | None when constrained -> next_cycle ~stall:true
          | _ ->
              Option.iter
                (fun ((u : Config.unit_spec), copies, i) ->
                  copies.(i) <- !cycle + u.Config.issue_latency)
                free;
              Array.iter (fun r -> ready.(r) <- !cycle + !latency) ins.defs;
              incr issued_in_cycle;
              issue_cycles.(k) <- !cycle;
              if config.Config.branch_ends_packet && Iclass.is_control ins.cls
              then packet_closed := true;
              issued := true
        end
      done)
    stream;
  (* the run lasts through the last issue cycle and until the latest
     result is ready *)
  let minor_cycles = Array.fold_left max (!cycle + 1) ready in
  let per_cycle = Array.make minor_cycles 0 in
  Array.iter (fun c -> per_cycle.(c) <- per_cycle.(c) + 1) issue_cycles;
  let histogram = Array.make (config.Config.issue_width + 1) 0 in
  Array.iter (fun n -> histogram.(n) <- histogram.(n) + 1) per_cycle;
  { issue_cycles;
    minor_cycles;
    stall_cycles = !stalls;
    instrs = Array.length stream;
    histogram;
    accesses = !accesses;
    misses = !misses;
  }
