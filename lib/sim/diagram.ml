(* ASCII pipeline-occupancy diagrams, reproducing the execution diagrams
   of Section 2 (Figures 2-1 through 2-7) and the start-up transient of
   Figure 4-2.

   Instructions are rows; time runs left to right in minor cycles, with
   '|' marks between base cycles.  Stages:

     F  instruction fetch          (one base cycle, i.e. [m] minor cycles)
     D  decode                     (one base cycle)
     E  execute                    (the operation latency)
     W  write back                 (one base cycle)

   Issue times come from the same in-order issue model used for
   measurement, so structural hazards (class conflicts, issue width)
   appear in the picture exactly as they cost cycles. *)

open Ilp_ir
open Ilp_machine

type row = { instr : Instr.t; issue_at : int; latency : int }

(* Issue the straight-line [instrs] and record issue cycles. *)
let layout (config : Config.t) instrs =
  let timing = Timing.create config in
  List.map
    (fun i ->
      Timing.issue timing i (-1);
      { instr = i;
        issue_at = timing.Timing.now;
        latency = Config.latency config (Instr.iclass i);
      })
    instrs

(* Diagrams show the first 24 base cycles. *)
let render (config : Config.t) instrs =
  let max_cycles = 24 in
  let m = config.Config.pipe_degree in
  let rows = layout config instrs in
  let total_minor = max_cycles * m in
  let buf = Buffer.create 1024 in
  (* header: base cycle numbers *)
  Buffer.add_string buf "           ";
  for c = 0 to max_cycles - 1 do
    Buffer.add_string buf (Printf.sprintf "|%-*d" m (c mod 100))
  done;
  Buffer.add_char buf '\n';
  List.iteri
    (fun k r ->
      Buffer.add_string buf
        (Printf.sprintf "%-4s %5s " (Printf.sprintf "i%d" k)
           (Opcode.mnemonic r.instr.Instr.op));
      (* shift by two base cycles so the first instruction's fetch and
         decode stages are visible *)
      let issue_at = r.issue_at + (2 * m) in
      let fetch_start = issue_at - (2 * m) in
      let decode_start = issue_at - m in
      let exec_end = issue_at + r.latency in
      let wb_end = exec_end + m in
      for t = 0 to total_minor - 1 do
        if t mod m = 0 then Buffer.add_char buf '|';
        let c =
          if t >= fetch_start && t < decode_start then 'F'
          else if t >= decode_start && t < issue_at then 'D'
          else if t >= issue_at && t < exec_end then 'E'
          else if t >= exec_end && t < wb_end then 'W'
          else ' '
        in
        Buffer.add_char buf c
      done;
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

(* A stream of [n] mutually independent single-cycle instructions
   (distinct destination registers, no shared sources). *)
let independent_instrs ?(cls = `Int) n =
  List.init n (fun k ->
      let dst = Reg.phys (10 + k) in
      match cls with
      | `Int ->
          Instr.make Opcode.Add ~dst ~srcs:[ Instr.Oreg (Reg.phys 4); Instr.Oimm k ]
      | `Mixed ->
          let ops = [| Opcode.Add; Opcode.Ld; Opcode.Fadd; Opcode.Shl |] in
          let op = ops.(k mod 4) in
          if op = Opcode.Ld then
            Instr.make Opcode.Ld ~dst ~srcs:[ Instr.Oreg Reg.sp ] ~offset:k
          else Instr.make op ~dst ~srcs:[ Instr.Oreg (Reg.phys 4); Instr.Oimm k ])

(* A serial chain: each instruction consumes the previous result
   (Figure 1-1 (b) style). *)
let dependent_instrs n =
  List.init n (fun k ->
      let dst = Reg.phys (10 + k + 1) in
      let src = Reg.phys (10 + k) in
      Instr.make Opcode.Add ~dst ~srcs:[ Instr.Oreg src; Instr.Oimm 1 ])

(* Figure 2-8: execution in a vector machine.  Vector instructions issue
   serially (one per cycle, as the paper draws for readability); each
   results in a string of element operations, chained so a consumer
   starts one cycle after the first element of its producer. *)
let render_vector ?(vector_length = 8) (ops : string list) =
  let buf = Buffer.create 512 in
  let total = vector_length + List.length ops + 4 in
  Buffer.add_string buf "            ";
  for c = 0 to total - 1 do
    Buffer.add_string buf (Printf.sprintf "|%d" (c mod 10))
  done;
  Buffer.add_char buf '\n';
  List.iteri
    (fun k name ->
      Buffer.add_string buf (Printf.sprintf "%-10s  " name);
      (* fetch/decode in the two cycles before issue; elements chained *)
      let issue = k + 2 in
      for t = 0 to total - 1 do
        Buffer.add_char buf '|';
        let c =
          if t = issue - 2 then 'F'
          else if t = issue - 1 then 'D'
          else if t >= issue && t < issue + vector_length then 'E'
          else if t = issue + vector_length then 'W'
          else ' '
        in
        Buffer.add_char buf c
      done;
      Buffer.add_char buf '\n')
    ops;
  Buffer.contents buf
