(* Tests for the extension features: copy coalescing, trace capture,
   per-function profiling, the branch-packet ablation switch, issue
   histograms, and the vector-machine pieces. *)

open Ilp_ir
open Ilp_machine

let r = Reg.phys

(* --- coalescing --- *)

let count_movs (p : Program.t) =
  List.fold_left
    (fun acc (f : Func.t) ->
      List.fold_left
        (fun acc (b : Block.t) ->
          acc
          + List.length
              (List.filter (fun i -> i.Instr.op = Opcode.Mov) b.Block.instrs))
        acc f.Func.blocks)
    0 p.Program.functions

let test_coalesce_folds_move () =
  let v = Reg.virt () in
  let h = r 30 in
  let block =
    [ Builder.li (r 4) 7;
      Instr.make Opcode.Add ~dst:v ~srcs:[ Instr.Oreg (r 4); Instr.Oimm 1 ];
      Instr.make Opcode.Mov ~dst:h ~srcs:[ Instr.Oreg v ] ]
  in
  let f =
    Func.make ~name:"main" ~frame_size:0 ~n_params:0
      [ Block.make (Label.of_string "main") (block @ [ Builder.halt () ]) ]
  in
  let f' = Ilp_opt.Coalesce.run_func f in
  Alcotest.(check int) "one instruction removed" 3 (Func.instr_count f');
  (* the add now writes h directly *)
  let has_direct =
    List.exists
      (fun (b : Block.t) ->
        List.exists
          (fun i -> i.Instr.op = Opcode.Add && i.Instr.dst = Some h)
          b.Block.instrs)
      f'.Func.blocks
  in
  Alcotest.(check bool) "add retargeted" true has_direct

let test_coalesce_blocked_by_intermediate_use () =
  (* h is read between the def and the move: folding would change what
     the reader sees *)
  let v = Reg.virt () in
  let h = r 30 in
  let block =
    [ Builder.li (r 4) 7;
      Instr.make Opcode.Add ~dst:v ~srcs:[ Instr.Oreg (r 4); Instr.Oimm 1 ];
      Instr.make Opcode.Add ~dst:(r 5) ~srcs:[ Instr.Oreg h; Instr.Oimm 0 ];
      Instr.make Opcode.Mov ~dst:h ~srcs:[ Instr.Oreg v ];
      Builder.halt () ]
  in
  let f =
    Func.make ~name:"main" ~frame_size:0 ~n_params:0
      [ Block.make (Label.of_string "main") block ]
  in
  let f' = Ilp_opt.Coalesce.run_func f in
  Alcotest.(check int) "nothing removed" 5 (Func.instr_count f')

let test_coalesce_blocked_by_call () =
  (* a call between def and move clobbers physical destinations *)
  let v = Reg.virt () in
  let h = r 30 in
  let block =
    [ Instr.make Opcode.Add ~dst:v ~srcs:[ Instr.Oreg (r 4); Instr.Oimm 1 ];
      Builder.call (Label.of_string "f");
      Instr.make Opcode.Mov ~dst:h ~srcs:[ Instr.Oreg v ];
      Builder.halt () ]
  in
  let f =
    Func.make ~name:"main" ~frame_size:0 ~n_params:0
      [ Block.make (Label.of_string "main") block ]
  in
  let f' = Ilp_opt.Coalesce.run_func f in
  Alcotest.(check int) "nothing removed" 4 (Func.instr_count f')

let test_coalesce_reduces_benchmark_moves () =
  let w = Option.get (Ilp_workloads.Registry.find "yacc") in
  let config = Presets.base in
  let tast = Ilp_core.Ilp.frontend w.Ilp_workloads.Workload.source in
  let p = Ilp_lang.Codegen.gen_program tast in
  let p = Ilp_core.Ilp.local_cleanup p in
  let p = Ilp_regalloc.Global_alloc.run config p |> Ilp_core.Ilp.local_cleanup in
  let coalesced = Ilp_opt.Coalesce.run p in
  Alcotest.(check bool) "fewer static moves" true
    (count_movs coalesced < count_movs p);
  let sink prog =
    (Ilp_sim.Exec.run (Ilp_regalloc.Temp_alloc.run config prog))
      .Ilp_sim.Exec.sink
  in
  Alcotest.check Helpers.value_testable "semantics preserved" (sink p)
    (sink coalesced)

(* --- trace --- *)

let test_trace_capture () =
  let p =
    Builder.program_of_instrs
      [ Builder.li (r 4) 1; Builder.li (r 5) 2; Builder.add (r 6) (r 4) (r 5) ]
  in
  let entries, outcome = Ilp_sim.Trace.capture ~limit:2 p in
  Alcotest.(check int) "limited to 2" 2 (List.length entries);
  Alcotest.(check int) "outcome complete" 4 outcome.Ilp_sim.Exec.dyn_instrs;
  let rendered = Ilp_sim.Trace.render entries in
  Alcotest.(check bool) "renders li" true
    (String.length rendered > 0 && String.contains rendered 'l')

let test_trace_addresses () =
  let p =
    Builder.program_of_instrs
      [ Builder.li (r 4) 2048;
        Builder.st ~value:(r 4) ~base:(r 4) ~offset:1 ();
        Builder.ld (r 5) ~base:(r 4) ~offset:1 ]
  in
  let entries, _ = Ilp_sim.Trace.capture p in
  let addresses = List.map (fun e -> e.Ilp_sim.Trace.address) entries in
  Alcotest.(check (list int)) "addresses recorded" [ -1; 2049; 2049; -1 ]
    addresses

(* --- per-function profile --- *)

let test_per_function_counts () =
  let src =
    {|
fun helper(x: int) : int { return x * 2; }
fun main() {
  var i : int;
  var s : int = 0;
  for (i = 0; i < 10; i = i + 1) { s = s + helper(i); }
  sink(s);
}
|}
  in
  let outcome = Helpers.run_source src in
  let names = List.map fst outcome.Ilp_sim.Exec.per_function in
  Alcotest.(check bool) "main present" true (List.mem "main" names);
  Alcotest.(check bool) "helper present" true (List.mem "helper" names);
  let total =
    List.fold_left (fun acc (_, c) -> acc + c) 0
      outcome.Ilp_sim.Exec.per_function
  in
  Alcotest.(check int) "counts add up" outcome.Ilp_sim.Exec.dyn_instrs total;
  (* heaviest first *)
  match outcome.Ilp_sim.Exec.per_function with
  | (_, c1) :: (_, c2) :: _ ->
      Alcotest.(check bool) "sorted descending" true (c1 >= c2)
  | _ -> Alcotest.fail "expected at least two functions"

(* --- branch_ends_packet ablation --- *)

let test_branch_packet_costs_cycles () =
  let free = Config.make "free" ~issue_width:4 in
  let limited = Config.make "bep" ~issue_width:4 ~branch_ends_packet:true in
  let instrs =
    [ Builder.li (r 4) 1;
      Builder.beq (r 4) (r 4) (Label.of_string "x");
      Builder.li (r 5) 2;
      Builder.li (r 6) 3 ]
  in
  let cycles config =
    let t = Ilp_sim.Timing.create config in
    List.iter (fun i -> Ilp_sim.Timing.issue t i (-1)) instrs;
    Ilp_sim.Timing.minor_cycles t
  in
  Alcotest.(check bool) "branch packet break costs a cycle" true
    (cycles limited > cycles free);
  (* suite-level: limited config must never beat the free one *)
  let w = Option.get (Ilp_workloads.Registry.find "grr") in
  let s config =
    (Ilp_core.Ilp.measure ~level:Ilp_core.Ilp.O4 config
       w.Ilp_workloads.Workload.source)
      .Ilp_sim.Metrics.speedup
  in
  Alcotest.(check bool) "grr slower with packet breaks" true
    (s limited < s free)

(* --- issue histogram --- *)

let test_issue_histogram_sums () =
  let config = Presets.superscalar 3 in
  let t = Ilp_sim.Timing.create config in
  List.iter
    (fun i -> Ilp_sim.Timing.issue t i (-1))
    (Ilp_sim.Diagram.independent_instrs 9);
  (* three full cycles of 3; the last cycle is still open, so the
     histogram records the closed ones *)
  Alcotest.(check int) "buckets" 4
    (Array.length t.Ilp_sim.Timing.issue_histogram);
  Alcotest.(check int) "two closed 3-wide cycles" 2
    t.Ilp_sim.Timing.issue_histogram.(3)

(* --- vector pieces --- *)

let test_vector_diagram () =
  let d = Ilp_sim.Diagram.render_vector ~vector_length:4 [ "vload"; "vadd" ] in
  Alcotest.(check bool) "mentions vload" true
    (String.length d > 0
    &&
    let lines = String.split_on_char '\n' d in
    List.exists (fun l -> String.length l >= 5 && String.sub l 0 5 = "vload") lines)

let test_vector_equivalence_direction () =
  let re = Ilp_core.Experiments.(measure (sec2_3_vector ())) in
  Alcotest.(check bool) "4-issue beats base" true
    (re.Ilp_core.Experiments.superscalar_cycles_per_element
    < re.Ilp_core.Experiments.base_cycles_per_element)

let tests =
  [ Alcotest.test_case "coalesce folds move" `Quick test_coalesce_folds_move;
    Alcotest.test_case "coalesce blocked by use" `Quick
      test_coalesce_blocked_by_intermediate_use;
    Alcotest.test_case "coalesce blocked by call" `Quick
      test_coalesce_blocked_by_call;
    Alcotest.test_case "coalesce on a benchmark" `Quick
      test_coalesce_reduces_benchmark_moves;
    Alcotest.test_case "trace capture" `Quick test_trace_capture;
    Alcotest.test_case "trace addresses" `Quick test_trace_addresses;
    Alcotest.test_case "per-function counts" `Quick test_per_function_counts;
    Alcotest.test_case "branch packet ablation" `Quick
      test_branch_packet_costs_cycles;
    Alcotest.test_case "issue histogram" `Quick test_issue_histogram_sums;
    Alcotest.test_case "vector diagram" `Quick test_vector_diagram;
    Alcotest.test_case "vector equivalence" `Slow
      test_vector_equivalence_direction ]
