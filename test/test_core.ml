(* Core-layer tests: the compilation pipeline driver, report rendering,
   pipeline diagrams, and cheap experiment invariants. *)

open Ilp_machine

let test_opt_level_names () =
  Alcotest.(check int) "five levels" 5 (List.length Ilp_core.Ilp.all_levels);
  Alcotest.(check string) "O0 name" "none"
    (Ilp_core.Ilp.opt_level_name Ilp_core.Ilp.O0);
  Alcotest.(check bool) "ranks ordered" true
    (Ilp_core.Ilp.level_rank Ilp_core.Ilp.O0
    < Ilp_core.Ilp.level_rank Ilp_core.Ilp.O4)

let test_report_table () =
  let t =
    Ilp_core.Report.table ~header:[ "a"; "bb" ]
      [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  Alcotest.(check int) "four lines" 4
    (List.length (String.split_on_char '\n' t));
  Alcotest.(check bool) "contains data" true
    (Astring.String.is_infix ~affix:"333" t
     || String.length t > 0 && String.contains t '3')

let test_report_chart () =
  let chart =
    Ilp_core.Report.line_chart
      [ { Ilp_core.Report.label = 'X'; points = [ (1.0, 1.0); (2.0, 2.0) ] } ]
  in
  Alcotest.(check bool) "plots the label" true (String.contains chart 'X');
  Alcotest.(check string) "empty data" "(no data)"
    (Ilp_core.Report.line_chart [])

let test_diagram_shapes () =
  let d =
    Ilp_sim.Diagram.render Presets.base (Ilp_sim.Diagram.independent_instrs 4)
  in
  Alcotest.(check bool) "has execute stage" true (String.contains d 'E');
  Alcotest.(check bool) "has fetch stage" true (String.contains d 'F');
  (* superscalar diagram issues three in the same cycle: three E's in
     the same column; cheap check: diagram renders without exception *)
  let d3 =
    Ilp_sim.Diagram.render (Presets.superscalar 3)
      (Ilp_sim.Diagram.independent_instrs 6)
  in
  Alcotest.(check bool) "superscalar renders" true (String.length d3 > 0)

let test_fig1_1_values () =
  let r = Ilp_core.Experiments.fig1_1 () in
  Helpers.check_float "fragment (a)" 3.0 r.Ilp_core.Experiments.parallel_fragment;
  Helpers.check_float "fragment (b)" 1.0 r.Ilp_core.Experiments.serial_fragment

let test_fig4_3_grid () =
  let grid = Ilp_core.Experiments.fig4_3 () in
  (* bottom row is the superscalar axis 1..5; top row is m=5 *)
  Alcotest.(check (list int)) "m=1 row" [ 1; 2; 3; 4; 5 ]
    (List.nth grid 4);
  Alcotest.(check (list int)) "m=5 row" [ 5; 10; 15; 20; 25 ]
    (List.hd grid)

let test_fig4_7_values () =
  let r = Ilp_core.Experiments.fig4_7 () in
  Helpers.check_float_rel ~tol:0.01 "original 1.67" 1.67
    r.Ilp_core.Experiments.original;
  Helpers.check_float_rel ~tol:0.01 "branch 1.33" 1.33
    r.Ilp_core.Experiments.branch_optimized;
  Helpers.check_float "bottleneck 1.50" 1.5
    r.Ilp_core.Experiments.bottleneck_optimized

let test_table5_1_values () =
  match Ilp_core.Experiments.table5_1 () with
  | [ vax; titan; future ] ->
      Helpers.check_float "vax 0.6" 0.6 vax.Ilp_core.Experiments.miss_cost_instrs;
      Helpers.check_float_rel ~tol:0.01 "titan 8.6" 8.571
        titan.Ilp_core.Experiments.miss_cost_instrs;
      Helpers.check_float "future 140" 140.0
        future.Ilp_core.Experiments.miss_cost_instrs
  | _ -> Alcotest.fail "expected three rows"

let test_experiments_registry () =
  Alcotest.(check bool) "fig4_1 registered" true
    (Ilp_core.Experiments.find "fig4_1" <> None);
  Alcotest.(check bool) "unknown rejected" true
    (Ilp_core.Experiments.find "fig9_9" = None);
  Alcotest.(check bool) "fig4_5_unroll registered" true
    (Ilp_core.Experiments.find "fig4_5_unroll" <> None);
  Alcotest.(check int) "twenty-three experiments" 23
    (List.length Ilp_core.Experiments.all)

let test_sec5_1_analytic () =
  let r = Ilp_core.Experiments.(measure (sec5_1 ())) in
  Helpers.check_float_rel ~tol:0.01 "33 percent" 33.3
    r.Ilp_core.Experiments.analytic_improvement_with_cache;
  Helpers.check_float "100 percent" 100.0
    r.Ilp_core.Experiments.analytic_improvement_no_cache;
  Alcotest.(check bool) "cache dilutes simulated speedup" true
    (r.Ilp_core.Experiments.simulated_speedup_with_cache
    < r.Ilp_core.Experiments.simulated_speedup_no_cache)

let tests =
  [ Alcotest.test_case "opt level names" `Quick test_opt_level_names;
    Alcotest.test_case "report table" `Quick test_report_table;
    Alcotest.test_case "report chart" `Quick test_report_chart;
    Alcotest.test_case "diagram shapes" `Quick test_diagram_shapes;
    Alcotest.test_case "figure 1-1" `Quick test_fig1_1_values;
    Alcotest.test_case "figure 4-3 grid" `Quick test_fig4_3_grid;
    Alcotest.test_case "figure 4-7" `Quick test_fig4_7_values;
    Alcotest.test_case "table 5-1" `Quick test_table5_1_values;
    Alcotest.test_case "experiment registry" `Quick test_experiments_registry;
    Alcotest.test_case "section 5.1" `Slow test_sec5_1_analytic ]
