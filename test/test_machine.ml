(* Machine configurations, presets, and the average degree of
   superpipelining (Table 2-1). *)

open Ilp_ir
open Ilp_machine

let test_base_machine () =
  let c = Presets.base in
  Alcotest.(check int) "issue width" 1 c.Config.issue_width;
  Alcotest.(check int) "pipe degree" 1 c.Config.pipe_degree;
  List.iter
    (fun cls ->
      Alcotest.(check int) (Iclass.name cls ^ " latency") 1 (Config.latency c cls))
    Iclass.all

let test_superscalar () =
  let c = Presets.superscalar 4 in
  Alcotest.(check int) "width 4" 4 c.Config.issue_width;
  Alcotest.(check int) "degree 1" 1 c.Config.pipe_degree;
  Alcotest.(check int) "unit latency" 1 (Config.latency c Iclass.Add_sub)

let test_superpipelined () =
  let c = Presets.superpipelined 3 in
  Alcotest.(check int) "width 1" 1 c.Config.issue_width;
  Alcotest.(check int) "degree 3" 3 c.Config.pipe_degree;
  (* all latencies scale with the degree *)
  List.iter
    (fun cls ->
      Alcotest.(check int) (Iclass.name cls ^ " latency") 3 (Config.latency c cls))
    Iclass.all

let test_sps () =
  let c = Presets.superpipelined_superscalar ~n:2 ~m:4 in
  Alcotest.(check int) "width" 2 c.Config.issue_width;
  Alcotest.(check int) "degree" 4 c.Config.pipe_degree;
  Alcotest.(check int) "latency" 4 (Config.latency c Iclass.Logical)

let test_invalid_configs () =
  Alcotest.check_raises "zero width" (Invalid_argument "Config.make: issue_width < 1")
    (fun () -> ignore (Config.make "bad" ~issue_width:0));
  Alcotest.check_raises "zero degree" (Invalid_argument "Config.make: pipe_degree < 1")
    (fun () -> ignore (Config.make "bad" ~pipe_degree:0))

let test_impossible_units () =
  let mk ~issue_latency ~multiplicity =
    Config.make "bad"
      ~units:
        [ { Config.unit_name = "alu";
            classes = [ Iclass.Add_sub ];
            issue_latency;
            multiplicity;
          } ]
  in
  Alcotest.check_raises "zero copies"
    (Invalid_argument "Config.make: unit alu: multiplicity < 1") (fun () ->
      ignore (mk ~issue_latency:1 ~multiplicity:0));
  Alcotest.check_raises "zero issue latency"
    (Invalid_argument "Config.make: unit alu: issue_latency < 1") (fun () ->
      ignore (mk ~issue_latency:0 ~multiplicity:1));
  Alcotest.check_raises "negative issue latency"
    (Invalid_argument "Config.make: unit alu: issue_latency < 1") (fun () ->
      ignore (mk ~issue_latency:(-2) ~multiplicity:2));
  Alcotest.(check int) "smallest valid unit accepted" 1
    (List.length (mk ~issue_latency:1 ~multiplicity:1).Config.units)

let test_multititan_latencies () =
  let c = Presets.multititan in
  Alcotest.(check int) "logical 1" 1 (Config.latency c Iclass.Logical);
  Alcotest.(check int) "load 2" 2 (Config.latency c Iclass.Load);
  Alcotest.(check int) "branch 2" 2 (Config.latency c Iclass.Branch);
  Alcotest.(check int) "fp 3" 3 (Config.latency c Iclass.Fp_add)

let test_cray1_latencies () =
  let c = Presets.cray1 () in
  Alcotest.(check int) "shift 2" 2 (Config.latency c Iclass.Shift);
  Alcotest.(check int) "addsub 3" 3 (Config.latency c Iclass.Add_sub);
  Alcotest.(check int) "load 11" 11 (Config.latency c Iclass.Load);
  Alcotest.(check int) "store 1" 1 (Config.latency c Iclass.Store);
  Alcotest.(check int) "fp 7" 7 (Config.latency c Iclass.Fp_add)

(* The headline numbers of Table 2-1. *)
let test_average_degree_table_2_1 () =
  let mt =
    Superpipelining.average_degree Presets.multititan
      Superpipelining.paper_frequencies
  in
  Helpers.check_float "MultiTitan avg degree" 1.7 mt;
  let cray =
    Superpipelining.average_degree (Presets.cray1 ())
      Superpipelining.paper_frequencies
  in
  Helpers.check_float "CRAY-1 avg degree" 4.4 cray

let test_average_degree_base_is_one () =
  Helpers.check_float "base machine degree 1" 1.0
    (Superpipelining.average_degree Presets.base
       Superpipelining.paper_frequencies)

let test_superpipelining_table_rows () =
  let rows, total =
    Superpipelining.table Presets.multititan Superpipelining.paper_frequencies
  in
  Alcotest.(check int) "seven active classes" 7 (List.length rows);
  Helpers.check_float "total matches" 1.7 total;
  let contribution_sum =
    List.fold_left
      (fun acc r -> acc +. r.Superpipelining.contribution)
      0.0 rows
  in
  Helpers.check_float "contributions sum to total" total contribution_sum

let test_frequencies_of_assoc () =
  let f =
    Superpipelining.frequencies_of_assoc
      [ (Iclass.Load, 0.5); (Iclass.Store, 0.5) ]
  in
  Helpers.check_float "total" 1.0 (Superpipelining.total f);
  Helpers.check_float "avg over loads/stores on multititan" 2.0
    (Superpipelining.average_degree Presets.multititan f)

let test_unit_constraints () =
  let c = Presets.underpipelined in
  Alcotest.(check bool) "load constrained" true
    (Config.has_unit_constraint c Iclass.Load);
  Alcotest.(check bool) "add unconstrained" false
    (Config.has_unit_constraint c Iclass.Add_sub);
  let conflicted = Presets.superscalar_with_class_conflicts 4 in
  List.iter
    (fun cls ->
      Alcotest.(check bool)
        (Iclass.name cls ^ " has a unit")
        true
        (Config.has_unit_constraint conflicted cls))
    Iclass.all

let test_by_name () =
  Alcotest.(check bool) "base resolves" true (Presets.by_name "base" <> None);
  Alcotest.(check bool) "cray1 resolves" true (Presets.by_name "cray1" <> None);
  Alcotest.(check bool) "unknown rejects" true (Presets.by_name "pdp11" = None)

let test_max_latency () =
  Alcotest.(check int) "base" 1 (Config.max_latency Presets.base);
  Alcotest.(check int) "cray" 25 (Config.max_latency (Presets.cray1 ()))

let tests =
  [ Alcotest.test_case "base machine" `Quick test_base_machine;
    Alcotest.test_case "superscalar" `Quick test_superscalar;
    Alcotest.test_case "superpipelined" `Quick test_superpipelined;
    Alcotest.test_case "superpipelined superscalar" `Quick test_sps;
    Alcotest.test_case "invalid configs rejected" `Quick test_invalid_configs;
    Alcotest.test_case "impossible units rejected" `Quick test_impossible_units;
    Alcotest.test_case "multititan latencies" `Quick test_multititan_latencies;
    Alcotest.test_case "cray1 latencies" `Quick test_cray1_latencies;
    Alcotest.test_case "table 2-1 averages" `Quick test_average_degree_table_2_1;
    Alcotest.test_case "base avg degree = 1" `Quick test_average_degree_base_is_one;
    Alcotest.test_case "table rows consistent" `Quick test_superpipelining_table_rows;
    Alcotest.test_case "frequencies helper" `Quick test_frequencies_of_assoc;
    Alcotest.test_case "unit constraints" `Quick test_unit_constraints;
    Alcotest.test_case "presets by name" `Quick test_by_name;
    Alcotest.test_case "max latency" `Quick test_max_latency ]
