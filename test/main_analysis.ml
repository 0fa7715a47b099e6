(* One of two test runners; main_pipeline.ml runs the other suites. *)

let () =
  Alcotest.run "ilp-analysis"
    [ ("unroll", Test_unroll.tests);
      ("workloads", Test_workloads.tests);
      ("analysis", Test_analysis.tests);
      ("dataflow", Test_dataflow.tests);
      ("check", Test_check.tests);
      ("memdep", Test_memdep.tests);
      ("range", Test_range.tests);
      ("properties", Test_properties.tests) ]
