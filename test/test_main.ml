(* Test runner. *)

let () =
  Alcotest.run "ilp"
    [ ("ir", Test_ir.tests);
      ("machine", Test_machine.tests);
      ("lang", Test_lang.tests);
      ("exec", Test_exec.tests);
      ("timing", Test_timing.tests);
      ("sched", Test_sched.tests);
      ("opt", Test_opt.tests);
      ("regalloc", Test_regalloc.tests);
      ("unroll", Test_unroll.tests);
      ("workloads", Test_workloads.tests);
      ("core", Test_core.tests);
      ("extensions", Test_extensions.tests);
      ("validate", Test_validate.tests);
      ("replay", Test_replay.tests);
      ("par", Test_par.tests);
      ("analysis", Test_analysis.tests);
      ("dataflow", Test_dataflow.tests);
      ("check", Test_check.tests);
      ("memdep", Test_memdep.tests);
      ("range", Test_range.tests);
      ("properties", Test_properties.tests);
      ("golden", Test_golden.tests) ]
