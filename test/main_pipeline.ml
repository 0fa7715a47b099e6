(* One of two test runners; main_analysis.ml runs the other suites.
   `dune runtest` runs both side by side, and the suites are split so
   that each runner takes about half of the time. *)

let () =
  Alcotest.run "ilp-pipeline"
    [ ("ir", Test_ir.tests);
      ("machine", Test_machine.tests);
      ("lang", Test_lang.tests);
      ("exec", Test_exec.tests);
      ("timing", Test_timing.tests);
      ("sched", Test_sched.tests);
      ("opt", Test_opt.tests);
      ("regalloc", Test_regalloc.tests);
      ("core", Test_core.tests);
      ("extensions", Test_extensions.tests);
      ("validate", Test_validate.tests);
      ("replay", Test_replay.tests);
      ("par", Test_par.tests);
      ("golden", Test_golden.tests) ]
