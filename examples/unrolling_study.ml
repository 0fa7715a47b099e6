(* Loop unrolling and available parallelism (the Figure 4-6 experiment),
   plus a look at the scheduled code so the effect is visible.

     dune exec examples/unrolling_study.exe *)

let () =
  print_string Ilp_core.Experiments.(measure (render_fig4_6 ()));
  (* show the scheduled inner loop at careful 4x *)
  let w =
    match Ilp_workloads.Registry.find "linpack" with
    | Some w -> w
    | None -> assert false
  in
  let config =
    Ilp_machine.Config.make "ss16-40temps" ~issue_width:16 ~temp_regs:40
  in
  let program =
    Ilp_core.Ilp.compile
      ~unroll:
        { Ilp_core.Ilp.mode = Ilp_lang.Unroll.Careful; factor = 4;
          bounds = false }
      ~level:Ilp_core.Ilp.O4 config
      (Ilp_workloads.Workload.source_for_mode w `Careful)
  in
  match Ilp_ir.Program.find_function program "daxpy" with
  | Some f ->
      Fmt.pr "@.daxpy after careful 4x unrolling, scheduled for a wide machine@.";
      Fmt.pr "(note the four independent load/multiply/add/store chains):@.@.";
      Fmt.pr "%a@." Ilp_ir.Func.pp f
  | None -> ()
