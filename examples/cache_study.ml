(* Section 5.1: how cache misses dilute the gains of parallel issue.
   Sweeps the miss penalty on a blocking cache and reports the speedup a
   3-issue machine retains over single issue.

     dune exec examples/cache_study.exe *)

open Ilp_machine

let () =
  print_string (Ilp_core.Experiments.render_table5_1 ());
  print_newline ();
  print_string Ilp_core.Experiments.(measure (render_sec5_1 ()));
  Fmt.pr "@.miss-penalty sweep (stanford, 64-line cache, 3-issue vs 1-issue):@.@.";
  let w =
    match Ilp_workloads.Registry.find "stanford" with
    | Some w -> w
    | None -> assert false
  in
  Fmt.pr "%8s  %12s  %12s  %8s@." "penalty" "1-issue cyc" "3-issue cyc"
    "speedup";
  List.iter
    (fun penalty ->
      let cycles config =
        let cache =
          Ilp_sim.Cache.create ~lines:64 ~line_words:4 ~penalty ()
        in
        (Ilp_core.Ilp.measure ~cache ~level:Ilp_core.Ilp.O4 config
           w.Ilp_workloads.Workload.source)
          .Ilp_sim.Metrics.base_cycles
      in
      let narrow = cycles Presets.base in
      let wide = cycles (Presets.superscalar 3) in
      Fmt.pr "%8d  %12.0f  %12.0f  %8.2f@." penalty narrow wide
        (narrow /. wide))
    [ 0; 6; 12; 30; 70 ];
  Fmt.pr
    "@.As the miss penalty grows toward the paper's 'future machine' (70@.\
     cycles, Table 5-1), the parallel-issue speedup collapses: cache@.\
     behaviour, not issue width, bounds performance.@."
