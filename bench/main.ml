(* Benchmark harness.

   Running this executable regenerates every table and figure of the
   paper's evaluation (printed first, in paper order), then times the
   reproduction machinery itself with Bechamel: one Test.make per
   table/figure, plus microbenchmarks of the compiler and simulator
   components.

     dune exec bench/main.exe *)

open Bechamel
open Toolkit

(* --jobs N / -j N: domain count for the parallel sweep engine used by
   the regeneration phase (the wall-clock comparisons pin their own job
   counts).  Defaults to the runtime's recommendation for this host. *)
let jobs =
  let rec scan = function
    | ("--jobs" | "-j") :: n :: _ -> int_of_string n
    | _ :: rest -> scan rest
    | [] -> Domain.recommended_domain_count ()
  in
  scan (Array.to_list Sys.argv)

(* --parallel-only: run just the parallel-scaling measurement (writes
   BENCH_parallel.json) and skip the regeneration and Bechamel phases —
   what CI runs to publish the scaling artifact. *)
let parallel_only = Array.exists (( = ) "--parallel-only") Sys.argv

(* --memdep-only: run just the memory-disambiguation study (writes
   BENCH_memdep.json) and skip everything else — what CI runs to
   publish the disambiguation artifact. *)
let memdep_only = Array.exists (( = ) "--memdep-only") Sys.argv

(* --unroll-only: run just the bound-aware unrolling study (writes
   BENCH_unroll.json) and skip everything else — what CI runs to
   publish the unrolling artifact. *)
let unroll_only = Array.exists (( = ) "--unroll-only") Sys.argv

(* --range-only: run just the value-range disambiguation study (writes
   BENCH_rangedep.json) and skip everything else — what CI runs to
   publish the range-sharpening artifact. *)
let range_only = Array.exists (( = ) "--range-only") Sys.argv

(* ------------------------------------------------------------------ *)
(* 1. regenerate every table and figure                                 *)

let regenerate () =
  print_string
    "================================================================\n\
     Reproduction of Jouppi & Wall (ASPLOS 1989): every table & figure\n\
     ================================================================\n\n";
  List.iter
    (fun (name, render) ->
      Printf.printf "---- %s ----\n%!" name;
      print_string (render ());
      print_newline ())
    Ilp_core.Experiments.all

(* ------------------------------------------------------------------ *)
(* 2. serial vs parallel wall clock on fig4_1                           *)

(* The same replay-engine fig4_1 sweep, fanned out over domain pools of
   1, 2, 4 and (if different) one per host core.  Results must be
   bit-identical whatever the job count — checked against the serial
   engine on every run — while the wall clock depends on how many cores
   the host actually has.  The JSON therefore records the real core
   count and a per-jobs time table.  The headline ratio compares jobs=1
   with the widest pool that fits the host's cores; only a 1-core host
   has no such pool, and there the ratio is taken against the widest
   pool and marked ["valid"]: false, because with more jobs than cores
   it measures scheduling overhead, not scaling.  A ratio below 1.0 is
   never called a "speedup". *)
let time_parallel () =
  let wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let with_jobs = Ilp_core.Experiments.with_jobs in
  let serial = Ilp_core.Experiments.fig4_1 () in
  let cores = Domain.recommended_domain_count () in
  let job_counts = List.sort_uniq compare [ 1; 2; 4; cores ] in
  let timings =
    List.map
      (fun j ->
        let s, r =
          wall (fun () -> with_jobs j (fun () -> Ilp_core.Experiments.fig4_1 ()))
        in
        if r <> serial then
          failwith
            (Printf.sprintf "BUG: fig4_1 with jobs=%d differs from serial" j);
        (j, s))
      job_counts
  in
  let time_of j = List.assoc j timings in
  let widest fits =
    List.fold_left (fun acc (j, _) -> if fits j then max acc j else acc) 1
      timings
  in
  let max_jobs =
    if cores > 1 then widest (fun j -> j <= cores) else widest (fun _ -> true)
  in
  let ratio = time_of 1 /. time_of max_jobs in
  let valid = cores >= max_jobs in
  Printf.printf
    "---- fig4_1 parallel engine comparison (host has %d core%s) ----\n"
    cores
    (if cores = 1 then "" else "s");
  List.iter (fun (j, s) -> Printf.printf "jobs=%-3d  %.2f s\n" j s) timings;
  (if ratio >= 1.0 then
     Printf.printf "speedup (jobs=1 vs jobs=%d):   %.2fx\n" max_jobs ratio
   else
     Printf.printf "slowdown (jobs=1 vs jobs=%d):  %.2fx\n" max_jobs
       (1.0 /. ratio));
  if not valid then
    Printf.printf
      "(not a valid scaling measurement: %d job(s) > %d core(s))\n" max_jobs
      cores;
  print_newline ();
  let oc = open_out "BENCH_parallel.json" in
  Printf.fprintf oc "{\n  \"experiment\": \"fig4_1\",\n  \"cores\": %d,\n"
    cores;
  List.iter
    (fun (j, s) -> Printf.fprintf oc "  \"jobs_%d_seconds\": %.3f,\n" j s)
    timings;
  if ratio >= 1.0 then Printf.fprintf oc "  \"speedup\": %.2f,\n" ratio
  else Printf.fprintf oc "  \"slowdown\": %.2f,\n" (1.0 /. ratio);
  Printf.fprintf oc "  \"compared_jobs\": [1, %d],\n  \"valid\": %b\n}\n"
    max_jobs valid;
  close_out oc;
  Printf.printf "wrote BENCH_parallel.json\n\n%!"

(* ------------------------------------------------------------------ *)
(* 3. conservative vs alias-disambiguated scheduling                    *)

(* The memdep study sweep: every (workload, superscalar degree) cell
   scheduled with and without static memory disambiguation, off one
   shared capture per workload.  The JSON records both curves; the run
   fails if no cell shows a strict ILP improvement — the disambiguation
   pipeline's reason to exist. *)
let time_memdep () =
  let rows = Ilp_core.Experiments.memdep_study () in
  Printf.printf
    "---- memory disambiguation (conservative vs alias-aware scheduling) \
     ----\n";
  List.iter
    (fun (r : Ilp_core.Experiments.memdep_row) ->
      Printf.printf "%-10s degree %d:  %.3f -> %.3f  (%+.1f%%)\n" r.md_bench
        r.md_degree r.md_conservative r.md_disambiguated
        (100.0 *. ((r.md_disambiguated /. r.md_conservative) -. 1.0)))
    rows;
  let improved =
    List.exists
      (fun (r : Ilp_core.Experiments.memdep_row) ->
        r.md_disambiguated > r.md_conservative)
      rows
  in
  let regressed =
    List.exists
      (fun (r : Ilp_core.Experiments.memdep_row) ->
        r.md_disambiguated < r.md_conservative)
      rows
  in
  if not improved then
    failwith
      "BUG: no workload shows strictly higher scheduled ILP with \
       disambiguation on";
  if regressed then
    failwith
      "BUG: a workload scheduled strictly worse with disambiguation on";
  print_newline ();
  let oc = open_out "BENCH_memdep.json" in
  Printf.fprintf oc "{\n  \"experiment\": \"memdep\",\n  \"rows\": [";
  List.iteri
    (fun i (r : Ilp_core.Experiments.memdep_row) ->
      Printf.fprintf oc
        "%s\n\
        \    { \"bench\": \"%s\", \"degree\": %d, \"conservative\": %.4f, \
         \"disambiguated\": %.4f }"
        (if i > 0 then "," else "")
        r.md_bench r.md_degree r.md_conservative r.md_disambiguated)
    rows;
  Printf.fprintf oc "\n  ],\n  \"improved\": %b\n}\n" improved;
  close_out oc;
  Printf.printf "wrote BENCH_memdep.json\n\n%!"

(* ------------------------------------------------------------------ *)
(* 4. bound-aware unrolling: full unroll + peeling vs classic curves    *)

(* The fig4_5_unroll grid: naive / careful / careful-peel parallelism
   per benchmark and factor.  The peel curve must never fall below the
   classic careful curve (tiny relative slack for float noise) — peeling
   only removes remainder-loop work, so a regression is a scheduler or
   unroller bug, not a trade-off. *)
let time_unroll () =
  let rows = Ilp_core.Experiments.unroll_study () in
  Printf.printf
    "---- bound-aware unrolling (naive / careful / careful-peel) ----\n";
  List.iter
    (fun (r : Ilp_core.Experiments.unroll_study_row) ->
      Printf.printf "%-10s %-13s" r.us_bench r.us_series;
      List.iter
        (fun (_, s) -> Printf.printf "  %.3f" s)
        r.us_by_factor;
      print_newline ())
    rows;
  let series name bench =
    List.find_opt
      (fun (r : Ilp_core.Experiments.unroll_study_row) ->
        r.us_bench = bench && r.us_series = name)
      rows
  in
  let benches =
    List.sort_uniq compare
      (List.map
         (fun (r : Ilp_core.Experiments.unroll_study_row) -> r.us_bench)
         rows)
  in
  List.iter
    (fun bench ->
      match (series "careful" bench, series "careful-peel" bench) with
      | Some careful, Some peel ->
          List.iter2
            (fun (factor, c) (_, p) ->
              if p < c *. 0.999 then
                failwith
                  (Printf.sprintf
                     "BUG: %s x%d scheduled worse with peeling than with \
                      the classic careful transform (%.4f < %.4f)"
                     bench factor p c))
            careful.us_by_factor peel.us_by_factor
      | _ -> failwith ("BUG: missing unroll-study series for " ^ bench))
    benches;
  print_newline ();
  let oc = open_out "BENCH_unroll.json" in
  Printf.fprintf oc "{\n  \"experiment\": \"fig4_5_unroll\",\n  \"rows\": [";
  List.iteri
    (fun i (r : Ilp_core.Experiments.unroll_study_row) ->
      Printf.fprintf oc
        "%s\n    { \"bench\": \"%s\", \"series\": \"%s\", \"speedups\": { %s } }"
        (if i > 0 then "," else "")
        r.us_bench r.us_series
        (String.concat ", "
           (List.map
              (fun (factor, s) -> Printf.sprintf "\"%d\": %.4f" factor s)
              r.us_by_factor)))
    rows;
  Printf.fprintf oc "\n  ],\n  \"peel_never_below_careful\": true\n}\n";
  close_out oc;
  Printf.printf "wrote BENCH_unroll.json\n\n%!"

(* ------------------------------------------------------------------ *)
(* 5. value-range disambiguation: what the range tier prunes            *)

(* Per workload (rolled or at its shipped unroll factor): DDG edges
   pruned by the symbolic tiers alone vs with the value-range product
   enabled, plus a checksum comparison of the two resulting schedules.
   The range tier only ever adds [No_alias] verdicts, so pruning with
   ranges must dominate everywhere, win strictly somewhere (the
   redblack kernels are built to guarantee it), and never change what
   the program computes. *)
let time_rangedep () =
  let rows = Ilp_core.Experiments.rangedep_study () in
  Printf.printf
    "---- value-range disambiguation (symbolic-only vs range-sharpened) \
     ----\n";
  List.iter
    (fun (r : Ilp_core.Experiments.rangedep_row) ->
      Printf.printf "%-10s %4d pair(s):  pruned %3d -> %3d%s\n" r.rd_bench
        r.rd_pairs r.rd_pruned_sym r.rd_pruned_rng
        (if r.rd_sink_equal then "" else "  CHECKSUM MISMATCH"))
    rows;
  List.iter
    (fun (r : Ilp_core.Experiments.rangedep_row) ->
      if r.rd_pruned_rng < r.rd_pruned_sym then
        failwith
          (Printf.sprintf
             "BUG: %s prunes fewer edges with the range tier on (%d < %d)"
             r.rd_bench r.rd_pruned_rng r.rd_pruned_sym);
      if not r.rd_sink_equal then
        failwith
          (Printf.sprintf
             "BUG: %s computes a different checksum under range-sharpened \
              scheduling"
             r.rd_bench))
    rows;
  let strict =
    List.exists
      (fun (r : Ilp_core.Experiments.rangedep_row) ->
        r.rd_pruned_rng > r.rd_pruned_sym)
      rows
  in
  if not strict then
    failwith
      "BUG: no workload shows strictly more pruning with the range tier on";
  print_newline ();
  let oc = open_out "BENCH_rangedep.json" in
  Printf.fprintf oc "{\n  \"experiment\": \"rangedep\",\n  \"rows\": [";
  List.iteri
    (fun i (r : Ilp_core.Experiments.rangedep_row) ->
      Printf.fprintf oc
        "%s\n\
        \    { \"bench\": \"%s\", \"pairs\": %d, \"pruned_symbolic\": %d, \
         \"pruned_ranges\": %d, \"sink_equal\": %b }"
        (if i > 0 then "," else "")
        r.rd_bench r.rd_pairs r.rd_pruned_sym r.rd_pruned_rng r.rd_sink_equal)
    rows;
  Printf.fprintf oc "\n  ],\n  \"strict_improvement\": %b\n}\n" strict;
  close_out oc;
  Printf.printf "wrote BENCH_rangedep.json\n\n%!"

(* ------------------------------------------------------------------ *)
(* 6. Bechamel suite                                                    *)

let experiment_tests =
  List.map
    (fun (name, render) ->
      Test.make ~name (Staged.stage (fun () -> ignore (render ()))))
    Ilp_core.Experiments.all

(* component microbenchmarks *)

let stanford_source =
  match Ilp_workloads.Registry.find "stanford" with
  | Some w -> w.Ilp_workloads.Workload.source
  | None -> assert false

let yacc_source =
  match Ilp_workloads.Registry.find "yacc" with
  | Some w -> w.Ilp_workloads.Workload.source
  | None -> assert false

let base = Ilp_machine.Presets.base

let compiled_yacc = Ilp_core.Ilp.compile ~level:Ilp_core.Ilp.O4 base yacc_source

let component_tests =
  [ Test.make ~name:"frontend: parse+check stanford"
      (Staged.stage (fun () ->
           ignore (Ilp_lang.Semant.compile_source stanford_source)));
    Test.make ~name:"compile: yacc O4"
      (Staged.stage (fun () ->
           ignore (Ilp_core.Ilp.compile ~level:Ilp_core.Ilp.O4 base yacc_source)));
    Test.make ~name:"compile: yacc O0"
      (Staged.stage (fun () ->
           ignore (Ilp_core.Ilp.compile ~level:Ilp_core.Ilp.O0 base yacc_source)));
    Test.make ~name:"simulate: yacc functional"
      (Staged.stage (fun () -> ignore (Ilp_sim.Exec.run compiled_yacc)));
    Test.make ~name:"schedule: yacc for CRAY-1"
      (Staged.stage (fun () ->
           ignore (Ilp_sched.List_sched.run (Ilp_machine.Presets.cray1 ()) compiled_yacc)))
  ]

let benchmark tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) ~stabilize:false
      ~kde:None ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  Analyze.merge ols instances results

let print_results results =
  Printf.printf "%-55s %16s\n" "benchmark" "time/run";
  Printf.printf "%s\n" (String.make 73 '-');
  match Hashtbl.find_opt results (Measure.label Instance.monotonic_clock) with
  | None -> print_endline "(no results)"
  | Some table ->
      let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) table [] in
      List.iter
        (fun (name, ols) ->
          let estimate =
            match Analyze.OLS.estimates ols with
            | Some (e :: _) -> e
            | _ -> nan
          in
          let pretty =
            if estimate >= 1e9 then Printf.sprintf "%.2f s" (estimate /. 1e9)
            else if estimate >= 1e6 then Printf.sprintf "%.2f ms" (estimate /. 1e6)
            else if estimate >= 1e3 then Printf.sprintf "%.2f us" (estimate /. 1e3)
            else Printf.sprintf "%.0f ns" estimate
          in
          Printf.printf "%-55s %16s\n" name pretty)
        (List.sort compare rows)

let () =
  if parallel_only then begin
    time_parallel ();
    exit 0
  end;
  if memdep_only then begin
    time_memdep ();
    exit 0
  end;
  if unroll_only then begin
    time_unroll ();
    exit 0
  end;
  if range_only then begin
    time_rangedep ();
    exit 0
  end;
  Printf.printf "parallel sweep engine: %d job(s)\n\n%!" jobs;
  Ilp_core.Experiments.with_jobs jobs regenerate;
  print_string
    "================================================================\n\
     Parallel sweep engine: jobs=1 vs jobs=4 wall clock\n\
     ================================================================\n\n";
  time_parallel ();
  print_string
    "================================================================\n\
     Memory disambiguation: conservative vs alias-aware scheduling\n\
     ================================================================\n\n";
  time_memdep ();
  print_string
    "================================================================\n\
     Bound-aware unrolling: full unroll + peeling vs classic curves\n\
     ================================================================\n\n";
  time_unroll ();
  print_string
    "================================================================\n\
     Value-range disambiguation: symbolic-only vs range-sharpened\n\
     ================================================================\n\n";
  time_rangedep ();
  print_string
    "================================================================\n\
     Bechamel timings (one test per table/figure + components)\n\
     ================================================================\n\n";
  Printf.printf "timing experiment drivers (quota 1s each)...\n%!";
  let results =
    benchmark (Test.make_grouped ~name:"experiments" experiment_tests)
  in
  print_results results;
  print_newline ();
  Printf.printf "timing components...\n%!";
  let results = benchmark (Test.make_grouped ~name:"components" component_tests) in
  print_results results
