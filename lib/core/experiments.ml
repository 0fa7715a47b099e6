(* Reproduction drivers for every table and figure of the paper's
   evaluation (see DESIGN.md, experiment index).  Each experiment that
   times programs is a plan: the sweep cells it needs and how it reads
   their runs back, into structured data and then a text rendering.
   The CLI, the tests and perfbench go through these entry points. *)

open Ilp_machine
module W = Ilp_workloads.Workload
module Registry = Ilp_workloads.Registry
module Metrics = Ilp_sim.Metrics
module Pool = Ilp_par.Pool

(* ------------------------------------------------------------------ *)
(* engine selection: serial, or a domain pool shared by every sweep    *)

(* [None]: the plain serial engine (capture and replay jobs run in the
   calling domain, in plan order).  [Some pool]: the same two-phase plan
   with both phases fanned out over the pool; a pool of 1 runs the jobs
   in the calling domain in the same order as the serial engine.  Either
   way every number is bit-identical (see test_par's determinism
   suite). *)
let engine : Pool.t option ref = ref None

(* Run [f] with sweeps fanned out over a fresh [jobs]-domain pool
   ([jobs = 0] forces the serial engine), restoring the previous engine
   afterwards. *)
let with_jobs jobs f =
  let previous = !engine in
  let finish pool () =
    engine := previous;
    Option.iter Pool.shutdown pool
  in
  let pool = if jobs <= 0 then None else Some (Pool.create ~jobs) in
  Fun.protect ~finally:(finish pool) (fun () ->
      engine := pool;
      f ())

let par_map f xs =
  match !engine with None -> Array.map f xs | Some pool -> Pool.map pool f xs

(* When set, every sweep proves its compilations: captures run the
   differential oracle over the pre-scheduling pipeline (Diffcheck, at
   stage-boundary granularity) and every replay's schedule is verified
   as a DDG-respecting permutation (Check_sched) and re-validated.  The
   differential executions happen once per capture — the capture/replay
   split keeps checking cost independent of how many machine
   configurations share a program.  The measured numbers are
   bit-identical with and without checking. *)
let checks : bool ref = ref false

let with_checks enabled f =
  let previous = !checks in
  Fun.protect
    ~finally:(fun () -> checks := previous)
    (fun () ->
      checks := enabled;
      f ())

(* ------------------------------------------------------------------ *)
(* shared measurement helpers                                          *)

(* Resolve a workload's effective unrolling (Linpack ships unrolled 4x)
   and the matching source text. *)
let workload_source ?unroll (w : W.t) =
  let unroll =
    match unroll with
    | Some u -> u
    | None ->
        if w.W.default_unroll > 1 then
          Some
            { Ilp.mode = Ilp_lang.Unroll.Naive;
              factor = w.W.default_unroll;
              bounds = false;
            }
        else None
  in
  let source =
    match unroll with
    | Some { Ilp.mode = Ilp_lang.Unroll.Careful; _ } ->
        W.source_for_mode w `Careful
    | Some _ | None -> w.W.source
  in
  (unroll, source)

(* ------------------------------------------------------------------ *)
(* the two-phase sweep plan                                            *)

(* A blocking data cache for a sweep cell (Section 5.1): the geometry
   only, since every cell simulates its own fresh cache. *)
type cache_geometry = { lines : int; line_words : int; penalty : int }

(* One cell of a sweep: measure [rq_workload], compiled at [rq_level]
   with [rq_unroll] (already resolved against the workload's default),
   on [rq_config], behind a fresh [rq_cache] when one is given. *)
type request = {
  rq_workload : W.t;
  rq_source : string;
  rq_unroll : Ilp.unroll_spec option;
  rq_level : Ilp.opt_level;
  rq_config : Config.t;
  rq_memdep : bool;
      (** schedule with static memory-dependence disambiguation *)
  rq_cache : cache_geometry option;
}

let request ?(level = Ilp.O4) ?unroll ?(memdep = false) ?cache (w : W.t)
    (config : Config.t) =
  let unroll, source = workload_source ?unroll w in
  { rq_workload = w; rq_source = source; rq_unroll = unroll;
    rq_level = level; rq_config = config; rq_memdep = memdep;
    rq_cache = cache }

(* Cells that agree on everything the unscheduled compile depends on —
   workload, unrolling, level, and the register split (the only part of
   the configuration [Ilp.compile_unscheduled] reads) — share one
   pre-scheduled program and one captured trace.  [rq_memdep] is
   deliberately absent: disambiguation only changes phase 2, so the
   on/off cells of the memdep study share a single capture. *)
let capture_key r =
  ( r.rq_workload.W.name, r.rq_unroll, r.rq_level,
    r.rq_config.Config.temp_regs, r.rq_config.Config.home_regs )

(* Cells that differ only in the machine's name measure the same thing
   (in Fig. 4-1, superscalar-1 and superpipelined-1 are both the base
   machine): the plan replays one of them and copies its run. *)
let cell_key r =
  ( capture_key r, r.rq_memdep, r.rq_cache,
    { r.rq_config with Config.name = "" } )

(* Number the distinct [key r] of [requests] in order of first
   appearance: the number of each request's key, and the index of the
   first request with each key. *)
let distinct key (requests : request array) =
  let number = Hashtbl.create 16 and firsts = ref [] in
  let of_request =
    Array.mapi
      (fun i r ->
        let k = key r in
        match Hashtbl.find_opt number k with
        | Some n -> n
        | None ->
            let n = Hashtbl.length number in
            Hashtbl.add number k n;
            firsts := i :: !firsts;
            n)
      requests
  in
  (of_request, Array.of_list (List.rev !firsts))

(* Execute a sweep as an explicit two-phase plan:

   - phase 1: one capture job per distinct [capture_key] — compile the
     unscheduled program and run the functional interpreter once with
     its recorder (Trace_buffer.capture); only the program and the flat
     trace outlive the job;
   - phase 2: one job per distinct [cell_key] — schedule the shared
     program for the cell's configuration, bind the binary to the trace,
     replay it through a fresh [Timing.t], and hand [cell] the request,
     the trace, the binary and the run.

   Both phases fan out over the engine's domain pool (serial without
   one).  Jobs share only immutable data (the pre-scheduled program and
   the trace); every job builds its own simulator state, and each
   result is written at its cell's index, so the output is bit-identical
   whatever the parallelism.  Requests that share a cell share its
   result. *)
let sweep cell (requests : request array) =
  let group, group_firsts = distinct capture_key requests in
  let cells, cell_firsts = distinct cell_key requests in
  let check = !checks in
  let captures =
    par_map
      (fun i ->
        let r = requests.(i) in
        let pre =
          if check then
            Diffcheck.check_unscheduled ?unroll:r.rq_unroll ~level:r.rq_level
              r.rq_config r.rq_source
          else
            Ilp.compile_unscheduled ?unroll:r.rq_unroll ~level:r.rq_level
              r.rq_config r.rq_source
        in
        (pre, Ilp_sim.Trace_buffer.capture pre))
      group_firsts
  in
  let results =
    par_map
      (fun i ->
        let r = requests.(i) in
        let pre, trace = captures.(group.(i)) in
        let binary =
          Ilp.schedule ~check ~memdep:r.rq_memdep ~level:r.rq_level r.rq_config
            pre
        in
        let cache =
          Option.map
            (fun g ->
              Ilp_sim.Cache.create ~lines:g.lines ~line_words:g.line_words
                ~penalty:g.penalty ())
            r.rq_cache
        in
        cell r trace binary
          (Metrics.measure_prepared ?cache r.rq_config
             (Ilp_sim.Trace_buffer.bind trace binary)))
      cell_firsts
  in
  Array.map (fun c -> results.(c)) cells

(* Every cell's run, under its own request's machine name. *)
let run_sweep (requests : request array) : Metrics.run array =
  Array.map2
    (fun r (run : Metrics.run) ->
      { run with Metrics.machine = r.rq_config.Config.name })
    requests
    (sweep (fun _ _ _ run -> run) requests)

(* ------------------------------------------------------------------ *)
(* experiments as plans                                                *)

(* A measured experiment: the sweep cells it needs, and how it reads
   their runs, in cell order, into its result.  Plans join, so
   [run_all] measures every experiment in one sweep, which shares each
   capture and each cell among the experiments that ask for it. *)
type 'a plan = { cells : request array; read : Metrics.run array -> 'a }

let measure p = p.read (run_sweep p.cells)

let map f p = { p with read = (fun runs -> f (p.read runs)) }

(* [a]'s cells, then [b]'s; each reads its own slice of the runs, [a]
   first. *)
let both a b =
  let n = Array.length a.cells in
  { cells = Array.append a.cells b.cells;
    read =
      (fun runs ->
        let x = a.read (Array.sub runs 0 n) in
        let y = b.read (Array.sub runs n (Array.length runs - n)) in
        (x, y));
  }

(* A plan with no cells whose read computes [f ()]: the closed-form
   figures, and the studies that do not time programs on the sweep. *)
let compute f () = { cells = [||]; read = (fun _ -> f ()) }

(* One cell per (row, column) pair, row by row; each row reads back as
   its runs in column order. *)
let grid rows cols cell =
  let nc = List.length cols in
  { cells =
      Array.of_list (List.concat_map (fun r -> List.map (cell r) cols) rows);
    read =
      (fun runs ->
        List.mapi
          (fun i _ -> Array.to_list (Array.sub runs (i * nc) nc))
          rows);
  }

let speedups = List.map (fun (r : Metrics.run) -> r.Metrics.speedup)

(* Harmonic-mean suite speedup of each configuration, in order: one
   capture per workload, one replay per cell. *)
let harmonic_suite configs =
  map
    (List.map (fun runs -> Metrics.harmonic_mean (speedups runs)))
    (grid configs Registry.all (fun config w -> request w config))

(* [row d a b] at each degree [d] of [ds], where [a] and [b] are the
   suite speedups of the machines [first d] and [second d]. *)
let by_degree ds first second row =
  map
    (fun (a, b) ->
      List.map2 (fun d (a, b) -> row d a b) ds (List.combine a b))
    (both
       (harmonic_suite (List.map first ds))
       (harmonic_suite (List.map second ds)))

let degrees = [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* ------------------------------------------------------------------ *)
(* Figure 1-1: instruction-level parallelism of two code fragments      *)

type fig1_1 = { parallel_fragment : float; serial_fragment : float }

let fig1_1 () =
  let open Ilp_ir in
  let r n = Reg.phys n in
  let parallel =
    [ Builder.ld (r 11) ~base:(r 2) ~offset:23;
      Builder.addi (r 3) (r 3) 1;
      Builder.fadd (r 14) (r 14) (r 13) ]
  in
  let serial =
    [ Builder.addi (r 3) (r 3) 1;
      Builder.add (r 4) (r 3) (r 2);
      Builder.st ~value:(r 10) ~base:(r 4) ~offset:0 () ]
  in
  { parallel_fragment = Ilp_sched.Ddg.available_parallelism parallel;
    serial_fragment = Ilp_sched.Ddg.available_parallelism serial;
  }

let render_fig1_1 () =
  let r = fig1_1 () in
  Report.section "Figure 1-1: instruction-level parallelism"
    (Report.table
       ~header:[ "fragment"; "parallelism" ]
       [ [ "(a) independent"; Printf.sprintf "%.2f" r.parallel_fragment ];
         [ "(b) serial chain"; Printf.sprintf "%.2f" r.serial_fragment ] ])

(* ------------------------------------------------------------------ *)
(* Figures 2-1 .. 2-7: machine-taxonomy pipeline diagrams               *)

let render_fig2_diagrams () =
  let stream n = Ilp_sim.Diagram.independent_instrs n in
  let diagrams =
    [ ("Figure 2-1: base machine", Presets.base, stream 8);
      ( "Figure 2-2/2-3: underpipelined (loads every other cycle)",
        Presets.underpipelined,
        Ilp_sim.Diagram.independent_instrs ~cls:`Mixed 8 );
      ("Figure 2-4: superscalar (n=3)", Presets.superscalar 3, stream 9);
      ( "Figure 2-6: superpipelined (m=3)",
        Presets.superpipelined 3,
        stream 6 );
      ( "Figure 2-7: superpipelined superscalar (n=3, m=3)",
        Presets.superpipelined_superscalar ~n:3 ~m:3,
        stream 9 ) ]
  in
  String.concat "\n"
    (List.map
       (fun (title, config, instrs) ->
         Report.section title (Ilp_sim.Diagram.render config instrs))
       diagrams)

(* ------------------------------------------------------------------ *)
(* Table 2-1: average degree of superpipelining                         *)

type table2_1_row = {
  machine : string;
  with_paper_mix : float;
  with_measured_mix : float;
}

(* The instruction-class mix of [runs], as fractions. *)
let measured_frequencies (runs : Metrics.run list) =
  let totals = Array.make Ilp_ir.Iclass.count 0 in
  List.iter
    (fun (run : Metrics.run) ->
      Array.iteri
        (fun i c -> totals.(i) <- totals.(i) + c)
        run.Metrics.class_counts)
    runs;
  let sum = float_of_int (Array.fold_left ( + ) 0 totals) in
  Array.map (fun c -> float_of_int c /. sum) totals

(* The measured mix comes from executing the whole benchmark suite. *)
let table2_1 () =
  let machines = [ Presets.multititan; Presets.cray1 () ] in
  map
    (fun rows ->
      let measured = measured_frequencies (List.concat rows) in
      List.map
        (fun config ->
          { machine = config.Config.name;
            with_paper_mix =
              Superpipelining.average_degree config
                Superpipelining.paper_frequencies;
            with_measured_mix = Superpipelining.average_degree config measured;
          })
        machines)
    (grid Registry.all [ Presets.base ] request)

let render_table2_1 () =
  map
    (fun rows ->
      Report.section
        "Table 2-1: average degree of superpipelining (paper: MultiTitan 1.7, CRAY-1 4.4)"
        (Report.table
           ~header:
             [ "machine"; "avg degree (paper mix)";
               "avg degree (measured mix)" ]
           (List.map
              (fun r ->
                [ r.machine;
                  Printf.sprintf "%.2f" r.with_paper_mix;
                  Printf.sprintf "%.2f" r.with_measured_mix ])
              rows)))
    (table2_1 ())

(* ------------------------------------------------------------------ *)
(* Figure 4-1: supersymmetry                                            *)

type fig4_1 = {
  degree : int;
  superscalar : float;  (** harmonic-mean speedup *)
  superpipelined : float;
}

(* One capture per workload, replayed against all 16 machine
   configurations. *)
let fig4_1 () =
  by_degree degrees Presets.superscalar Presets.superpipelined
    (fun degree superscalar superpipelined ->
      { degree; superscalar; superpipelined })

let render_fig4_1 () =
  map
    (fun rows ->
      let chart =
        Report.line_chart ~x_label:"degree" ~y_label:"speedup (harmonic mean)"
          [ { Report.label = 'S';
              points =
                List.map (fun r -> (float_of_int r.degree, r.superscalar)) rows
            };
            { Report.label = 'P';
              points =
                List.map
                  (fun r -> (float_of_int r.degree, r.superpipelined))
                  rows
            } ]
      in
      let body =
        Report.table
          ~header:[ "degree"; "superscalar"; "superpipelined" ]
          (List.map
             (fun r ->
               [ string_of_int r.degree;
                 Printf.sprintf "%.3f" r.superscalar;
                 Printf.sprintf "%.3f" r.superpipelined ])
             rows)
      in
      Report.section
        "Figure 4-1: supersymmetry (S = superscalar, P = superpipelined)"
        (body ^ "\n\n" ^ chart))
    (fig4_1 ())

(* ------------------------------------------------------------------ *)
(* Figure 4-2: start-up transient                                        *)

let render_fig4_2 () =
  let instrs = Ilp_sim.Diagram.independent_instrs 6 in
  let ss = Ilp_sim.Diagram.render (Presets.superscalar 3) instrs in
  let sp = Ilp_sim.Diagram.render (Presets.superpipelined 3) instrs in
  Report.section
    "Figure 4-2: start-up in superscalar vs superpipelined (6 independent instructions)"
    ("superscalar degree 3:\n" ^ ss ^ "\nsuperpipelined degree 3:\n" ^ sp)

(* ------------------------------------------------------------------ *)
(* Figure 4-3: parallelism required for full utilization                *)

let fig4_3 () =
  List.map
    (fun m -> List.map (fun n -> n * m) (List.init 5 (fun i -> i + 1)))
    (List.rev (List.init 5 (fun i -> i + 1)))

let render_fig4_3 () =
  let rows =
    List.mapi
      (fun i row ->
        string_of_int (5 - i)
        :: List.map string_of_int row)
      (fig4_3 ())
  in
  let body =
    Report.table ~header:[ "m\\n"; "1"; "2"; "3"; "4"; "5" ] rows
  in
  Report.section
    "Figure 4-3: instruction-level parallelism required for full utilization (n*m)"
    (body
   ^ "\n(MultiTitan avg degree ~1.7 on the m axis; CRAY-1 ~4.4: multiple\n\
      issue would need parallelism that slightly-parallel code lacks)")

(* ------------------------------------------------------------------ *)
(* Figure 4-4: CRAY-1, parallel issue with unit vs real latencies        *)

type fig4_4 = { multiplicity : int; unit_latency : float; real_latency : float }

let fig4_4 () =
  by_degree degrees
    (fun n -> Presets.cray1_unit_latencies ~issue_width:n ())
    (fun n -> Presets.cray1 ~issue_width:n ())
    (fun multiplicity unit_latency real_latency ->
      { multiplicity; unit_latency; real_latency })

let render_fig4_4 () =
  map
    (fun rows ->
      let chart =
        Report.line_chart ~x_label:"instruction issue multiplicity"
          ~y_label:"speedup vs 1-issue of same machine"
          [ { Report.label = 'U';
              points =
                List.map
                  (fun r -> (float_of_int r.multiplicity, r.unit_latency))
                  rows
            };
            { Report.label = 'R';
              points =
                List.map
                  (fun r -> (float_of_int r.multiplicity, r.real_latency))
                  rows
            } ]
      in
      let base_unit = (List.hd rows).unit_latency in
      let base_real = (List.hd rows).real_latency in
      let body =
        Report.table
          ~header:
            [ "issue width"; "all latencies = 1 (speedup)";
              "actual CRAY-1 latencies (speedup)" ]
          (List.map
             (fun r ->
               [ string_of_int r.multiplicity;
                 Printf.sprintf "%.3f" (r.unit_latency /. base_unit);
                 Printf.sprintf "%.3f" (r.real_latency /. base_real) ])
             rows)
      in
      Report.section
        "Figure 4-4: parallel issue on the CRAY-1 with unit (U) and real (R) latencies"
        (body ^ "\n\n" ^ chart))
    (fig4_4 ())

(* ------------------------------------------------------------------ *)
(* Figure 4-5: instruction-level parallelism by benchmark                *)

type fig4_5 = { bench : string; by_degree : (int * float) list }

let fig4_5 () =
  map
    (List.map2
       (fun (w : W.t) runs ->
         { bench = w.W.name; by_degree = List.combine degrees (speedups runs) })
       Registry.all)
    (grid Registry.all degrees (fun w d -> request w (Presets.superscalar d)))

let render_fig4_5 () =
  map
    (fun rows ->
      Report.section
        "Figure 4-5: parallelism by benchmark on ideal superscalar machines"
        (Report.table
           ~header:("benchmark" :: List.map string_of_int degrees)
           (List.map
              (fun r ->
                r.bench
                :: List.map (fun (_, s) -> Printf.sprintf "%.2f" s) r.by_degree)
              rows)))
    (fig4_5 ())

(* ------------------------------------------------------------------ *)
(* Figure 4-6: parallelism vs loop unrolling                             *)

(* The unrolling study uses the forty temporary registers the paper
   mentions, and measures parallelism on a wide ideal superscalar
   machine. *)
let unroll_config = Config.make "ss16-40temps" ~issue_width:16 ~temp_regs:40

type fig4_6_series = {
  bench : string;
  mode : Ilp_lang.Unroll.mode;
  by_factor : (int * float) list;
}

let unroll_factors = [ 1; 2; 4; 6; 8; 10 ]

(* Every (benchmark, mode, factor) cell is its own capture (the
   unrolling changes the compiled program), so the whole grid fans out
   in phase 1 and phase 2 is one replay per capture. *)
let fig4_6 () =
  let series =
    List.concat_map
      (fun bench_name ->
        let w =
          match Registry.find bench_name with
          | Some w -> w
          | None -> invalid_arg ("fig4_6: unknown benchmark " ^ bench_name)
        in
        List.map
          (fun mode -> (w, mode))
          [ Ilp_lang.Unroll.Naive; Ilp_lang.Unroll.Careful ])
      [ "linpack"; "livermore" ]
  in
  map
    (List.map2
       (fun ((w : W.t), mode) runs ->
         { bench = w.W.name;
           mode;
           by_factor = List.combine unroll_factors (speedups runs);
         })
       series)
    (grid series unroll_factors (fun (w, mode) factor ->
         request ~unroll:(Some { Ilp.mode; factor; bounds = false }) w
           unroll_config))

let render_fig4_6 () =
  let mode_name = function
    | Ilp_lang.Unroll.Naive -> "naive"
    | Ilp_lang.Unroll.Careful -> "careful"
  in
  map
    (fun rows ->
      let body =
        Report.table
          ~header:("series" :: List.map string_of_int unroll_factors)
          (List.map
             (fun r ->
               (r.bench ^ "." ^ mode_name r.mode)
               :: List.map (fun (_, s) -> Printf.sprintf "%.2f" s) r.by_factor)
             rows)
      in
      let labels = [ 'l'; 'L'; 'v'; 'V' ] in
      let chart =
        Report.line_chart ~x_label:"iterations unrolled" ~y_label:"parallelism"
          (List.mapi
             (fun i r ->
               { Report.label = List.nth labels (i mod 4);
                 points =
                   List.map (fun (f, s) -> (float_of_int f, s)) r.by_factor
               })
             rows)
      in
      Report.section
        "Figure 4-6: parallelism vs loop unrolling (l/L = linpack naive/careful, v/V = livermore)"
        (body ^ "\n\n" ^ chart))
    (fig4_6 ())

(* ------------------------------------------------------------------ *)
(* Figure 4-5/4-6 variant: bound-aware unrolling                        *)

(* The same machine and factor grid as Figure 4-6, with a third curve
   per benchmark: careful unrolling with bound analysis on, so loops
   with statically known trip counts are fully unrolled (short ones) or
   peeled (the rest) and no remainder loop survives.  Benchmarks whose
   bounds stay symbolic (linpack's parameterised kernels) degrade to the
   classic transform, which is the point of plotting them next to the
   constant-bound workloads. *)

type unroll_study_row = {
  us_bench : string;
  us_series : string;  (** "naive", "careful" or "careful-peel" *)
  us_by_factor : (int * float) list;
}

let unroll_study_series =
  [ (Ilp_lang.Unroll.Naive, false, "naive");
    (Ilp_lang.Unroll.Careful, false, "careful");
    (Ilp_lang.Unroll.Careful, true, "careful-peel") ]

let unroll_study () =
  let series =
    List.concat_map
      (fun w -> List.map (fun s -> (w, s)) unroll_study_series)
      (List.filter_map Registry.find [ "linpack"; "livermore"; "smooth" ])
  in
  map
    (List.map2
       (fun ((w : W.t), (_, _, name)) runs ->
         { us_bench = w.W.name;
           us_series = name;
           us_by_factor = List.combine unroll_factors (speedups runs);
         })
       series)
    (grid series unroll_factors (fun (w, (mode, bounds, _)) factor ->
         request ~unroll:(Some { Ilp.mode; factor; bounds }) w unroll_config))

let render_unroll_study () =
  map
    (fun rows ->
      Report.section
        "Figure 4-5/4-6 variant: bound-aware unrolling (full unroll + peeling \
         vs classic remainder loops)"
        (Report.table
           ~header:("series" :: List.map string_of_int unroll_factors)
           (List.map
              (fun r ->
                (r.us_bench ^ "." ^ r.us_series)
                :: List.map
                     (fun (_, s) -> Printf.sprintf "%.2f" s)
                     r.us_by_factor)
              rows)))
    (unroll_study ())

(* ------------------------------------------------------------------ *)
(* Figure 4-7: optimization can add or subtract parallelism              *)

type fig4_7 = {
  original : float;
  branch_optimized : float;  (** one branch of the expression shrunk *)
  bottleneck_optimized : float;  (** the critical chain shrunk *)
}

(* Expression graphs built as straight-line code: a critical chain of
   six operations plus an independent side computation of four.
   Optimizing the side computation removes work without shortening the
   critical path (parallelism falls); optimizing the bottleneck chain
   shortens the path (parallelism rises). *)
let fig4_7 () =
  let open Ilp_ir in
  let r n = Reg.phys n in
  let chain ~start ~len ~into =
    List.init len (fun k ->
        if k = 0 then Builder.addi (r (into + k)) (r start) 1
        else Builder.addi (r (into + k)) (r (into + k - 1)) 1)
  in
  let side ~start ~len ~into = chain ~start ~len ~into in
  let join a b dst = Builder.add (r dst) (r a) (r b) in
  (* original: 5-op critical chain, 4-op side chain, 1 join = 10 ops,
     critical path 6 *)
  let original =
    chain ~start:4 ~len:5 ~into:20
    @ side ~start:5 ~len:4 ~into:40
    @ [ join 24 43 60 ]
  in
  (* optimize the side computation down to 2 ops: 8 ops, path still 6 *)
  let branch_opt =
    chain ~start:4 ~len:5 ~into:20
    @ side ~start:5 ~len:2 ~into:40
    @ [ join 24 41 60 ]
  in
  (* optimize the bottleneck chain down to 3 ops: 6 ops, path 4 *)
  let bottleneck_opt =
    chain ~start:4 ~len:3 ~into:20
    @ side ~start:5 ~len:2 ~into:40
    @ [ join 22 41 60 ]
  in
  { original = Ilp_sched.Ddg.available_parallelism original;
    branch_optimized = Ilp_sched.Ddg.available_parallelism branch_opt;
    bottleneck_optimized = Ilp_sched.Ddg.available_parallelism bottleneck_opt;
  }

let render_fig4_7 () =
  let r = fig4_7 () in
  Report.section
    "Figure 4-7: parallelism vs compiler optimizations (paper: 1.67 / 1.33 / 1.50)"
    (Report.table
       ~header:[ "expression graph"; "parallelism" ]
       [ [ "original"; Printf.sprintf "%.2f" r.original ];
         [ "one branch optimized"; Printf.sprintf "%.2f" r.branch_optimized ];
         [ "bottleneck optimized";
           Printf.sprintf "%.2f" r.bottleneck_optimized ] ])

(* ------------------------------------------------------------------ *)
(* Figure 4-8: effect of optimization level on parallelism               *)

type fig4_8 = { bench : string; by_level : (Ilp.opt_level * float) list }

let parallelism_config = Presets.superscalar 8

(* Each (benchmark, level) cell compiles differently, so each is its own
   capture job; the grid fans out across the pool. *)
let fig4_8 () =
  map
    (List.map2
       (fun (w : W.t) runs ->
         { bench = w.W.name;
           by_level = List.combine Ilp.all_levels (speedups runs);
         })
       Registry.all)
    (grid Registry.all Ilp.all_levels (fun w level ->
         request ~level w parallelism_config))

let render_fig4_8 () =
  map
    (fun rows ->
      Report.section
        "Figure 4-8: effect of optimization on parallelism (ideal superscalar degree 8)"
        (Report.table
           ~header:("benchmark" :: List.map Ilp.opt_level_name Ilp.all_levels)
           (List.map
              (fun r ->
                r.bench
                :: List.map (fun (_, s) -> Printf.sprintf "%.2f" s) r.by_level)
              rows)))
    (fig4_8 ())

(* ------------------------------------------------------------------ *)
(* Table 5-1: the cost of cache misses                                   *)

type table5_1_row = {
  machine : string;
  cycles_per_instr : float;
  cycle_ns : float;
  memory_ns : float;
  miss_cost_cycles : float;
  miss_cost_instrs : float;
}

let table5_1 () =
  let row machine cycles_per_instr cycle_ns memory_ns =
    let miss_cost_cycles = memory_ns /. cycle_ns in
    { machine; cycles_per_instr; cycle_ns; memory_ns; miss_cost_cycles;
      miss_cost_instrs = miss_cost_cycles /. cycles_per_instr;
    }
  in
  [ row "VAX 11/780" 10.0 200.0 1200.0;
    row "WRL Titan" 1.4 45.0 540.0;
    row "future superscalar" 0.5 5.0 350.0 ]

let render_table5_1 () =
  let rows = table5_1 () in
  Report.section
    "Table 5-1: the cost of cache misses (paper: 0.6 / 8.6 / 140 instruction times)"
    (Report.table
       ~header:
         [ "machine"; "cycles/instr"; "cycle (ns)"; "mem (ns)";
           "miss cost (cycles)"; "miss cost (instrs)" ]
       (List.map
          (fun r ->
            [ r.machine;
              Printf.sprintf "%.1f" r.cycles_per_instr;
              Printf.sprintf "%.0f" r.cycle_ns;
              Printf.sprintf "%.0f" r.memory_ns;
              Printf.sprintf "%.0f" r.miss_cost_cycles;
              Printf.sprintf "%.1f" r.miss_cost_instrs ])
          rows))

(* ------------------------------------------------------------------ *)
(* Section 5.1: cache misses dilute the benefit of parallel issue        *)

type sec5_1 = {
  analytic_improvement_with_cache : float;  (** paper: 33% *)
  analytic_improvement_no_cache : float;  (** paper: 100% *)
  simulated_speedup_no_cache : float;
  simulated_speedup_with_cache : float;
  simulated_miss_rate : float;
}

let sec5_1 () =
  (* analytic worked example straight from the paper *)
  let base_cpi = 1.0 and miss_cpi = 1.0 in
  let issue_cpi_parallel = 0.5 in
  let with_cache =
    (1.0 /. (issue_cpi_parallel +. miss_cpi)) /. (1.0 /. (base_cpi +. miss_cpi))
  in
  let no_cache = (1.0 /. issue_cpi_parallel) /. (1.0 /. base_cpi) in
  (* simulated counterpart on a real benchmark *)
  let w =
    match Registry.find "stanford" with
    | Some w -> w
    | None -> invalid_arg "sec5_1"
  in
  let cache = { lines = 64; line_words = 4; penalty = 12 } in
  map
    (function
      | [ [ (narrow_nc : Metrics.run); wide_nc ]; [ narrow_c; wide_c ] ] ->
          { analytic_improvement_with_cache = (with_cache -. 1.0) *. 100.0;
            analytic_improvement_no_cache = (no_cache -. 1.0) *. 100.0;
            simulated_speedup_no_cache =
              wide_nc.Metrics.speedup /. narrow_nc.Metrics.speedup;
            simulated_speedup_with_cache =
              narrow_c.Metrics.base_cycles /. wide_c.Metrics.base_cycles;
            simulated_miss_rate =
              float_of_int narrow_c.Metrics.cache_misses
              /. float_of_int (max 1 narrow_c.Metrics.cache_accesses);
          }
      | _ -> assert false)
    (grid [ None; Some cache ] [ Presets.base; Presets.superscalar 3 ]
       (fun cache config -> request ?cache w config))

let render_sec5_1 () =
  map
    (fun r ->
      Report.section
        "Section 5.1: cache misses dilute parallel issue (paper: 33% vs 100%)"
        (Report.table
           ~header:[ "quantity"; "value" ]
           [ [ "analytic improvement, 3-issue, with cache burden";
               Printf.sprintf "%.0f%%" r.analytic_improvement_with_cache ];
             [ "analytic improvement, 3-issue, no cache burden";
               Printf.sprintf "%.0f%%" r.analytic_improvement_no_cache ];
             [ "simulated 3-issue speedup, no cache";
               Printf.sprintf "%.2fx" r.simulated_speedup_no_cache ];
             [ "simulated 3-issue speedup, blocking cache";
               Printf.sprintf "%.2fx" r.simulated_speedup_with_cache ];
             [ "simulated miss rate";
               Printf.sprintf "%.1f%%" (r.simulated_miss_rate *. 100.0) ] ]))
    (sec5_1 ())

(* ------------------------------------------------------------------ *)
(* Ablations called out in DESIGN.md                                     *)

(* Temp-pool sweep: the finite temp partition caps unrolled parallelism. *)
type ablation_temps_row = { temps : int; parallelism : float }

(* Every temp count is a different register split, hence its own capture
   job; the sweep is one parallel phase of captures plus their
   replays. *)
let ablation_temps () =
  let w =
    match Registry.find "linpack" with
    | Some w -> w
    | None -> invalid_arg "ablation_temps"
  in
  let temp_counts = [ 6; 8; 12; 16; 24; 32; 40; 56 ] in
  let unroll =
    Some { Ilp.mode = Ilp_lang.Unroll.Careful; factor = 10; bounds = false }
  in
  map
    (fun rows ->
      List.map2
        (fun temps parallelism -> { temps; parallelism })
        temp_counts
        (speedups (List.concat rows)))
    (grid temp_counts [ w ] (fun temps w ->
         request ~unroll w
           (Config.make
              (Printf.sprintf "ss16-%dtemps" temps)
              ~issue_width:16 ~temp_regs:temps)))

let render_ablation_temps () =
  map
    (fun rows ->
      Report.section
        "Ablation: temporary-register count vs parallelism (linpack, careful 10x)"
        (Report.table
           ~header:[ "temps"; "parallelism" ]
           (List.map
              (fun r ->
                [ string_of_int r.temps; Printf.sprintf "%.2f" r.parallelism ])
              rows)))
    (ablation_temps ())

(* Class conflicts: ideal superscalar vs one with single-copy units. *)
type ablation_conflicts_row = { degree : int; ideal : float; conflicts : float }

let ablation_class_conflicts () =
  by_degree [ 1; 2; 4; 8 ] Presets.superscalar
    Presets.superscalar_with_class_conflicts (fun degree ideal conflicts ->
      { degree; ideal; conflicts })

let render_ablation_class_conflicts () =
  map
    (fun rows ->
      Report.section
        "Ablation: class conflicts (Section 2.3.2) - ideal vs single-copy functional units"
        (Report.table
           ~header:[ "degree"; "ideal"; "with class conflicts" ]
           (List.map
              (fun r ->
                [ string_of_int r.degree;
                  Printf.sprintf "%.3f" r.ideal;
                  Printf.sprintf "%.3f" r.conflicts ])
              rows)))
    (ablation_class_conflicts ())

(* ------------------------------------------------------------------ *)
(* Figure 2-8 and the Section 2.3 vector-equivalence argument            *)

let render_fig2_8 () =
  let picture =
    Ilp_sim.Diagram.render_vector ~vector_length:8
      [ "vload"; "vadd"; "vstore" ]
  in
  Report.section
    "Figure 2-8: execution in a vector machine (chained, one element per cycle)"
    picture

(* "A superscalar machine that can issue a fixed-point, floating-point,
   load, and a branch all in one cycle achieves the same effective
   parallelism" as a chained vector unit: one element per cycle. *)
type sec2_3_vector = {
  base_cycles_per_element : float;
  superscalar_cycles_per_element : float;
}

(* the paper's example: a vector load chained into a vector add — per
   element one load, one FP add, one fixed-point add and a branch.  The
   reduction runs many times so the one-time setup is amortized. *)
let vector_loop_source =
  {|
arr vx : real[512];
fun main() {
  var i : int;
  var rep : int;
  var s : real = 0.0;
  for (i = 0; i < 512; i = i + 1) { vx[i] = real(i % 7) * 0.5; }
  for (rep = 0; rep < 16; rep = rep + 1) {
    for (i = 0; i < 512; i = i + 1) {
      s = s + vx[i];
    }
  }
  sink(s);
}
|}

let sec2_3_vector () =
  let elements = 16.0 *. 512.0 in
  let loop =
    W.make ~description:"chained vector reduction" "vector_loop"
      vector_loop_source
  in
  (* a 4-issue machine with one unit each for fixed-point, FP, memory
     and control: exactly the paper's hypothetical *)
  let one_unit name classes =
    { Config.unit_name = name; classes; issue_latency = 1; multiplicity = 1 }
  in
  let vector_equiv =
    Config.make "vector-equivalent" ~issue_width:4
      ~units:
        (let open Ilp_ir in
         [ one_unit "fixed"
             [ Iclass.Logical; Iclass.Shift; Iclass.Add_sub; Iclass.Move;
               Iclass.Int_mul; Iclass.Int_div ];
           one_unit "fp"
             [ Iclass.Fp_add; Iclass.Fp_mul; Iclass.Fp_div; Iclass.Fp_cvt ];
           one_unit "mem" [ Iclass.Load; Iclass.Store ];
           one_unit "ctl" [ Iclass.Branch; Iclass.Jump ] ])
  in
  map
    (function
      | [ [ (base : Metrics.run); equiv ] ] ->
          { base_cycles_per_element = base.Metrics.base_cycles /. elements;
            superscalar_cycles_per_element =
              equiv.Metrics.base_cycles /. elements;
          }
      | _ -> assert false)
    (grid [ loop ] [ Presets.base; vector_equiv ] request)

let render_sec2_3_vector () =
  map
    (fun r ->
      Report.section
        "Section 2.3: superscalar equivalence with a chained vector unit"
        (Report.table
           ~header:[ "machine"; "cycles per vector element" ]
           [ [ "base (1 issue)";
               Printf.sprintf "%.2f" r.base_cycles_per_element ];
             [ "4-issue, one fixed/FP/mem/ctl unit each";
               Printf.sprintf "%.2f" r.superscalar_cycles_per_element ] ]
        ^ "\n(a chained vector machine sustains 1.0 element per cycle; the\n\
           4-issue superscalar with one unit per kind approaches that rate,\n\
           held just above it by the loop's second control transfer, the\n\
           back-edge jump our compiler does not rotate away)"))
    (sec2_3_vector ())

(* ------------------------------------------------------------------ *)
(* Issue-width histogram (extension: where do the issue slots go?)      *)

type issue_histogram = { bench : string; buckets : float array }

let issue_histogram () =
  map
    (fun rows ->
      List.map2
        (fun (w : W.t) (run : Metrics.run) ->
          let histogram = run.Metrics.issue_histogram in
          let total = float_of_int (Array.fold_left ( + ) 0 histogram) in
          { bench = w.W.name;
            buckets =
              Array.map (fun c -> 100.0 *. float_of_int c /. total) histogram;
          })
        Registry.all (List.concat rows))
    (grid Registry.all [ Presets.superscalar 4 ] request)

let render_issue_histogram () =
  map
    (fun rows ->
      let width = Array.length (List.hd rows).buckets - 1 in
      let header =
        "benchmark"
        :: List.init (width + 1) (fun k -> Printf.sprintf "%d/cyc" k)
      in
      Report.section
        "Extension: issue-width histogram (ideal superscalar degree 4, % of cycles)"
        (Report.table ~header
           (List.map
              (fun r ->
                r.bench
                :: Array.to_list
                     (Array.map (fun p -> Printf.sprintf "%.0f%%" p) r.buckets))
              rows)))
    (issue_histogram ())

(* ------------------------------------------------------------------ *)
(* Branch ablation (DESIGN.md decision 2)                                *)

type ablation_branch_row = {
  degree : int;
  issue_past_branches : float;
  branch_ends_packet : float;
}

let ablation_branch () =
  by_degree [ 1; 2; 4; 8 ] Presets.superscalar
    (fun d ->
      Config.make
        (Printf.sprintf "superscalar-%d-bep" d)
        ~issue_width:d ~branch_ends_packet:true)
    (fun degree issue_past_branches branch_ends_packet ->
      { degree; issue_past_branches; branch_ends_packet })

let render_ablation_branch () =
  map
    (fun rows ->
      Report.section
        "Ablation: issuing past branches (perfect prediction) vs branches ending the packet"
        (Report.table
           ~header:[ "degree"; "issue past branches"; "branch ends packet" ]
           (List.map
              (fun r ->
                [ string_of_int r.degree;
                  Printf.sprintf "%.3f" r.issue_past_branches;
                  Printf.sprintf "%.3f" r.branch_ends_packet ])
              rows)))
    (ablation_branch ())

(* ------------------------------------------------------------------ *)
(* Extension: static memory disambiguation (alias-aware scheduling)     *)

type memdep_row = {
  md_bench : string;
  md_degree : int;
  md_conservative : float;  (** speedup, every memory pair serialized *)
  md_disambiguated : float;  (** speedup with proven-no-alias edges pruned *)
}

let memdep_degrees = [ 1; 2; 4; 8 ]

(* Memory-heavy workloads: the in-place neighbour-relaxation kernel
   built for this study plus the paper's two numeric array benchmarks.
   Each (workload, degree) cell is measured twice — conservative and
   alias-disambiguated scheduling — off one shared capture per workload,
   since [rq_memdep] is not part of the capture key. *)
let memdep_study () =
  let cells =
    List.concat_map
      (fun w -> List.map (fun d -> (w, d)) memdep_degrees)
      (List.filter_map Registry.find [ "smooth"; "linpack"; "livermore" ])
  in
  map
    (List.map2
       (fun ((w : W.t), d) runs ->
         match speedups runs with
         | [ md_conservative; md_disambiguated ] ->
             { md_bench = w.W.name;
               md_degree = d;
               md_conservative;
               md_disambiguated;
             }
         | _ -> assert false)
       cells)
    (grid cells [ false; true ] (fun (w, d) memdep ->
         request ~memdep w (Presets.superscalar d)))

let render_memdep () =
  map
    (fun rows ->
      Report.section
        "Extension: static memory disambiguation (conservative vs alias-aware scheduling)"
        (Report.table
           ~header:
             [ "benchmark"; "degree"; "conservative"; "disambiguated"; "gain" ]
           (List.map
              (fun r ->
                [ r.md_bench;
                  string_of_int r.md_degree;
                  Printf.sprintf "%.3f" r.md_conservative;
                  Printf.sprintf "%.3f" r.md_disambiguated;
                  Printf.sprintf "%+.1f%%"
                    (100.0
                    *. ((r.md_disambiguated /. r.md_conservative) -. 1.0)) ])
              rows)))
    (memdep_study ())

(* ------------------------------------------------------------------ *)
(* What the value-range tier of the disambiguation buys (extension)     *)

type rangedep_row = {
  rd_bench : string;
  rd_pairs : int;  (** same-block memory pairs with at least one store *)
  rd_pruned_sym : int;
      (** DDG edges pruned with the symbolic tiers alone
          ([Memdep.analyze ~ranges:false]) *)
  rd_pruned_rng : int;  (** edges pruned with the range tier enabled *)
  rd_sink_equal : bool;
      (** the range-sharpened and range-free schedules leave the same
          checksum in the sink cell *)
}

(* Per workload (at its shipped unroll factor): sum [Memdep.func_stats]
   over every compiled function with and without the value-range tier,
   and run the two resulting superscalar-4 schedules to the sink.  The
   range tier can only add [No_alias] verdicts on top of the symbolic
   tiers, so [rd_pruned_rng >= rd_pruned_sym] must hold everywhere;
   test_range checks that, strict improvement somewhere, and checksum
   equality.  Each workload is one task on the engine's pool, and every
   [Memdep.t] is created and forced inside its task. *)
let rangedep_study () =
  let check = !checks in
  Array.to_list
    (par_map
       (fun (w : W.t) ->
         let unroll, source = workload_source w in
         let program =
           Ilp.compile_unscheduled ?unroll ~check ~level:Ilp.O4 Presets.base
             source
         in
         let tally ranges =
           List.fold_left
             (fun (pairs, pruned) f ->
               let s =
                 Ilp_analysis.Memdep.func_stats
                   (Ilp_analysis.Memdep.analyze ~ranges f)
                   f
               in
               ( pairs + s.Ilp_analysis.Memdep.pairs,
                 pruned + s.Ilp_analysis.Memdep.pruned ))
             (0, 0) program.Ilp_ir.Program.functions
         in
         let pairs, pruned_sym = tally false in
         let _, pruned_rng = tally true in
         let sink ranges =
           let p =
             Ilp.compile ?unroll ~check ~memdep:true ~ranges ~level:Ilp.O4
               (Presets.superscalar 4) source
           in
           (Ilp_sim.Exec.run p).Ilp_sim.Exec.sink
         in
         { rd_bench = w.W.name;
           rd_pairs = pairs;
           rd_pruned_sym = pruned_sym;
           rd_pruned_rng = pruned_rng;
           rd_sink_equal = sink false = sink true;
         })
       (Array.of_list (Registry.all @ Registry.extras)))

let render_rangedep () =
  let rows = rangedep_study () in
  Report.section
    "Extension: value-range disambiguation (DDG edges pruned, symbolic vs \
     with ranges)"
    (Report.table
       ~header:
         [ "benchmark"; "pairs"; "pruned, symbolic"; "pruned, ranges";
           "same sink" ]
       (List.map
          (fun r ->
            [ r.rd_bench;
              string_of_int r.rd_pairs;
              string_of_int r.rd_pruned_sym;
              string_of_int r.rd_pruned_rng;
              (if r.rd_sink_equal then "yes" else "NO") ])
          rows))

(* ------------------------------------------------------------------ *)
(* Static per-loop ILP bounds vs measured ILP (extension)               *)

(* For each (benchmark, machine) cell, schedule the binary, derive
   static recurrence and resource bounds for every innermost loop
   (Static_bound), and count each loop's back-edge traversals and
   entries from the cell's captured trace.  The static bounds give a
   lower bound on minor cycles — and hence an upper bound on ILP — that
   the measured run must respect: the experiment hard-fails if measured
   cycles ever dip below the static floor, making every rendering of
   this figure a soundness check of the bound derivation. *)

type static_bound_row = {
  sb_bench : string;
  sb_machine : string;
  sb_loops : int;  (** innermost loops with a nonzero recurrence bound *)
  sb_measured_cycles : int;
  sb_floor_cycles : int;
  sb_measured_ilp : float;
  sb_ceiling_ilp : float;
      (** dynamic instructions per base cycle if the run took exactly
          the static floor *)
}

let static_bounds_presets () =
  [ Presets.superscalar 4;
    Presets.superscalar 8;
    Presets.multititan;
    Presets.cray1 () ]

module SB = Ilp_sched.Static_bound

(* Each loop's back-edge traversals and entries in [trace]'s run, in
   the order of [sb.bounds]; [sb] may analyze any schedule-sibling of
   the captured program. *)
let loop_counts trace (sb : SB.t) =
  List.map
    (fun (traversals, entries) -> { SB.traversals; entries })
    (Ilp_sim.Trace_buffer.loop_counts trace
       (List.map
          (fun (b : SB.loop_bound) ->
            (b.SB.sb_header_first, b.SB.sb_latch_lasts))
          sb.SB.bounds))

(* One cell's row, from the sweep's trace, binary and run. *)
let static_bounds_cell r trace binary (run : Metrics.run) =
  let config = r.rq_config in
  let sb = SB.analyze config binary in
  let counts = loop_counts trace sb in
  let measured = run.Metrics.minor_cycles in
  let floor =
    SB.cycles_lb config sb counts ~dyn_instrs:run.Metrics.dyn_instrs
      ~class_counts:run.Metrics.class_counts
  in
  if measured < floor then
    failwith
      (Printf.sprintf
         "static bound unsound: %s on %s measured %d minor cycles < static \
          floor %d"
         r.rq_workload.W.name config.Config.name measured floor);
  let per_base cycles =
    float_of_int run.Metrics.dyn_instrs
    *. float_of_int config.Config.pipe_degree
    /. float_of_int (max 1 cycles)
  in
  { sb_bench = r.rq_workload.W.name;
    sb_machine = config.Config.name;
    sb_loops =
      List.length
        (List.filter
           (fun ((b : SB.loop_bound), (c : SB.counts)) ->
             b.SB.sb_recurrence > 0 && c.SB.traversals > 0)
           (List.combine sb.SB.bounds counts));
    sb_measured_cycles = measured;
    sb_floor_cycles = floor;
    sb_measured_ilp = per_base measured;
    sb_ceiling_ilp = per_base floor;
  }

let static_bounds () =
  let requests =
    Array.of_list
      (List.concat_map
         (fun config ->
           List.map (fun w -> request ~memdep:true w config) Registry.all)
         (static_bounds_presets ()))
  in
  Array.to_list (sweep static_bounds_cell requests)

let render_static_bounds () =
  let rows = static_bounds () in
  Report.section
    "Extension: static per-loop ILP bounds (measured ILP vs static ceiling)"
    (Report.table
       ~header:
         [ "benchmark"; "machine"; "rec loops"; "cycles"; "floor";
           "measured"; "ceiling"; "tight" ]
       (List.map
          (fun r ->
            [ r.sb_bench;
              r.sb_machine;
              string_of_int r.sb_loops;
              string_of_int r.sb_measured_cycles;
              string_of_int r.sb_floor_cycles;
              Printf.sprintf "%.3f" r.sb_measured_ilp;
              Printf.sprintf "%.3f" r.sb_ceiling_ilp;
              Printf.sprintf "%.0f%%"
                (100.0 *. float_of_int r.sb_floor_cycles
                /. float_of_int (max 1 r.sb_measured_cycles)) ])
          rows)
    ^ "\n(the static floor combines per-loop register-recurrence cycles\n\
       with issue-width and functional-unit capacity over the whole\n\
       dynamic stream; measured minor cycles can never dip below it —\n\
       the study aborts if they do.  \"tight\" is floor/measured: how\n\
       much of the run the static bound already explains)")

(* ------------------------------------------------------------------ *)

(* Every experiment's rendering, as a plan built on demand, so that
   loading the library builds no requests.  Static bounds runs a sweep
   of its own inside its read: its rows need each cell's trace and
   binary, which the runs a plan reads do not carry. *)
let all : (string * (unit -> string plan)) list =
  [ ("fig1_1", compute render_fig1_1);
    ("fig2_diagrams", compute render_fig2_diagrams);
    ("fig2_8", compute render_fig2_8);
    ("sec2_3_vector", render_sec2_3_vector);
    ("table2_1", render_table2_1);
    ("fig4_1", render_fig4_1);
    ("fig4_2", compute render_fig4_2);
    ("fig4_3", compute render_fig4_3);
    ("fig4_4", render_fig4_4);
    ("fig4_5", render_fig4_5);
    ("fig4_6", render_fig4_6);
    ("fig4_5_unroll", render_unroll_study);
    ("fig4_7", compute render_fig4_7);
    ("fig4_8", render_fig4_8);
    ("table5_1", compute render_table5_1);
    ("sec5_1", render_sec5_1);
    ("issue_histogram", render_issue_histogram);
    ("ablation_temps", render_ablation_temps);
    ("ablation_class_conflicts", render_ablation_class_conflicts);
    ("ablation_branch", render_ablation_branch);
    ("memdep", render_memdep);
    ("rangedep", compute render_rangedep);
    ("fig4_static_bounds", compute render_static_bounds) ]

let find name =
  Option.map (fun plan () -> measure (plan ())) (List.assoc_opt name all)

(* Every experiment joined into one plan: the whole evaluation is one
   sweep, plus the one static bounds runs in its read. *)
let run_all () =
  let join (_, plan) rest =
    map (fun (s, ss) -> s :: ss) (both (plan ()) rest)
  in
  String.concat "\n"
    (measure (List.fold_right join all (compute (fun () -> []) ())))
