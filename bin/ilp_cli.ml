(* Command-line interface to the reproduction:

     ilp list                          benchmarks and machine presets
     ilp run -b linpack -m cray1 ...   compile + simulate one benchmark
     ilp experiment fig4_1 ...         regenerate a table/figure
     ilp experiment --all              the whole evaluation section
     ilp lint -b linpack -O4           static checks, nothing executed
     ilp disasm -b yacc -O2            dump the compiled IR *)

open Cmdliner

let machine_of_string s =
  match Ilp_machine.Presets.by_name s with
  | Some config -> Ok config
  | None -> (
      (* superscalar-N / superpipelined-M *)
      let try_prefix prefix make =
        let plen = String.length prefix in
        if String.length s > plen && String.sub s 0 plen = prefix then
          int_of_string_opt (String.sub s plen (String.length s - plen))
          |> Option.map (fun n ->
                 (* Config.make rejects a width or degree below 1 *)
                 try Ok (make n) with Invalid_argument msg -> Error msg)
        else None
      in
      let candidates =
        [ try_prefix "superscalar-" Ilp_machine.Presets.superscalar;
          try_prefix "superpipelined-" Ilp_machine.Presets.superpipelined ]
      in
      match List.find_opt Option.is_some candidates with
      | Some (Some (Ok config)) -> Ok config
      | Some (Some (Error msg)) ->
          Error (`Msg (Printf.sprintf "invalid machine %s: %s" s msg))
      | _ ->
          Error
            (`Msg
              (Printf.sprintf
                 "unknown machine %s (try base, multititan, cray1, \
                  cray1-unit, underpipelined, superscalar-N, \
                  superpipelined-M)"
                 s)))

let machine_conv =
  Arg.conv
    ( machine_of_string,
      fun ppf config -> Fmt.string ppf config.Ilp_machine.Config.name )

let level_of_string = function
  | "0" | "O0" | "none" -> Ok Ilp_core.Ilp.O0
  | "1" | "O1" | "sched" -> Ok Ilp_core.Ilp.O1
  | "2" | "O2" | "local" -> Ok Ilp_core.Ilp.O2
  | "3" | "O3" | "global" -> Ok Ilp_core.Ilp.O3
  | "4" | "O4" | "regalloc" -> Ok Ilp_core.Ilp.O4
  | s -> Error (`Msg (Printf.sprintf "unknown optimization level %s" s))

let level_conv =
  Arg.conv
    ( level_of_string,
      fun ppf level -> Fmt.string ppf (Ilp_core.Ilp.opt_level_name level) )

let bench_arg =
  let doc = "Benchmark name (see `ilp list')." in
  Arg.(
    required
    & opt (some string) None
    & info [ "b"; "benchmark" ] ~docv:"NAME" ~doc)

let machine_arg =
  let doc = "Machine configuration." in
  Arg.(
    value
    & opt machine_conv Ilp_machine.Presets.base
    & info [ "m"; "machine" ] ~docv:"MACHINE" ~doc)

let level_arg =
  let doc = "Optimization level (0-4)." in
  Arg.(value & opt level_conv Ilp_core.Ilp.O4 & info [ "O"; "opt" ] ~doc)

let unroll_arg =
  let doc = "Unroll innermost loops by this factor." in
  Arg.(value & opt int 1 & info [ "u"; "unroll" ] ~docv:"N" ~doc)

let careful_arg =
  let doc = "Use careful (reassociating, alias-annotated) unrolling." in
  Arg.(value & flag & info [ "careful" ] ~doc)

let peel_arg =
  let doc =
    "Bound-aware unrolling: constant-fold each innermost loop's bounds \
     through the preceding straight-line code; fully unroll short known \
     trip counts and peel the leading [trips mod factor] iterations of \
     the rest, so no remainder loop survives.  Loops whose bounds stay \
     unknown fall back to the classic main-plus-remainder transform; \
     degenerate or index-mutating loops are skipped either way."
  in
  Arg.(value & flag & info [ "peel" ] ~doc)

let jobs_arg =
  let doc =
    "Number of domains for the parallel sweep engine: capture and replay \
     jobs fan out over $(docv) cores with bit-identical results.  \
     Defaults to the runtime's recommended domain count; 0 forces the \
     serial engine."
  in
  Arg.(
    value
    & opt int (Domain.recommended_domain_count ())
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* Usage errors exit with status 2, distinct from check/compile failures
   (1). *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Fmt.epr "ilp: %s@." msg;
      exit 2)
    fmt

let validate_jobs jobs =
  if jobs < 0 then
    usage_error
      "--jobs must be >= 0 (0 forces the serial engine), got %d" jobs

(* A pool the host cannot start (more domains than the runtime allows)
   is a usage error. *)
let pool_error jobs msg = usage_error "--jobs %d: %s" jobs msg

(* Route sweeps through a [jobs]-domain pool for the duration of one
   subcommand.  [Invalid_argument] before [f] starts can only come from
   starting the pool. *)
let with_jobs jobs f =
  let started = ref false in
  try
    Ilp_core.Experiments.with_jobs jobs (fun () ->
        started := true;
        f ())
  with Invalid_argument msg when not !started -> pool_error jobs msg

let check_arg =
  let doc =
    "Prove every compilation as it happens: validate the IR after every \
     named pass, run the differential oracle at the stage boundaries \
     (each snapshot executed and compared against the unoptimized \
     reference), and verify each schedule is a dependence-respecting \
     permutation.  Measured numbers are bit-identical with and without \
     $(opt)."
  in
  Arg.(value & flag & info [ "check" ] ~doc)

(* A Pass_failed or Mismatch out of a checked compilation is a compiler
   bug report, not a usage error: print it and fail the command. *)
let report_check_failure = function
  | Ilp_core.Ilp.Pass_failed { pass; issue } ->
      Fmt.epr "check failed: pass %s broke the IR: %s@." pass issue;
      exit 1
  | Ilp_core.Diffcheck.Mismatch { stage; what } ->
      Fmt.epr "check failed: %s changed behaviour: %s@." stage what;
      exit 1
  | e -> raise e

let find_bench name =
  match Ilp_workloads.Registry.find name with
  | Some w -> w
  | None ->
      Fmt.epr "unknown benchmark %s; available: %s@." name
        (String.concat ", " Ilp_workloads.Registry.names);
      exit 1

let unroll_spec factor careful peel =
  if factor <= 1 then None
  else
    Some
      { Ilp_core.Ilp.mode =
          (if careful then Ilp_lang.Unroll.Careful else Ilp_lang.Unroll.Naive);
        factor;
        bounds = peel;
      }

(* What the unroller did (and declined to do) to [source] under [unroll]
   — recomputed from the typed AST so commands that only see the
   compiled result can still report it. *)
let unroll_stats_for unroll source =
  match unroll with
  | None -> Ilp_lang.Unroll.no_stats
  | Some { Ilp_core.Ilp.mode; factor; bounds } ->
      snd
        (Ilp_lang.Unroll.program_stats ~bounds mode factor
           (Ilp_lang.Semant.compile_source source))

let source_for w careful =
  if careful then Ilp_workloads.Workload.source_for_mode w `Careful
  else w.Ilp_workloads.Workload.source

(* A MiniMod [--file] that lexes, parses and type checks.  An unreadable
   or malformed file ends here with a located diagnostic,
   FILE:LINE:COL: message, and exit status 2. *)
let read_checked_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg ->
      Fmt.epr "cannot read %s: %s@." path msg;
      exit 2
  | source -> (
      let located msg (pos : Ilp_lang.Ast.pos) =
        Fmt.epr "%s:%d:%d: %s@." path pos.line pos.col msg;
        exit 2
      in
      match Ilp_lang.Semant.compile_source source with
      | _ -> source
      | exception Ilp_lang.Lexer.Error (msg, pos) -> located msg pos
      | exception Ilp_lang.Parser.Error (msg, pos) -> located msg pos
      | exception Ilp_lang.Semant.Error (msg, pos) -> located msg pos)

(* --- run ---------------------------------------------------------------- *)

let run_cmd =
  let verbose_arg =
    let doc =
      "Also report the captured trace's footprint — segment visits, \
       addresses and payload bytes — and how many of the visits replay \
       issued one instruction at a time rather than from its memo."
    in
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc)
  in
  let memdep_arg =
    let doc =
      "Schedule with static memory-dependence disambiguation: dependence \
       edges between memory accesses the alias analysis proves disjoint \
       are dropped before list scheduling.  With $(b,--check), every \
       pruned edge is independently re-justified against a conservative \
       dependence graph and the disambiguated schedule's per-address \
       store streams are compared against the unscheduled program."
    in
    Arg.(value & flag & info [ "memdep" ] ~doc)
  in
  let action bench machine level factor careful peel check memdep verbose =
    let w = find_bench bench in
    let unroll = unroll_spec factor careful peel in
    let source = source_for w careful in
    let binary =
      try
        if check then
          Ilp_core.Diffcheck.check_compile ?unroll ~memdep ~level machine
            source
        else Ilp_core.Ilp.compile ?unroll ~memdep ~level machine source
      with e -> report_check_failure e
    in
    let trace = Ilp_sim.Trace_buffer.capture binary in
    let r = Ilp_sim.Metrics.measure_replay machine trace binary in
    Fmt.pr "benchmark      %s@." bench;
    Fmt.pr "machine        %s@." machine.Ilp_machine.Config.name;
    Fmt.pr "optimization   %s@." (Ilp_core.Ilp.opt_level_name level);
    if memdep then Fmt.pr "memdep         alias-aware scheduling@.";
    if check then Fmt.pr "checked        every pass (clean)@.";
    if verbose then begin
      let st = Ilp_sim.Trace_buffer.stats trace in
      Fmt.pr "trace          %d visit(s), %d address(es)@."
        st.Ilp_sim.Trace_buffer.visits st.Ilp_sim.Trace_buffer.addresses;
      Fmt.pr "trace size     %d byte(s)@." st.Ilp_sim.Trace_buffer.bytes;
      let timing = Ilp_sim.Timing.create machine in
      Ilp_sim.Trace_buffer.replay trace binary timing;
      Fmt.pr "replay stepped %d of %d visit(s)@." timing.Ilp_sim.Timing.stepped
        st.Ilp_sim.Trace_buffer.visits
    end;
    Fmt.pr "instructions   %d@." r.Ilp_sim.Metrics.dyn_instrs;
    Fmt.pr "base cycles    %.1f@." r.Ilp_sim.Metrics.base_cycles;
    Fmt.pr "speedup (ILP)  %.3f@." r.Ilp_sim.Metrics.speedup;
    Fmt.pr "checksum       %a@." Ilp_sim.Value.pp r.Ilp_sim.Metrics.sink
  in
  let term =
    Term.(
      const action $ bench_arg $ machine_arg $ level_arg $ unroll_arg
      $ careful_arg $ peel_arg $ check_arg $ memdep_arg $ verbose_arg)
  in
  Cmd.v (Cmd.info "run" ~doc:"Compile and simulate one benchmark") term

(* --- list --------------------------------------------------------------- *)

let list_cmd =
  let action () =
    Fmt.pr "benchmarks:@.";
    List.iter
      (fun w ->
        Fmt.pr "  %-10s %s@." w.Ilp_workloads.Workload.name
          w.Ilp_workloads.Workload.description)
      Ilp_workloads.Registry.all;
    Fmt.pr "@.machines: base, multititan, cray1, cray1-unit, underpipelined,@.";
    Fmt.pr "  superscalar-N, superpipelined-M@.";
    Fmt.pr "@.experiments:@.";
    List.iter
      (fun (name, _) -> Fmt.pr "  %s@." name)
      Ilp_core.Experiments.all
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List benchmarks, machines, and experiments")
    Term.(const action $ const ())

(* --- experiment --------------------------------------------------------- *)

let experiment_cmd =
  let all_flag =
    Arg.(value & flag & info [ "all" ] ~doc:"Run every experiment.")
  in
  let name_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"EXPERIMENT")
  in
  let action all name check jobs =
    validate_jobs jobs;
    try
      Ilp_core.Experiments.with_checks check (fun () ->
          with_jobs jobs (fun () ->
              if all then print_string (Ilp_core.Experiments.run_all ())
              else
                match name with
                | None ->
                    Fmt.epr "specify an experiment or --all (see `ilp list')@.";
                    exit 1
                | Some name -> (
                    match Ilp_core.Experiments.find name with
                    | Some render -> print_string (render ())
                    | None ->
                        Fmt.epr "unknown experiment %s@." name;
                        exit 1)))
    with e -> report_check_failure e
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate a table or figure from the paper's evaluation")
    Term.(const action $ all_flag $ name_arg $ check_arg $ jobs_arg)

(* --- fuzz --------------------------------------------------------------- *)

let fuzz_cmd =
  let count_arg =
    Arg.(
      value & opt int 100
      & info [ "n"; "count" ] ~docv:"N" ~doc:"Random programs to check.")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "s"; "seed" ] ~docv:"SEED"
          ~doc:
            "Base random seed.  A run is fully determined by (seed, \
             count): the same counterexample is found and shrunk at any \
             --jobs.")
  in
  let alias_heavy_arg =
    Arg.(
      value & flag
      & info [ "alias-heavy" ]
          ~doc:
            "Draw from the aliasing-adversarial generator mode: one or two \
             arrays hammered through affine indices over shared index \
             locals, index copies, and small positive and negative \
             offsets — the shapes the memory-dependence analysis must \
             either prove apart or refuse to prune.")
  in
  let unroll_heavy_arg =
    Arg.(
      value & flag
      & info [ "unroll-heavy" ]
          ~doc:
            "Draw from the unrolling-adversarial generator mode: small \
             constant bounds around the unroll factors (trip counts 0, 1, \
             factor-1, factor, factor+1), down-counting loops, steps \
             beyond one, inclusive comparisons, statically-zero-trip \
             degenerate headers, loop-index self-assignment and unknown \
             scalar bounds — and widen the unroll specs checked at O4 to \
             both modes, factors up to 8, and both bound settings.")
  in
  let range_heavy_arg =
    Arg.(
      value & flag
      & info [ "range-heavy" ]
          ~doc:
            "Draw from the range-adversarial generator mode: stride-2 and \
             stride-3 index arithmetic interleaving even/odd and mod-3 \
             array cells, split upper/lower array windows, loop bounds \
             near the array extents, and nested counted loops driving \
             monotone accumulators through the widening machinery — the \
             shapes only the value-range analysis can prove apart, so \
             every range-justified schedule prune is re-checked and \
             store-stream-compared.")
  in
  let action count seed jobs alias_heavy unroll_heavy range_heavy =
    validate_jobs jobs;
    if count < 0 then usage_error "--count must be >= 0, got %d" count;
    match
      Ilp_core.Fuzz.run ~jobs ~count ~seed ~alias_heavy ~unroll_heavy
        ~range_heavy ()
    with
    | () ->
        Fmt.pr
          "fuzz: %d random %sprograms x 5 levels x 3 machines: all checks \
           passed (seed %d)@."
          count
          (if alias_heavy then "alias-heavy "
           else if unroll_heavy then "unroll-heavy "
           else if range_heavy then "range-heavy "
           else "")
          seed
    (* every failing iteration ends in [Failed]; only starting the pool
       raises [Invalid_argument] *)
    | exception Invalid_argument msg -> pool_error jobs msg
    | exception Ilp_core.Fuzz.Failed f ->
        Fmt.epr "fuzz: iteration %d (seed %d) FAILED on %s:@.  %s@." f.index
          f.seed f.config_name f.error;
        Fmt.epr "@.shrunk counterexample:@.%s@." f.source;
        exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differentially test the compiler on random MiniMod programs: \
          every pass validated, every stage executed and compared, every \
          schedule legality-checked; failures are shrunk to a minimal \
          program")
    Term.(
      const action $ count_arg $ seed_arg $ jobs_arg $ alias_heavy_arg
      $ unroll_heavy_arg $ range_heavy_arg)

(* --- lint --------------------------------------------------------------- *)

(* Static checking only — nothing is executed.  The program is compiled
   with snapshots after codegen and after every pipeline pass; each
   snapshot is validated (with register-file bounds once allocated) and
   def-assign checked, the register allocators are verified at their
   before/after seams, the schedule is checked as a dependence-respecting
   permutation, and the last pre-allocation snapshot gets the full lint
   suite (dead code, unreachable blocks, redundant expressions). *)
let lint_compile ?unroll ~level config source =
  let module D = Ilp_analysis.Diagnostics in
  let snapshots = ref [] in
  let on_pass name stage p = snapshots := (name, stage, p) :: !snapshots in
  let unsched =
    Ilp_core.Ilp.compile_unscheduled ?unroll ~on_pass ~level config source
  in
  ignore (Ilp_core.Ilp.schedule ~on_pass ~level config unsched);
  let snapshots = List.rev !snapshots in
  let max_reg = Ilp_regalloc.Regfile.file_size config in
  let last_virtual =
    List.fold_left
      (fun acc (name, stage, p) ->
        if stage = `Virtual then Some (name, p) else acc)
      None snapshots
  in
  let diags = ref [] in
  let add pass ds = diags := !diags @ List.map (fun d -> (pass, d)) ds in
  let rec walk prev = function
    | [] -> ()
    | (name, stage, p) :: rest ->
        add name
          (List.map
             (fun (i : Ilp_ir.Validate.issue) ->
               D.make Error ~check:"validate" ~func:i.Ilp_ir.Validate.where
                 i.Ilp_ir.Validate.what)
             (Ilp_ir.Validate.check ~stage ~max_reg p));
        if stage = `Virtual then add name (Ilp_analysis.Lint.errors_only p);
        (match (name, prev) with
        | "global_alloc", Some before ->
            add name
              (Ilp_regalloc.Regalloc_verify.check_global_alloc config ~before
                 ~after:p)
        | "temp_alloc", Some before ->
            add name
              (Ilp_regalloc.Regalloc_verify.check_temp_alloc_program config
                 ~before ~after:p)
        | "list_sched", Some before ->
            (try
               Ilp_sched.Check_sched.check_program config ~original:before
                 ~scheduled:p
             with Ilp_sched.Check_sched.Illegal msg ->
               add name [ D.make Error ~check:"sched" ~func:"program" msg ]);
            (* per-function disambiguation stats on the pre-schedule
               program: how many ordered memory pairs the alias analysis
               sees, proves apart, and would prune beyond the region
               annotations *)
            List.iter
              (fun (f : Ilp_ir.Func.t) ->
                let md = Ilp_analysis.Memdep.analyze f in
                let s = Ilp_analysis.Memdep.func_stats md f in
                add name
                  [ D.make Ilp_analysis.Diagnostics.Info ~check:"memdep"
                      ~func:f.Ilp_ir.Func.name
                      (Printf.sprintf
                         "%d ordered memory pair(s): %d proven no-alias, \
                          %d must-alias, %d edge(s) pruned beyond the \
                          region analysis"
                         s.Ilp_analysis.Memdep.pairs
                         s.Ilp_analysis.Memdep.no_alias
                         s.Ilp_analysis.Memdep.must_alias
                         s.Ilp_analysis.Memdep.pruned) ])
              before.Ilp_ir.Program.functions
        | _ -> ());
        walk (Some p) rest
  in
  walk None snapshots;
  (match last_virtual with
  | Some (name, p) ->
      add name
        (List.filter
           (fun d -> not (D.is_error d))
           (Ilp_analysis.Lint.check p))
  | None -> ());
  !diags

let severity_conv =
  let parse = function
    | "error" -> Ok Ilp_analysis.Diagnostics.Error
    | "warning" -> Ok Ilp_analysis.Diagnostics.Warning
    | "info" -> Ok Ilp_analysis.Diagnostics.Info
    | s -> Error (`Msg (Printf.sprintf "unknown severity %s" s))
  in
  Arg.conv (parse, Ilp_analysis.Diagnostics.pp_severity)

(* --- subscript sanitizer ------------------------------------------------ *)

(* The value-range subscript sanitizer (abstract interpretation over
   the interval x congruence product) on the same typed, possibly
   unrolled program the compiler sees.  Verdicts fold into lint
   diagnostics: a proved out-of-bounds access is an error, an
   unprovable one a warning; proved-safe sites stay silent. *)
let sanitize_analysis ?unroll source =
  let tast = Ilp_core.Ilp.frontend source in
  let tast =
    match unroll with
    | Some { Ilp_core.Ilp.mode; factor; bounds } ->
        Ilp_lang.Unroll.program ~bounds mode factor tast
    | None -> tast
  in
  Ilp_lang.Absint.analyze tast

(* One diagnostic per non-safe (function, array, direction, verdict)
   group: unrolling duplicates an access once per loop copy (with the
   subscript range shifted by the copy's offset), so same-shaped sites
   collapse into a single finding whose range is the join over the
   group and whose copy count says how many sites it stands for.  The
   first site's statement path survives as the location. *)
let sanitize_diags (t : Ilp_lang.Absint.t) :
    (string * Ilp_analysis.Diagnostics.t * int) list =
  let module A = Ilp_lang.Absint in
  let module D = Ilp_analysis.Diagnostics in
  let tbl = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun (s : A.site) ->
      match s.A.s_verdict with
      | A.Proved_safe -> ()
      | v -> (
          let key = (s.A.s_func, s.A.s_array, s.A.s_write, v) in
          match Hashtbl.find_opt tbl key with
          | Some r ->
              let range, n = !r in
              r := (Ilp_analysis.Range.V.join range s.A.s_range, n + 1)
          | None ->
              let r = ref (s.A.s_range, 1) in
              Hashtbl.add tbl key r;
              order := (s, r) :: !order))
    t.A.sites;
  List.rev_map
    (fun ((s : A.site), r) ->
      let range, copies = !r in
      ( "sanitize",
        D.make
          (match s.A.s_verdict with
          | A.Proved_oob -> D.Error
          | _ -> D.Warning)
          ~check:"sanitize" ~func:s.A.s_func ~instr:s.A.s_path
          (Printf.sprintf "%s %s[%s] vs extent %d: %s"
             (if s.A.s_write then "store to" else "load from")
             s.A.s_array
             (Ilp_analysis.Range.V.to_string range)
             s.A.s_extent
             (A.verdict_name s.A.s_verdict)),
        copies ))
    !order

(* [(safe, oob, unknown)] counts plus the grouped diagnostics. *)
let sanitize_report ?unroll source =
  let t = sanitize_analysis ?unroll source in
  (Ilp_lang.Absint.counts t, sanitize_diags t)

(* Unrolling copies a loop body N times — and with it every diagnostic
   the copies share.  Collapse findings identical up to their location
   (same pass, severity, check, function and message) into one entry
   carrying its copy count; the first copy's location survives and
   first-appearance order is kept. *)
let dedup_diags (diags : (string * Ilp_analysis.Diagnostics.t) list) :
    (string * Ilp_analysis.Diagnostics.t * int) list =
  let module D = Ilp_analysis.Diagnostics in
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (pass, (d : D.t)) ->
      let key = (pass, d.D.severity, d.D.check, d.D.func, d.D.message) in
      match Hashtbl.find_opt tbl key with
      | Some r -> incr r
      | None ->
          let r = ref 1 in
          Hashtbl.add tbl key r;
          order := (pass, d, r) :: !order)
    diags;
  List.rev_map (fun (pass, d, r) -> (pass, d, !r)) !order

let copies_suffix n = if n > 1 then Printf.sprintf " [x%d copies]" n else ""

(* Stable machine-readable rendering of lint results: schema version 3,
   one entry per linted (benchmark, machine, level, unroll, careful,
   peel) configuration with its threshold-filtered, unroll-deduplicated
   diagnostics (each carrying a [copies] count — how many identical
   findings, typically one per unrolled loop copy, it stands for; the
   severity summary counts each deduplicated entry once), an
   always-present unroll_stats object (loops rolled / peeled / fully
   unrolled, plus every skip reason with an explicit count — zero
   included — so consumers never have to probe for keys), and a
   [sanitize] object with the subscript sanitizer's verdict tally
   (proved-safe / proved-out-of-bounds / unknown over every syntactic
   array access).  Hand-rolled printer — the repo deliberately carries
   no JSON dependency. *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let lint_json results =
  let module D = Ilp_analysis.Diagnostics in
  let b = Buffer.create 4096 in
  let errors = ref 0 and warnings = ref 0 and infos = ref 0 in
  let severity_name = function
    | D.Error -> "error"
    | D.Warning -> "warning"
    | D.Info -> "info"
  in
  let opt_string = function
    | None -> "null"
    | Some s -> Printf.sprintf "\"%s\"" (json_escape s)
  in
  let unroll_stats_json (st : Ilp_lang.Unroll.stats) =
    Printf.sprintf
      "{ \"rolled\": %d, \"peeled\": %d, \"full\": %d, \"skipped\": { %s } }"
      st.Ilp_lang.Unroll.rolled st.Ilp_lang.Unroll.peeled
      st.Ilp_lang.Unroll.full
      (String.concat ", "
         (List.map
            (fun r ->
              Printf.sprintf "\"%s\": %d"
                (Ilp_lang.Unroll.skip_reason_name r)
                (Ilp_lang.Unroll.skip_count st r))
            Ilp_lang.Unroll.all_skip_reasons))
  in
  Buffer.add_string b "{\n  \"version\": 3,\n  \"results\": [";
  List.iteri
    (fun i
         ( bench, machine, level, factor, careful, peel, stats,
           (safe, oob, unknown), diags ) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\n    { \"bench\": \"%s\", \"machine\": \"%s\", \"level\": \
            \"O%d\", \"unroll\": %d, \"careful\": %b, \"peel\": %b,\n\
           \      \"unroll_stats\": %s,\n\
           \      \"sanitize\": { \"safe\": %d, \"oob\": %d, \"unknown\": \
            %d },\n\
           \      \"diagnostics\": ["
           (json_escape bench) (json_escape machine)
           (Ilp_core.Ilp.level_rank level)
           factor careful peel (unroll_stats_json stats) safe oob unknown);
      List.iteri
        (fun j (pass, d, copies) ->
          (match d.D.severity with
          | D.Error -> incr errors
          | D.Warning -> incr warnings
          | D.Info -> incr infos);
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf
               "\n        { \"pass\": \"%s\", \"severity\": \"%s\", \
                \"check\": \"%s\", \"func\": \"%s\", \"block\": %s, \
                \"instr\": %s, \"copies\": %d, \"message\": \"%s\" }"
               (json_escape pass)
               (severity_name d.D.severity)
               (json_escape d.D.check) (json_escape d.D.func)
               (opt_string d.D.block) (opt_string d.D.instr) copies
               (json_escape d.D.message)))
        diags;
      Buffer.add_string b
        (if diags = [] then "] }" else "\n      ] }"))
    results;
  Buffer.add_string b
    (Printf.sprintf
       "\n  ],\n\
       \  \"summary\": { \"errors\": %d, \"warnings\": %d, \"infos\": %d }\n\
        }\n"
       !errors !warnings !infos);
  Buffer.contents b

(* The deterministic aliasing-adversarial corpus `lint --all` sweeps in
   addition to the benchmark suite: the same generator mode as
   `ilp fuzz --alias-heavy`, at pinned seeds so CI output is stable. *)
let alias_corpus () =
  List.init 10 (fun k ->
      let st = Random.State.make [| 0x1197; 0xa11a; k |] in
      ( Printf.sprintf "alias-%02d" k,
        Ilp_lang.Gen_prog.render
          (Ilp_lang.Gen_prog.generate ~mode:`Alias_heavy st) ))

let lint_cmd =
  let module D = Ilp_analysis.Diagnostics in
  let all_flag =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:
            "Lint every benchmark, plus a deterministic \
             aliasing-adversarial generated corpus, at every optimization \
             level and unroll factor; print error diagnostics (capped) \
             and a summary line per program.")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit diagnostics as JSON (schema version 3) on stdout \
             instead of text: one result per linted configuration with \
             its pass, severity, check, location, copy count and \
             message, an unroll_stats object (loops rolled, peeled and \
             fully unrolled, plus a per-reason skip count that always \
             lists every reason), a sanitize object with the subscript \
             sanitizer's safe/oob/unknown verdict tally, plus a \
             severity summary.  The exit code still reflects \
             error-severity findings only.")
  in
  let bench_opt_arg =
    let doc = "Benchmark name (see `ilp list'); required without --all." in
    Arg.(
      value
      & opt (some string) None
      & info [ "b"; "benchmark" ] ~docv:"NAME" ~doc)
  in
  let severity_arg =
    let doc =
      "Lowest severity to report: error, warning or info.  The exit code \
       reflects error-severity findings only."
    in
    Arg.(
      value
      & opt severity_conv Ilp_analysis.Diagnostics.Warning
      & info [ "severity" ] ~docv:"LEVEL" ~doc)
  in
  let rank = function D.Error -> 0 | D.Warning -> 1 | D.Info -> 2 in
  let report ~threshold diags =
    let shown =
      List.filter (fun (_, d, _) -> rank d.D.severity <= rank threshold) diags
    in
    List.iter
      (fun (pass, d, copies) ->
        Fmt.pr "%s: %s%s@." pass (D.to_string d) (copies_suffix copies))
      shown;
    List.length shown
  in
  let pp_unroll_stats (st : Ilp_lang.Unroll.stats) =
    let skips =
      List.filter_map
        (fun r ->
          let n = Ilp_lang.Unroll.skip_count st r in
          if n = 0 then None
          else Some (Printf.sprintf "%s %d" (Ilp_lang.Unroll.skip_reason_name r) n))
        Ilp_lang.Unroll.all_skip_reasons
    in
    Printf.sprintf "%d rolled, %d peeled, %d fully unrolled%s"
      st.Ilp_lang.Unroll.rolled st.Ilp_lang.Unroll.peeled
      st.Ilp_lang.Unroll.full
      (if skips = [] then ""
       else "; skipped: " ^ String.concat ", " skips)
  in
  let file_arg =
    let doc =
      "Lint a MiniMod source file instead of a named benchmark.  \
       Mutually exclusive with -b and --all."
    in
    Arg.(
      value & opt (some string) None & info [ "file" ] ~docv:"PATH" ~doc)
  in
  let action all json bench file machine level factor careful peel threshold =
    let keep diags =
      List.filter (fun (_, d, _) -> rank d.D.severity <= rank threshold) diags
    in
    if all then begin
      let corpus = alias_corpus () in
      let targets =
        List.map
          (fun w ->
            (w.Ilp_workloads.Workload.name, w.Ilp_workloads.Workload.source))
          Ilp_workloads.Registry.all
        @ corpus
      in
      let results = ref [] in
      let errors = ref 0 in
      (* the dump of individual error diagnostics is capped; the
         nonzero-exit path always ends with a one-line summary count *)
      let dump_cap = 20 in
      let dumped = ref 0 in
      let suppressed = ref 0 in
      List.iter
        (fun (bname, source) ->
          let bench_errors = ref 0 in
          (* the sanitizer's verdicts depend only on the unrolled
             program, not the optimization level: one analysis per
             (factor, peel) serves all five levels *)
          let sanitize_memo = Hashtbl.create 4 in
          let sanitize_for unroll factor speel =
            match Hashtbl.find_opt sanitize_memo (factor, speel) with
            | Some r -> r
            | None ->
                let r = sanitize_report ?unroll source in
                Hashtbl.add sanitize_memo (factor, speel) r;
                r
          in
          List.iter
            (fun level ->
              List.iter
                (fun (factor, speel) ->
                  let unroll = unroll_spec factor false speel in
                  let scounts, sdiags = sanitize_for unroll factor speel in
                  let diags =
                    dedup_diags (lint_compile ?unroll ~level machine source)
                    @ sdiags
                  in
                  results :=
                    ( bname, machine.Ilp_machine.Config.name, level, factor,
                      false, speel, unroll_stats_for unroll source, scounts,
                      keep diags )
                    :: !results;
                  let errs =
                    List.filter (fun (_, d, _) -> D.is_error d) diags
                  in
                  bench_errors := !bench_errors + List.length errs;
                  if not json then
                    List.iter
                      (fun (pass, d, copies) ->
                        if !dumped < dump_cap then begin
                          incr dumped;
                          Fmt.pr "%s -O%d -u%d%s %s: %s%s@." bname
                            (Ilp_core.Ilp.level_rank level)
                            factor
                            (if speel then " --peel" else "")
                            pass (D.to_string d) (copies_suffix copies)
                        end
                        else incr suppressed)
                      errs)
                [ (1, false); (2, false); (4, false); (4, true) ])
            Ilp_core.Ilp.all_levels;
          errors := !errors + !bench_errors;
          if not json then
            Fmt.pr "lint %-10s %s: %s@." bname
              machine.Ilp_machine.Config.name
              (if !bench_errors = 0 then
                 "clean at every level and unroll factor"
               else Printf.sprintf "%d error(s)" !bench_errors))
        targets;
      if json then print_string (lint_json (List.rev !results));
      if !errors > 0 then begin
        if !suppressed > 0 then
          Fmt.pr "... %d more error(s) not shown@." !suppressed;
        Fmt.epr
          "lint: %d error(s) across %d benchmark(s) and %d generated \
           program(s)@."
          !errors
          (List.length Ilp_workloads.Registry.all)
          (List.length corpus);
        exit 1
      end
    end
    else
      let target =
        match (bench, file) with
        | Some _, Some _ ->
            Fmt.epr "-b and --file are mutually exclusive@.";
            exit 2
        | Some bench, None ->
            let w = find_bench bench in
            Some (bench, source_for w careful)
        | None, Some path ->
            Some (Filename.basename path, read_checked_file path)
        | None, None -> None
      in
      match target with
      | None ->
          Fmt.epr "specify a benchmark with -b, a --file, or use --all@.";
          exit 1
      | Some (bench, source) ->
          let unroll = unroll_spec factor careful peel in
          let stats = unroll_stats_for unroll source in
          let scounts, sdiags = sanitize_report ?unroll source in
          let diags =
            dedup_diags (lint_compile ?unroll ~level machine source) @ sdiags
          in
          let errors = List.filter (fun (_, d, _) -> D.is_error d) diags in
          if json then
            print_string
              (lint_json
                 [ ( bench, machine.Ilp_machine.Config.name, level, factor,
                     careful, peel, stats, scounts, keep diags ) ])
          else begin
            let shown = report ~threshold diags in
            if unroll <> None then
              Fmt.pr "unroll x%d: %s@." factor (pp_unroll_stats stats);
            let safe, oob, unknown = scounts in
            Fmt.pr "sanitize: %d subscript(s): %d proved safe, %d proved \
                    out-of-bounds, %d unknown@."
              (safe + oob + unknown) safe oob unknown;
            if shown = 0 then
              Fmt.pr "lint: %s at %s on %s: clean (nothing at or above %a)@."
                bench
                (Ilp_core.Ilp.opt_level_name level)
                machine.Ilp_machine.Config.name D.pp_severity threshold
          end;
          if errors <> [] then exit 1
  in
  let term =
    Term.(
      const action $ all_flag $ json_flag $ bench_opt_arg $ file_arg
      $ machine_arg $ level_arg $ unroll_arg $ careful_arg $ peel_arg
      $ severity_arg)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically check a compilation without executing it: IR \
          validation, dataflow lints (use-before-def, dead code, \
          unreachable blocks, redundant expressions), independent \
          register-allocation verification, and schedule legality")
    term

(* --- sanitize ----------------------------------------------------------- *)

(* The subscript sanitizer as its own entry point: no compilation, no
   execution — parse, type check, optionally unroll, then abstract
   interpretation and one verdict per array access.  Exit is nonzero
   exactly when some access is *proved* out of bounds; unknowns are
   reported but do not fail (a sound analysis on real programs always
   leaves some), making `ilp sanitize --all` a CI gate for the suite. *)
let sanitize_cmd =
  let module D = Ilp_analysis.Diagnostics in
  let all_flag =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:
            "Sanitize every benchmark (the paper's eight plus the \
             extras), unrolled as shipped and rolled, with a verdict \
             tally per program; exit nonzero if any access is proved \
             out of bounds.")
  in
  let bench_opt_arg =
    let doc = "Benchmark name (see `ilp list'); required without --all." in
    Arg.(
      value
      & opt (some string) None
      & info [ "b"; "benchmark" ] ~docv:"NAME" ~doc)
  in
  let file_arg =
    let doc = "Sanitize a MiniMod source file instead of a benchmark." in
    Arg.(
      value & opt (some string) None & info [ "file" ] ~docv:"PATH" ~doc)
  in
  let tally name (safe, oob, unknown) =
    Fmt.pr "sanitize %-10s %3d subscript(s): %3d safe, %d oob, %3d unknown%s@."
      name (safe + oob + unknown) safe oob unknown
      (if oob > 0 then "  <-- PROVED OUT OF BOUNDS" else "")
  in
  let print_diags diags =
    List.iter
      (fun (pass, d, copies) ->
        Fmt.pr "%s: %s%s@." pass (D.to_string d) (copies_suffix copies))
      diags
  in
  let action all bench file factor careful peel =
    if all then begin
      let oob_total = ref 0 in
      List.iter
        (fun (w : Ilp_workloads.Workload.t) ->
          let specs =
            (* rolled, plus the workload's shipped unroll factor (the
               program the measured figures actually run) *)
            None
            ::
            (if w.Ilp_workloads.Workload.default_unroll > 1 then
               [ unroll_spec w.Ilp_workloads.Workload.default_unroll false
                   false ]
             else [])
          in
          List.iter
            (fun unroll ->
              let (safe, oob, unknown), diags =
                sanitize_report ?unroll w.Ilp_workloads.Workload.source
              in
              let suffix =
                match unroll with
                | None -> w.Ilp_workloads.Workload.name
                | Some { Ilp_core.Ilp.factor; _ } ->
                    Printf.sprintf "%s x%d" w.Ilp_workloads.Workload.name
                      factor
              in
              tally suffix (safe, oob, unknown);
              oob_total := !oob_total + oob;
              if oob > 0 then
                print_diags
                  (List.filter (fun (_, d, _) -> D.is_error d) diags))
            specs)
        (Ilp_workloads.Registry.all @ Ilp_workloads.Registry.extras);
      if !oob_total > 0 then begin
        Fmt.epr "sanitize: %d access(es) proved out of bounds@." !oob_total;
        exit 1
      end
    end
    else
      let target =
        match (bench, file) with
        | Some _, Some _ ->
            Fmt.epr "-b and --file are mutually exclusive@.";
            exit 2
        | Some bench, None ->
            let w = find_bench bench in
            Some (bench, source_for w careful)
        | None, Some path ->
            Some (Filename.basename path, read_checked_file path)
        | None, None -> None
      in
      match target with
      | None ->
          Fmt.epr "specify a benchmark with -b, a --file, or use --all@.";
          exit 1
      | Some (name, source) ->
          let unroll = unroll_spec factor careful peel in
          let (safe, oob, unknown), diags = sanitize_report ?unroll source in
          print_diags diags;
          tally name (safe, oob, unknown);
          if oob > 0 then exit 1
  in
  let term =
    Term.(
      const action $ all_flag $ bench_opt_arg $ file_arg $ unroll_arg
      $ careful_arg $ peel_arg)
  in
  Cmd.v
    (Cmd.info "sanitize"
       ~doc:
         "Statically classify every array access as proved in bounds, \
          proved out of bounds, or unknown, using value-range abstract \
          interpretation (intervals x congruences) over the whole \
          program; exits nonzero only on proved out-of-bounds accesses")
    term

(* --- disasm ------------------------------------------------------------- *)

let disasm_cmd =
  let fn_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "f"; "function" ] ~docv:"NAME"
          ~doc:"Only show this function.")
  in
  let action bench machine level factor careful peel fn =
    let w = find_bench bench in
    let unroll = unroll_spec factor careful peel in
    let p =
      Ilp_core.Ilp.compile ?unroll ~level machine (source_for w careful)
    in
    match fn with
    | None -> Fmt.pr "%a@." Ilp_ir.Program.pp p
    | Some name -> (
        match Ilp_ir.Program.find_function p name with
        | Some f -> Fmt.pr "%a@." Ilp_ir.Func.pp f
        | None ->
            Fmt.epr "no function %s@." name;
            exit 1)
  in
  let term =
    Term.(
      const action $ bench_arg $ machine_arg $ level_arg $ unroll_arg
      $ careful_arg $ peel_arg $ fn_arg)
  in
  Cmd.v (Cmd.info "disasm" ~doc:"Dump the compiled IR of a benchmark") term

(* --- trace -------------------------------------------------------------- *)

let trace_cmd =
  let limit_arg =
    Arg.(
      value & opt int 80
      & info [ "n"; "limit" ] ~docv:"N" ~doc:"Instructions to show.")
  in
  let action bench machine level factor careful peel limit =
    let w = find_bench bench in
    let unroll = unroll_spec factor careful peel in
    let p =
      Ilp_core.Ilp.compile ?unroll ~level machine (source_for w careful)
    in
    let entries, outcome = Ilp_sim.Trace.capture ~limit p in
    print_string (Ilp_sim.Trace.render entries);
    Fmt.pr "... (%d instructions total, checksum %a)@."
      outcome.Ilp_sim.Exec.dyn_instrs Ilp_sim.Value.pp
      outcome.Ilp_sim.Exec.sink
  in
  let term =
    Term.(
      const action $ bench_arg $ machine_arg $ level_arg $ unroll_arg
      $ careful_arg $ peel_arg $ limit_arg)
  in
  Cmd.v (Cmd.info "trace" ~doc:"Show the first N executed instructions") term

(* --- profile ------------------------------------------------------------ *)

let profile_cmd =
  let action bench machine level factor careful peel =
    let w = find_bench bench in
    let unroll = unroll_spec factor careful peel in
    let p =
      Ilp_core.Ilp.compile ?unroll ~level machine (source_for w careful)
    in
    let trace = Ilp_sim.Trace_buffer.capture p in
    let r = Ilp_sim.Metrics.measure_replay machine trace p in
    let total = float_of_int r.Ilp_sim.Metrics.dyn_instrs in
    Fmt.pr "per-function dynamic instruction counts:@.";
    List.iter
      (fun (name, count) ->
        Fmt.pr "  %-16s %10d  (%.1f%%)@." name count
          (100.0 *. float_of_int count /. total))
      (Ilp_sim.Trace_buffer.per_function trace);
    Fmt.pr "@.instruction-class mix:@.";
    Array.iteri
      (fun idx count ->
        if count > 0 then
          Fmt.pr "  %-10s %10d  (%.1f%%)@."
            (Ilp_ir.Iclass.name (Ilp_ir.Iclass.of_index idx))
            count
            (100.0 *. float_of_int count /. total))
      r.Ilp_sim.Metrics.class_counts;
    Fmt.pr "@.issue-width histogram on %s:@." machine.Ilp_machine.Config.name;
    let histogram = r.Ilp_sim.Metrics.issue_histogram in
    let cycles = float_of_int (Array.fold_left ( + ) 0 histogram) in
    Array.iteri
      (fun k count ->
        Fmt.pr "  %d/cycle  %10d  (%.1f%%)@." k count
          (100.0 *. float_of_int count /. cycles))
      histogram
  in
  let term =
    Term.(
      const action $ bench_arg $ machine_arg $ level_arg $ unroll_arg
      $ careful_arg $ peel_arg)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Per-function, per-class and per-cycle issue statistics")
    term

let main_cmd =
  let doc =
    "reproduction of Jouppi & Wall, Available Instruction-Level \
     Parallelism for Superscalar and Superpipelined Machines (ASPLOS 1989)"
  in
  Cmd.group (Cmd.info "ilp" ~doc)
    [ run_cmd; list_cmd; experiment_cmd; fuzz_cmd; lint_cmd; sanitize_cmd;
      disasm_cmd; trace_cmd; profile_cmd ]

let () = exit (Cmd.eval main_cmd)
