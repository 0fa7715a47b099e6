(* Value-range abstract interpretation: the interval x congruence
   product, the MiniMod subscript sanitizer, range-sharpened memory
   disambiguation, and static per-loop ILP bounds.

   The headline property at the end is dynamic soundness: on random
   programs (all four generator modes), every executed array subscript
   lies in the array's static index range and every value stored to a
   global int scalar lies in its static invariant range — checked
   against the actual dynamic stream of the compiled program. *)

open Ilp_machine
open Ilp_ir
module R = Ilp_analysis.Range
module A = Ilp_lang.Absint

(* --- domain algebra ---------------------------------------------------- *)

let test_interval_algebra () =
  let open R.Interval in
  let a = of_bounds (Fin 0) (Fin 10) and b = of_bounds (Fin 5) (Fin 20) in
  Alcotest.(check bool) "join keeps both" true
    (mem 0 (join a b) && mem 20 (join a b));
  Alcotest.(check bool) "meet is the overlap" true
    (mem 7 (meet a b) && not (mem 3 (meet a b)));
  (* widening jumps an unstable bound to infinity; narrowing pulls it
     back once the sequence stabilises *)
  let w = widen a (of_bounds (Fin 0) (Fin 11)) in
  Alcotest.(check bool) "widen blows the growing bound" true (mem 1000000 w);
  let n = narrow w (of_bounds (Fin 0) (Fin 11)) in
  Alcotest.(check bool) "narrow recovers the bound" true (not (mem 12 n))

let test_congruence_algebra () =
  let open R.Congruence in
  let odd = make 1 2 in
  Alcotest.(check bool) "odd members" true (mem 3 odd && not (mem 4 odd));
  let j = join (of_const 2) (of_const 6) in
  Alcotest.(check bool) "join of 2 and 6 divides by 4" true
    (mem 10 j && not (mem 4 j))

let test_product_strides () =
  (* (x & 15) * 2 [+ 1]: the shapes redblack and the range-heavy fuzz
     corpus hammer *)
  let masked = R.V.band R.V.top (R.V.of_const 15) in
  let even = R.V.mul masked (R.V.of_const 2) in
  let odd = R.V.add even (R.V.of_const 1) in
  Alcotest.(check bool) "even stride in [0,30]" true
    (R.V.mem 30 even && not (R.V.mem 31 even) && not (R.V.mem 3 even));
  Alcotest.(check bool) "odd stride excludes evens" true
    (R.V.mem 31 odd && not (R.V.mem 30 odd));
  Alcotest.(check bool) "even and odd are separated" true
    (R.V.separated even odd);
  Alcotest.(check bool) "difference excludes zero" true
    (R.V.excludes_zero (R.V.sub odd even));
  (* a full-extent mask over a value already inside it is the identity:
     congruence survives *)
  Alcotest.(check bool) "identity mask keeps the product" true
    (R.V.equal odd (R.V.band odd (R.V.of_const 31)))

let test_separated_windows () =
  let upper = R.V.add (R.V.of_const 8) (R.V.band R.V.top (R.V.of_const 7)) in
  let lower = R.V.band R.V.top (R.V.of_const 7) in
  Alcotest.(check bool) "windows separated" true (R.V.separated upper lower);
  Alcotest.(check bool) "window difference nonzero" true
    (R.V.excludes_zero (R.V.sub upper lower))

let test_of_counted () =
  let v = R.V.of_counted ~start:0 ~step:2 ~trips:5 in
  Alcotest.(check bool) "hits the lattice points" true
    (R.V.mem 0 v && R.V.mem 8 v);
  Alcotest.(check bool) "skips odd and beyond" true
    (not (R.V.mem 3 v) && not (R.V.mem 10 v))

(* --- the subscript sanitizer ------------------------------------------- *)

let analyze_src ?unroll src =
  let tast = Ilp_lang.Semant.compile_source src in
  let tast =
    match unroll with
    | Some { Ilp_core.Ilp.mode; factor; bounds } ->
        Ilp_lang.Unroll.program ~bounds mode factor tast
    | None -> tast
  in
  A.analyze tast

let test_sanitize_proves_oob () =
  let t =
    analyze_src
      {|
arr a : int[8];
fun main() {
  var i : int;
  for (i = 0; i < 4; i = i + 1) { a[8 + (i & 3)] = i; }
  sink(a[0]);
}
|}
  in
  let _, oob, _ = A.counts t in
  Alcotest.(check bool) "the overrunning store is proved oob" true (oob >= 1);
  (* an overlapping range is only Unknown, never Proved_oob *)
  let t2 =
    analyze_src
      {|
arr a : int[8];
fun main() {
  var i : int;
  for (i = 0; i < 12; i = i + 1) { a[i] = i; }
  sink(a[0]);
}
|}
  in
  let _, oob2, unknown2 = A.counts t2 in
  Alcotest.(check int) "overlap is not proved oob" 0 oob2;
  Alcotest.(check bool) "overlap is flagged unknown" true (unknown2 >= 1)

let test_sanitize_proves_safe () =
  let t =
    analyze_src
      {|
arr a : int[32];
fun main() {
  var i : int;
  for (i = 0; i < 100; i = i + 1) { a[(i & 15) * 2 + 1] = a[(i & 15) * 2] + i; }
  sink(a[1]);
}
|}
  in
  let safe, oob, unknown = A.counts t in
  Alcotest.(check int) "no oob" 0 oob;
  Alcotest.(check int) "no unknown" 0 unknown;
  Alcotest.(check bool) "all sites proved safe" true (safe >= 3)

(* The CI gate: no benchmark — rolled or at its shipped unroll factor —
   has an access the analysis proves out of bounds; the masked-subscript
   workloads are fully proved safe. *)
let test_workloads_no_oob () =
  List.iter
    (fun (w : Ilp_workloads.Workload.t) ->
      let specs =
        None
        ::
        (if w.Ilp_workloads.Workload.default_unroll > 1 then
           [ Some
               { Ilp_core.Ilp.mode = Ilp_lang.Unroll.Naive;
                 factor = w.Ilp_workloads.Workload.default_unroll;
                 bounds = false;
               } ]
         else [])
      in
      List.iter
        (fun unroll ->
          let t = analyze_src ?unroll w.Ilp_workloads.Workload.source in
          let safe, oob, unknown = A.counts t in
          if oob <> 0 then
            Alcotest.failf "%s: %d access(es) proved out of bounds"
              w.Ilp_workloads.Workload.name oob;
          if
            List.mem w.Ilp_workloads.Workload.name
              [ "whet"; "smooth"; "redblack" ]
            && unknown <> 0
          then
            Alcotest.failf "%s: expected fully proved safe, got %d/%d unknown"
              w.Ilp_workloads.Workload.name unknown
              (safe + unknown))
        specs)
    (Ilp_workloads.Registry.all @ Ilp_workloads.Registry.extras)

(* --- range-sharpened memory disambiguation ----------------------------- *)

let prescheduled source =
  Ilp_core.Ilp.compile_unscheduled ~level:Ilp_core.Ilp.O4 Presets.base source

let func program name =
  match Program.find_function program name with
  | Some f -> f
  | None -> Alcotest.failf "compiled program lost %s" name

let redblack_source () =
  let w = Ilp_workloads.Registry.find "redblack" |> Option.get in
  w.Ilp_workloads.Workload.source

let test_redblack_range_pruning () =
  let program = prescheduled (redblack_source ()) in
  List.iter
    (fun fname ->
      let f = func program fname in
      let without =
        Ilp_analysis.Memdep.func_stats
          (Ilp_analysis.Memdep.analyze ~ranges:false f)
          f
      in
      let with_r =
        Ilp_analysis.Memdep.func_stats (Ilp_analysis.Memdep.analyze f) f
      in
      if with_r.Ilp_analysis.Memdep.pruned <= without.Ilp_analysis.Memdep.pruned
      then
        Alcotest.failf
          "%s: ranges should prune strictly more edges (%d vs %d)" fname
          with_r.Ilp_analysis.Memdep.pruned without.Ilp_analysis.Memdep.pruned)
    [ "relax"; "spin" ];
  (* the interleaved same-parity kernel must stay must-alias *)
  let f = func program "colour" in
  let s =
    Ilp_analysis.Memdep.func_stats (Ilp_analysis.Memdep.analyze f) f
  in
  Alcotest.(check bool) "colour keeps must-alias pairs" true
    (s.Ilp_analysis.Memdep.must_alias > 0);
  (* every workload of the rangedep experiment: the range tier only adds
     No_alias verdicts, so it prunes at least as many edges as the
     symbolic tiers, strictly more somewhere, and both schedules leave
     the same sink *)
  let rows = Ilp_core.Experiments.rangedep_study () in
  List.iter
    (fun (r : Ilp_core.Experiments.rangedep_row) ->
      if r.rd_pruned_rng < r.rd_pruned_sym then
        Alcotest.failf "%s: ranges prune fewer edges (%d < %d)" r.rd_bench
          r.rd_pruned_rng r.rd_pruned_sym;
      if not r.rd_sink_equal then
        Alcotest.failf "%s: the range-sharpened schedule changes the sink"
          r.rd_bench)
    rows;
  Alcotest.(check bool) "some workload prunes strictly more with ranges" true
    (List.exists
       (fun (r : Ilp_core.Experiments.rangedep_row) ->
         r.rd_pruned_rng > r.rd_pruned_sym)
       rows)

let test_ranges_checksum_identical () =
  (* schedules with and without range sharpening execute identically *)
  let source = redblack_source () in
  let sink ranges =
    let p =
      Ilp_core.Ilp.compile ~check:true ~memdep:true ~ranges
        ~level:Ilp_core.Ilp.O4 (Presets.superscalar 4) source
    in
    (Ilp_sim.Exec.run p).Ilp_sim.Exec.sink
  in
  Alcotest.check Helpers.value_testable "same checksum" (sink false)
    (sink true)

(* --- static per-loop ILP bounds ---------------------------------------- *)

module SB = Ilp_sched.Static_bound

(* Compile, capture and replay [source], and count its loops from the
   trace. *)
let measure_with_bounds config source =
  let program =
    Ilp_core.Ilp.compile ~memdep:true ~level:Ilp_core.Ilp.O4 config source
  in
  let sb = SB.analyze config program in
  let trace = Ilp_sim.Trace_buffer.capture program in
  let counts = Ilp_core.Experiments.loop_counts trace sb in
  let run = Ilp_sim.Metrics.measure_replay config trace program in
  let lb =
    SB.cycles_lb config sb counts ~dyn_instrs:run.Ilp_sim.Metrics.dyn_instrs
      ~class_counts:run.Ilp_sim.Metrics.class_counts
  in
  (sb, counts, run.Ilp_sim.Metrics.minor_cycles, lb)

let test_static_bound_recurrence () =
  let source =
    {|
var s : int = 0;
fun main() {
  var i : int;
  for (i = 0; i < 200; i = i + 1) { s = (s * 3 + i) & 65535; }
  sink(s);
}
|}
  in
  let config = Presets.superscalar 4 in
  let sb, counts, measured, lb = measure_with_bounds config source in
  let rec_loops =
    List.filter
      (fun ((b : SB.loop_bound), _) -> b.SB.sb_recurrence > 0)
      (List.combine sb.SB.bounds counts)
  in
  Alcotest.(check bool) "a recurrence-bound loop was found" true
    (rec_loops <> []);
  let b, c = List.hd rec_loops in
  (* s -> s*3 -> +i -> &mask: three unit-latency links back into s *)
  Alcotest.(check bool) "recurrence spans the whole chain" true
    (b.SB.sb_recurrence >= 3);
  Alcotest.(check bool) "the loop iterated" true (c.SB.traversals >= 199);
  Alcotest.(check bool) "measured respects the floor" true (measured >= lb);
  (* 200 iterations x >=3 cycles each must show up in the floor *)
  Alcotest.(check bool) "recurrence dominates the floor" true (lb >= 3 * 199)

let test_static_bound_workloads () =
  List.iter
    (fun config ->
      List.iter
        (fun name ->
          let w = Ilp_workloads.Registry.find name |> Option.get in
          let unroll, source = Ilp_core.Experiments.workload_source w in
          let program =
            Ilp_core.Ilp.compile ?unroll ~memdep:true ~level:Ilp_core.Ilp.O4
              config source
          in
          let sb = SB.analyze config program in
          let trace = Ilp_sim.Trace_buffer.capture program in
          let run = Ilp_sim.Metrics.measure_replay config trace program in
          let lb =
            SB.cycles_lb config sb
              (Ilp_core.Experiments.loop_counts trace sb)
              ~dyn_instrs:run.Ilp_sim.Metrics.dyn_instrs
              ~class_counts:run.Ilp_sim.Metrics.class_counts
          in
          if run.Ilp_sim.Metrics.minor_cycles < lb then
            Alcotest.failf "%s on %s: measured %d < static floor %d" name
              config.Config.name run.Ilp_sim.Metrics.minor_cycles lb)
        [ "whet"; "linpack"; "stanford" ])
    [ Presets.superscalar 8; Presets.cray1 () ]

(* The sweep counts each loop's traversals and entries from the visits
   of a trace captured before scheduling; the reference observer counts
   them on the scheduled binary's own run.  Every loop of every
   workload, on the presets of [fig4_static_bounds], must agree. *)
let test_static_bound_visit_counts () =
  let requests =
    Array.of_list
      (List.concat_map
         (fun config ->
           List.map
             (fun w -> Ilp_core.Experiments.request ~memdep:true w config)
             (Ilp_workloads.Registry.all @ Ilp_workloads.Registry.extras))
         (Ilp_core.Experiments.static_bounds_presets ()))
  in
  let cells =
    Ilp_core.Experiments.with_jobs 2 (fun () ->
        Ilp_core.Experiments.sweep
          (fun r trace binary _ ->
            let sb = SB.analyze r.Ilp_core.Experiments.rq_config binary in
            ( sb,
              Ilp_core.Experiments.loop_counts trace sb,
              Static_bound_ref.run sb binary ))
          requests)
  in
  let loops = ref 0 and traversals = ref 0 in
  Array.iteri
    (fun i (sb, visits, reference) ->
      let r = requests.(i) in
      List.iter2
        (fun (b : SB.loop_bound) ((v : SB.counts), (o : SB.counts)) ->
          incr loops;
          traversals := !traversals + o.SB.traversals;
          if v <> o then
            Alcotest.failf
              "%s on %s, loop %s.%s: visits give %d traversals and %d \
               entries, the observer %d and %d"
              r.Ilp_core.Experiments.rq_workload.Ilp_workloads.Workload.name
              r.Ilp_core.Experiments.rq_config.Config.name b.SB.sb_func
              b.SB.sb_header v.SB.traversals v.SB.entries o.SB.traversals
              o.SB.entries)
        sb.SB.bounds
        (List.combine visits reference))
    cells;
  Alcotest.(check bool) "loops were counted" true (!loops > 0 && !traversals > 0)

(* --- lint / sanitize exit codes (the CLI binary) ----------------------- *)

let cli = "../bin/ilp_cli.exe"

let oob_source =
  "arr a : int[8];\nfun main() {\n  a[9] = 1;\n  sink(a[0]);\n}\n"

let with_source_file source f =
  let path = Filename.temp_file "ilp_src" ".mm" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc source);
      f path)

(* One malformed file per front-end stage, with the position each error
   must be reported at. *)
let malformed_sources =
  [ ("lexer error", "fun main() {\n  var x : int = 1 $ 2;\n  sink(x);\n}\n",
     ":2:19: ");
    ("parser error", "fun main() {\n  var x : int = (1 + ;\n  sink(x);\n}\n",
     ":2:22: ");
    ("type error", "fun main() {\n  var x : int = 1;\n  sink(y);\n}\n",
     ":3:8: ") ]

(* Run [cmd] with standard error captured; the exit status and the
   first line written there. *)
let run_capturing_stderr cmd =
  let err = Filename.temp_file "ilp_err" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove err with Sys_error _ -> ())
    (fun () ->
      let code =
        Sys.command (Printf.sprintf "%s > /dev/null 2> %s" cmd err)
      in
      let first =
        In_channel.with_open_text err In_channel.input_line
        |> Option.value ~default:""
      in
      (code, first))

let test_cli_exit_codes () =
  if not (Sys.file_exists cli) then
    Alcotest.skip ()
  else begin
    let run fmt = Printf.ksprintf Sys.command fmt in
    Alcotest.(check int) "lint text, clean benchmark" 0
      (run "%s lint -b whet > /dev/null 2>&1" cli);
    Alcotest.(check int) "lint json, clean benchmark" 0
      (run "%s lint -b whet --json > /dev/null 2>&1" cli);
    Alcotest.(check int) "sanitize, clean benchmark" 0
      (run "%s sanitize -b redblack > /dev/null 2>&1" cli);
    (* more domains than the runtime allows is a usage error *)
    Alcotest.(check int) "experiment, --jobs beyond the domain limit" 2
      (run "%s experiment fig1_1 --jobs 100000 > /dev/null 2>&1" cli);
    (* fuzz checks its numbers as experiment does: a negative --jobs is
       rejected, not clamped, and a negative --count is blamed on
       --count *)
    Alcotest.(check int) "fuzz, negative --jobs" 2
      (run "%s fuzz --jobs=-3 --count 1 > /dev/null 2>&1" cli);
    let code, first =
      run_capturing_stderr (Printf.sprintf "%s fuzz --count=-3" cli)
    in
    Alcotest.(check int) "fuzz, negative --count: exit code" 2 code;
    Alcotest.(check string) "fuzz, negative --count: message"
      "ilp: --count must be >= 0, got -3" first;
    (* a machine Config.make rejects is a bad -m value, like an unknown
       name, not an uncaught exception *)
    List.iter
      (fun machine ->
        List.iter
          (fun command ->
            Alcotest.(check int)
              (Printf.sprintf "%s -m %s" command machine)
              124
              (run "%s %s -b whet -m %s > /dev/null 2>&1" cli command machine))
          [ "run"; "lint" ])
      [ "superscalar-0"; "superpipelined-0"; "nosuch" ];
    with_source_file oob_source (fun path ->
        Alcotest.(check int) "lint text, proved oob" 1
          (run "%s lint --file %s > /dev/null 2>&1" cli path);
        Alcotest.(check int) "lint json, proved oob" 1
          (run "%s lint --file %s --json > /dev/null 2>&1" cli path);
        Alcotest.(check int) "sanitize, proved oob" 1
          (run "%s sanitize --file %s > /dev/null 2>&1" cli path));
    (* malformed MiniMod ends in FILE:LINE:COL: message and exit 2 *)
    List.iter
      (fun (what, source, at) ->
        with_source_file source (fun path ->
            List.iter
              (fun command ->
                let code, first =
                  run_capturing_stderr
                    (Printf.sprintf "%s %s --file %s" cli command path)
                in
                let name = Printf.sprintf "%s, %s" command what in
                Alcotest.(check int) (name ^ ": exit code") 2 code;
                let prefix = path ^ at in
                Alcotest.(check string) (name ^ ": located message") prefix
                  (String.sub first 0
                     (min (String.length first) (String.length prefix))))
              [ "lint"; "sanitize" ]))
      malformed_sources
  end

(* --- dynamic soundness of the exported ranges -------------------------- *)

(* Compile [prog] and run it, checking every executed array subscript
   against the static per-array index range and every stored global
   scalar value against its static invariant — for both the plain O0
   binary and a careful bound-aware unrolled O4 binary (the analysis is
   of the rolled program either way: its ranges must cover every run). *)
let check_ranges_sound (prog : Ilp_lang.Gen_prog.prog) =
  let source = Ilp_lang.Gen_prog.render prog in
  let absint = A.analyze (Ilp_lang.Semant.compile_source source) in
  let check_binary ?unroll level =
    let program = Ilp_core.Ilp.compile ?unroll ~level Presets.base source in
    let layout, _ = Program.layout program in
    let arrays =
      List.filter_map
        (fun (name, words) ->
          match Hashtbl.find_opt layout name with
          | Some base -> Some (name, base, words, A.index_range absint name)
          | None -> None)
        prog.Ilp_lang.Gen_prog.arrays
    in
    let scalars =
      List.filter_map
        (fun (name, _) ->
          match Hashtbl.find_opt layout name with
          | Some addr -> Some (addr, name, A.scalar_range absint name)
          | None -> None)
        prog.Ilp_lang.Gen_prog.globals
    in
    let failed = ref None in
    let fail fmt = Printf.ksprintf (fun m -> failed := Some m) fmt in
    let observer _ addr =
      if addr >= 0 && !failed = None then
        List.iter
          (fun (name, base, words, range) ->
            if addr >= base && addr < base + words then
              if not (R.V.mem (addr - base) range) then
                fail "%s[%d] executed outside static index range %s" name
                  (addr - base) (R.V.to_string range))
          arrays
    in
    let on_store _ addr value =
      if !failed = None then
        List.iter
          (fun (saddr, name, range) ->
            if addr = saddr then
              match value with
              | Ilp_sim.Value.Int n ->
                  if not (R.V.mem n range) then
                    fail "%s := %d outside static range %s" name n
                      (R.V.to_string range)
              | Ilp_sim.Value.Float _ -> ())
          scalars
    in
    ignore (Ilp_sim.Exec.run ~observer ~on_store program);
    match !failed with Some m -> failwith m | None -> ()
  in
  (* no generated access is ever proved out of bounds: subscripts are
     in range by construction and the analysis is sound *)
  let _, oob, _ = A.counts absint in
  if oob > 0 then failwith "generated program wrongly proved out of bounds";
  check_binary Ilp_core.Ilp.O0;
  check_binary
    ~unroll:
      { Ilp_core.Ilp.mode = Ilp_lang.Unroll.Careful; factor = 4; bounds = true }
    Ilp_core.Ilp.O4;
  true

let prop_ranges_sound name gen =
  QCheck2.Test.make ~count:25
    ~name:(Printf.sprintf "%s programs: observed values in static ranges" name)
    ~print:Ilp_lang.Gen_prog.render gen check_ranges_sound

let tests =
  [ Alcotest.test_case "interval algebra" `Quick test_interval_algebra;
    Alcotest.test_case "congruence algebra" `Quick test_congruence_algebra;
    Alcotest.test_case "product: strides and masks" `Quick
      test_product_strides;
    Alcotest.test_case "product: separated windows" `Quick
      test_separated_windows;
    Alcotest.test_case "product: counted loops" `Quick test_of_counted;
    Alcotest.test_case "sanitize: proves out-of-bounds" `Quick
      test_sanitize_proves_oob;
    Alcotest.test_case "sanitize: proves strided stores safe" `Quick
      test_sanitize_proves_safe;
    Alcotest.test_case "sanitize: no workload proved oob" `Slow
      test_workloads_no_oob;
    Alcotest.test_case "memdep: ranges prune redblack" `Quick
      test_redblack_range_pruning;
    Alcotest.test_case "memdep: range schedules are sound" `Quick
      test_ranges_checksum_identical;
    Alcotest.test_case "static bound: counted-loop recurrence" `Quick
      test_static_bound_recurrence;
    Alcotest.test_case "static bound: measured >= floor on workloads" `Slow
      test_static_bound_workloads;
    Alcotest.test_case "static bound: visit counts = observer counts" `Slow
      test_static_bound_visit_counts;
    Alcotest.test_case "cli: lint and sanitize exit codes" `Slow
      test_cli_exit_codes;
    QCheck_alcotest.to_alcotest (prop_ranges_sound "random" Gen_minimod.prog);
    QCheck_alcotest.to_alcotest
      (prop_ranges_sound "alias-heavy" Gen_minimod.alias_heavy_prog);
    QCheck_alcotest.to_alcotest
      (prop_ranges_sound "unroll-heavy" Gen_minimod.unroll_heavy_prog);
    QCheck_alcotest.to_alcotest
      (prop_ranges_sound "range-heavy" Gen_minimod.range_heavy_prog) ]
