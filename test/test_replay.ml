(* Trace-buffer tests: replayed timing must reproduce the reference
   measurement — [Exec] driving an observer, its stream stepped through
   the cycle-by-cycle model [Timing_ref] — bit for bit: cycles, stalls,
   speedup, issue histogram and cache behaviour, for every workload on
   every machine preset.  Replay must refuse (rather than misreport) a
   binary that is not a schedule-sibling of the captured program. *)

open Ilp_machine
module Timing = Ilp_sim.Timing
module Trace_buffer = Ilp_sim.Trace_buffer
module Metrics = Ilp_sim.Metrics
module W = Ilp_workloads.Workload

let level = Ilp_core.Ilp.O4

(* every preset family of the paper's evaluation *)
let presets =
  [ Presets.base;
    Presets.multititan;
    Presets.cray1 ();
    Presets.cray1_unit_latencies ();
    Presets.underpipelined;
    Presets.superscalar 2;
    Presets.superscalar 4;
    Presets.superscalar 8;
    Presets.superpipelined 2;
    Presets.superpipelined 4;
    Presets.superpipelined 8;
    Presets.superpipelined_superscalar ~n:2 ~m:2;
    Presets.superscalar_with_class_conflicts 4 ]

let cache_geometry = { Timing_ref.lines = 64; line_words = 4; penalty = 12 }

let fresh_cache () = Helpers.fresh_cache cache_geometry

(* Replay [binary] over [trace] and compare every field of the run with
   the reference measurement of the same binary. *)
let check_replay ?(cached = false) name config trace binary =
  let cache = if cached then Some (fresh_cache ()) else None in
  let replayed = Metrics.measure_replay ?cache config trace binary in
  Helpers.check_run name
    (Helpers.reference_measure
       ?cache:(if cached then Some cache_geometry else None)
       config binary)
    replayed;
  Alcotest.(check int)
    (name ^ ": histogram sums to minor cycles")
    replayed.Metrics.minor_cycles
    (Array.fold_left ( + ) 0 replayed.Metrics.issue_histogram)

(* One capture per workload serves every preset. *)
let workload_tests =
  List.map
    (fun w ->
      Alcotest.test_case ("replay = direct: " ^ w.W.name) `Slow (fun () ->
          let source = w.W.source in
          let pre =
            Ilp_core.Ilp.compile_unscheduled ~level Presets.base source
          in
          let trace = Trace_buffer.capture pre in
          List.iter
            (fun config ->
              let binary = Ilp_core.Ilp.schedule ~level config pre in
              check_replay (w.W.name ^ "/" ^ config.Config.name) config trace
                binary)
            presets))
    Ilp_workloads.Registry.all

let test_replay_with_cache () =
  let w =
    match Ilp_workloads.Registry.find "whet" with
    | Some w -> w
    | None -> Alcotest.fail "no whet workload"
  in
  let pre = Ilp_core.Ilp.compile_unscheduled ~level Presets.base w.W.source in
  let trace = Trace_buffer.capture pre in
  List.iter
    (fun config ->
      let binary = Ilp_core.Ilp.schedule ~level config pre in
      check_replay ~cached:true ("whet+cache/" ^ config.Config.name) config
        trace binary)
    [ Presets.base; Presets.superscalar 4; Presets.multititan ]

(* Every field of [measure_replay]'s run, the machine name, class mix
   and sink included, against the reference measurement. *)
let test_measure_replay_equals_measure () =
  let w =
    match Ilp_workloads.Registry.find "yacc" with
    | Some w -> w
    | None -> Alcotest.fail "no yacc workload"
  in
  let config = Presets.superscalar 4 in
  let pre = Ilp_core.Ilp.compile_unscheduled ~level config w.W.source in
  let trace = Trace_buffer.capture pre in
  let binary = Ilp_core.Ilp.schedule ~level config pre in
  Helpers.check_run "yacc"
    (Helpers.reference_measure config binary)
    (Metrics.measure_replay config trace binary)

let test_divergence_on_foreign_binary () =
  let find name =
    match Ilp_workloads.Registry.find name with
    | Some w -> w
    | None -> Alcotest.fail ("no workload " ^ name)
  in
  let config = Presets.base in
  let whet = find "whet" and yacc = find "yacc" in
  let pre_whet =
    Ilp_core.Ilp.compile_unscheduled ~level config whet.W.source
  in
  let trace = Trace_buffer.capture pre_whet in
  let foreign =
    Ilp_core.Ilp.compile ~level config yacc.W.source
  in
  Alcotest.(check bool) "foreign binary raises Divergence" true
    (match
       Trace_buffer.replay trace foreign (Timing.create config)
     with
    | exception Trace_buffer.Divergence _ -> true
    | () -> false)

let test_footprint_reported () =
  let w =
    match Ilp_workloads.Registry.find "whet" with
    | Some w -> w
    | None -> Alcotest.fail "no whet workload"
  in
  let pre = Ilp_core.Ilp.compile_unscheduled ~level Presets.base w.W.source in
  let trace = Trace_buffer.capture pre in
  Alcotest.(check bool) "non-trivial footprint" true
    (Trace_buffer.byte_size trace > 0);
  Alcotest.(check bool) "bounded by four words per dynamic instruction" true
    (Trace_buffer.byte_size trace < Trace_buffer.dyn_instrs trace * 4 * 8)

(* The replay hot path allocates nothing per dynamic instruction: the
   whole [measure_replay] call, binding included, stays
   under one minor word per replayed instruction.  A per-instruction
   closure, boxed result or captured [ref] in the issue step costs
   several words each and fails this. *)
let test_replay_allocation () =
  let w =
    match Ilp_workloads.Registry.find "linpack" with
    | Some w -> w
    | None -> Alcotest.fail "no linpack workload"
  in
  let pre = Ilp_core.Ilp.compile_unscheduled ~level Presets.base w.W.source in
  let trace = Trace_buffer.capture pre in
  List.iter
    (fun (config, cache) ->
      let binary = Ilp_core.Ilp.schedule ~level config pre in
      let before = Gc.minor_words () in
      let run = Metrics.measure_replay ?cache config trace binary in
      let per_instr =
        (Gc.minor_words () -. before) /. float_of_int run.Metrics.dyn_instrs
      in
      if per_instr >= 1.0 then
        Alcotest.failf "%s on %s: %.3f minor words per replayed instruction"
          w.W.name config.Config.name per_instr)
    [ (Presets.superpipelined 8, None);
      (Presets.superscalar_with_class_conflicts 4, Some (fresh_cache ())) ]

(* The same guard on the bound flat loop, split the way a sweep pays it:
   binding allocates per static instruction only (the decode arrays,
   the register lists and the label table: about 56 words each on this
   program, bounded here by 128), and replaying the bound binary
   allocates under one word per dynamic instruction in total. *)
let test_bound_replay_allocation () =
  let w =
    match Ilp_workloads.Registry.find "linpack" with
    | Some w -> w
    | None -> Alcotest.fail "no linpack workload"
  in
  let pre = Ilp_core.Ilp.compile_unscheduled ~level Presets.base w.W.source in
  let trace = Trace_buffer.capture pre in
  List.iter
    (fun (config, cache) ->
      let binary = Ilp_core.Ilp.schedule ~level config pre in
      let static = Ilp_ir.Program.instr_count binary in
      let before = Gc.minor_words () in
      let pr = Trace_buffer.bind trace binary in
      let bound = Gc.minor_words () in
      let run = Metrics.measure_prepared ?cache config pr in
      let after = Gc.minor_words () in
      let per_static = (bound -. before) /. float_of_int static in
      let per_dyn = (after -. bound) /. float_of_int run.Metrics.dyn_instrs in
      if per_static >= 128.0 then
        Alcotest.failf "%s on %s: binding took %.1f minor words per static \
                        instruction"
          w.W.name config.Config.name per_static;
      if per_dyn >= 1.0 then
        Alcotest.failf "%s on %s: %.3f minor words per replayed instruction"
          w.W.name config.Config.name per_dyn)
    [ (Presets.superpipelined 8, None);
      (Presets.superscalar_with_class_conflicts 4, Some (fresh_cache ())) ]

(* Capture runs the executor's own loop with a recorder: it allocates
   the values the program computes and the recorder's chunks, well
   under three minor words per dynamic instruction on every paper
   workload.  A per-step record or list cell costs more and fails
   this. *)
let test_capture_allocation () =
  List.iter
    (fun (w : W.t) ->
      let unroll, source = Ilp_core.Experiments.workload_source w in
      let pre =
        Ilp_core.Ilp.compile_unscheduled ?unroll ~level Presets.base source
      in
      let before = Gc.minor_words () in
      let trace = Trace_buffer.capture pre in
      let per_instr =
        (Gc.minor_words () -. before)
        /. float_of_int (Trace_buffer.dyn_instrs trace)
      in
      if per_instr >= 3.0 then
        Alcotest.failf "%s: capture took %.2f minor words per instruction"
          w.W.name per_instr)
    Ilp_workloads.Registry.all

(* Without a cache, replay steps each distinct (machine state, issue
   segment) pair once and takes every repeat from its memo.  On the
   Figure 4-1 workloads at the widest machine of each family the pairs
   are few: 0.17% of the segment visits in all, 1.4% in the worst cell
   (ccom on superscalar-8).  A change to the state or the lookup that
   defeats the memo steps far more of them and fails here, not only in
   the benchmark. *)
let test_memo_engaged () =
  let stepped = ref 0 and visits = ref 0 in
  List.iter
    (fun (w : W.t) ->
      let unroll, source = Ilp_core.Experiments.workload_source w in
      List.iter
        (fun config ->
          let pre =
            Ilp_core.Ilp.compile_unscheduled ?unroll ~level config source
          in
          let trace = Trace_buffer.capture pre in
          let timing = Timing.create config in
          Trace_buffer.replay trace (Ilp_core.Ilp.schedule ~level config pre)
            timing;
          let n = (Trace_buffer.stats trace).Trace_buffer.visits in
          let s = timing.Timing.stepped in
          if 20 * s > n then
            Alcotest.failf "%s on %s: replay stepped %d of %d segment visits"
              w.W.name config.Config.name s n;
          stepped := !stepped + s;
          visits := !visits + n)
        [ Presets.superscalar 8; Presets.superpipelined 8 ])
    Ilp_workloads.Registry.all;
  if 100 * !stepped > !visits then
    Alcotest.failf "replay stepped %d of %d segment visits" !stepped !visits

(* The recorded trace, replayed, times a random program exactly as the
   reference models do when the reference interpreter drives them. *)
let prop_replay_matches_reference =
  QCheck2.Test.make ~count:30
    ~name:"random programs: recorded trace replay = reference-driven timing"
    ~print:QCheck2.Print.(pair (fun s -> s) int)
    QCheck2.Gen.(
      pair Gen_minimod.any_mode_program (int_bound (List.length presets - 1)))
    (fun (source, k) ->
      let config = List.nth presets k in
      let pre = Ilp_core.Ilp.compile_unscheduled ~level config source in
      let binary = Ilp_core.Ilp.schedule ~level config pre in
      let replayed =
        Metrics.measure_replay config (Trace_buffer.capture pre) binary
      in
      let reference =
        Helpers.reference_measure
          ~execute:(fun observer p ->
            let o = Exec_ref.run ~observer p in
            (o.Exec_ref.dyn_instrs, o.Exec_ref.class_counts, o.Exec_ref.sink))
          config binary
      in
      match Helpers.run_difference reference replayed with
      | None -> true
      | Some d -> QCheck2.Test.fail_reportf "%s" d)

(* ------------------------------------------------------------------ *)
(* binding refuses a binary whose instructions left their segments     *)

open Ilp_ir

(* The trace of one workload with calls, and its captured program. *)
let bind_fixture =
  lazy
    (let w =
       match Ilp_workloads.Registry.find "stanford" with
       | Some w -> w
       | None -> Alcotest.fail "no stanford workload"
     in
     let pre =
       Ilp_core.Ilp.compile_unscheduled ~level Presets.base w.W.source
     in
     (pre, Trace_buffer.capture pre))

let is_control (i : Instr.t) = Iclass.is_control (Instr.iclass i)

(* [p] with [edit] applied to the first function whose block list it
   rewrites; fails the test when no function qualifies. *)
let edit_blocks (p : Program.t) edit =
  let edited = ref false in
  let p' =
    Program.map_functions
      (fun (f : Func.t) ->
        if !edited then f
        else
          match edit f.Func.blocks with
          | Some blocks ->
              edited := true;
              { f with Func.blocks }
          | None -> f)
      p
  in
  if not !edited then Alcotest.fail "no block of the workload fits the edit";
  p'

(* rewrite the first block whose instruction list [edit] accepts *)
let edit_first_block edit =
  let rec go = function
    | [] -> None
    | (b : Block.t) :: rest -> (
        match edit b.Block.instrs with
        | Some instrs -> Some (Block.make b.Block.label instrs :: rest)
        | None -> Option.map (fun rest -> b :: rest) (go rest))
  in
  go

(* swap the first adjacent pair [x; y] where [pick x y] holds *)
let swap_first pick =
  let rec go = function
    | x :: y :: rest when pick x y -> Some (y :: x :: rest)
    | x :: rest -> Option.map (fun rest -> x :: rest) (go rest)
    | [] -> None
  in
  go

let expect_divergence what binary =
  let _, trace = Lazy.force bind_fixture in
  match Trace_buffer.bind trace binary with
  | exception Trace_buffer.Divergence _ -> ()
  | _ -> Alcotest.failf "%s: binding accepted the binary" what

let test_bind_accepts_siblings () =
  let pre, trace = Lazy.force bind_fixture in
  List.iter
    (fun config ->
      ignore
        (Trace_buffer.bind trace (Ilp_core.Ilp.schedule ~level config pre)))
    [ Presets.base; Presets.superscalar 8; Presets.superpipelined 8 ];
  ignore (Trace_buffer.bind trace pre)

let test_bind_rejects_move_across_call () =
  let pre, _ = Lazy.force bind_fixture in
  expect_divergence "instruction moved past a call"
    (edit_blocks pre
       (edit_first_block
          (swap_first (fun x y -> (not (is_control x)) && Instr.is_call y))))

let test_bind_rejects_move_to_another_block () =
  let pre, _ = Lazy.force bind_fixture in
  let rec move = function
    | (b1 : Block.t) :: (b2 : Block.t) :: rest -> (
        match b1.Block.instrs with
        | x :: (_ :: _ as tail)
          when (not (is_control x)) && b2.Block.instrs <> [] ->
            Some
              (Block.make b1.Block.label tail
              :: Block.make b2.Block.label (x :: b2.Block.instrs)
              :: rest)
        | _ -> Option.map (fun rest -> b1 :: rest) (move (b2 :: rest)))
    | _ -> None
  in
  expect_divergence "instruction moved to the next block" (edit_blocks pre move)

let test_bind_rejects_moved_control () =
  let pre, _ = Lazy.force bind_fixture in
  expect_divergence "branch moved above its predecessor"
    (edit_blocks pre
       (edit_first_block
          (swap_first (fun x y ->
               (not (is_control x)) && Opcode.is_branch y.Instr.op))));
  expect_divergence "return moved above its predecessor"
    (edit_blocks pre
       (edit_first_block
          (swap_first (fun x y ->
               (not (is_control x)) && y.Instr.op = Opcode.Ret))))

let tests =
  [ Alcotest.test_case "replay = direct with cache" `Slow
      test_replay_with_cache;
    Alcotest.test_case "measure_replay = measure" `Slow
      test_measure_replay_equals_measure;
    Alcotest.test_case "foreign binary diverges" `Quick
      test_divergence_on_foreign_binary;
    Alcotest.test_case "trace footprint" `Quick test_footprint_reported;
    Alcotest.test_case "replay allocates < 1 word per instruction" `Quick
      test_replay_allocation;
    Alcotest.test_case "bound replay allocates per static instruction only"
      `Quick test_bound_replay_allocation;
    Alcotest.test_case "capture allocates < 3 words per instruction" `Quick
      test_capture_allocation;
    Alcotest.test_case "memoized replay steps few segment visits" `Quick
      test_memo_engaged;
    QCheck_alcotest.to_alcotest prop_replay_matches_reference;
    Alcotest.test_case "bind accepts schedule siblings" `Quick
      test_bind_accepts_siblings;
    Alcotest.test_case "bind rejects a move across a call" `Quick
      test_bind_rejects_move_across_call;
    Alcotest.test_case "bind rejects a move to another block" `Quick
      test_bind_rejects_move_to_another_block;
    Alcotest.test_case "bind rejects a moved control instruction" `Quick
      test_bind_rejects_moved_control ]
  @ workload_tests
