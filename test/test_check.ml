(* The checking layers: named pass pipeline, schedule legality checker,
   differential oracle, generator shrinking, and the fuzz driver.

   The injected-defect tests are the important ones: they prove the
   oracle and the legality checker actually catch miscompiles, by
   manufacturing the two classic ones — an optimizer that drops a live
   store, and a scheduler that swaps RAW-dependent instructions — and
   watching them get flagged. *)

open Ilp_ir
open Ilp_machine
module Ilp = Ilp_core.Ilp
module Diffcheck = Ilp_core.Diffcheck
module Check_sched = Ilp_sched.Check_sched
module Gen_prog = Ilp_lang.Gen_prog

let r = Reg.phys

let src =
  {|
var g : int = 3;
arr a : int[16];
fun main() {
  var i : int = 0;
  var s : int = 0;
  for (i = 0; i < 12; i = i + 1) {
    a[i & 15] = i * g;
    s = s + a[(i + 2) & 15];
  }
  g = s % 97;
  sink(s + g);
}
|}

(* --- the named pass pipeline ------------------------------------------- *)

let pipeline_names level =
  List.map
    (fun p -> p.Ilp.pass_name)
    (Ilp.pipeline ~level Presets.base)

let test_pipeline_names () =
  Alcotest.(check (list string)) "O0 allocates temps and nothing else"
    [ "temp_alloc" ] (pipeline_names Ilp.O0);
  Alcotest.(check (list string)) "O2 adds the local cleanup group"
    [ "const_fold"; "local_cse"; "dce"; "temp_alloc" ]
    (pipeline_names Ilp.O2);
  Alcotest.(check (list string)) "O4 is the full historical sequence"
    [ "const_fold"; "local_cse"; "dce";
      "licm"; "global_cse";
      "post_global.const_fold"; "post_global.local_cse"; "post_global.dce";
      "global_alloc";
      "post_alloc.const_fold"; "post_alloc.local_cse"; "post_alloc.dce";
      "coalesce"; "temp_alloc" ]
    (pipeline_names Ilp.O4)

(* Folding the pipeline by hand must reproduce compile_unscheduled.
   Fresh vreg/label counters are global, so two compiles of the same
   source are only isomorphic, not textually equal — compare shape
   (instruction count) and exact dynamic behaviour instead. *)
let test_pipeline_reproduces_compile () =
  let config = Presets.base in
  let by_fold =
    List.fold_left
      (fun p pass -> pass.Ilp.pass_run p)
      (Ilp_lang.Codegen.gen_program (Ilp.frontend src))
      (Ilp.pipeline ~level:Ilp.O4 config)
  in
  let direct = Ilp.compile_unscheduled ~level:Ilp.O4 config src in
  Alcotest.(check int) "same instruction count"
    (Program.instr_count direct) (Program.instr_count by_fold);
  Diffcheck.compare_exact ~stage:"pipeline fold"
    ~reference:(Diffcheck.observe direct)
    (Diffcheck.observe by_fold)

let test_on_pass_order () =
  let seen = ref [] in
  let on_pass name _stage _p = seen := name :: !seen in
  ignore (Ilp.compile ~check:true ~on_pass ~level:Ilp.O4 Presets.base src);
  let seen = List.rev !seen in
  Alcotest.(check (list string)) "codegen first, scheduling last"
    (("codegen" :: pipeline_names Ilp.O4) @ [ "list_sched" ])
    seen

(* --- schedule legality ------------------------------------------------- *)

let block_of instrs = Block.make (Label.of_string "b") instrs

let test_legality_catches_raw_swap () =
  let producer = Builder.li (r 1) 1 in
  let consumer = Builder.add (r 2) (r 1) (r 1) in
  let original = block_of [ producer; consumer ] in
  let swapped = block_of [ consumer; producer ] in
  match
    Check_sched.check_block Presets.base ~original ~scheduled:swapped
  with
  | () -> Alcotest.fail "RAW-violating swap not flagged"
  | exception Check_sched.Illegal _ -> ()

let test_legality_catches_drop_and_duplicate () =
  let a = Builder.li (r 1) 1 in
  let b = Builder.li (r 2) 2 in
  let original = block_of [ a; b ] in
  (match
     Check_sched.check_block Presets.base ~original
       ~scheduled:(block_of [ a ])
   with
  | () -> Alcotest.fail "dropped instruction not flagged"
  | exception Check_sched.Illegal _ -> ());
  match
    Check_sched.check_block Presets.base ~original
      ~scheduled:(block_of [ a; a ])
  with
  | () -> Alcotest.fail "duplicated instruction not flagged"
  | exception Check_sched.Illegal _ -> ()

let test_legality_accepts_independent_swap () =
  let a = Builder.li (r 1) 1 in
  let b = Builder.li (r 2) 2 in
  Check_sched.check_block Presets.base
    ~original:(block_of [ a; b ])
    ~scheduled:(block_of [ b; a ])

(* The real scheduler always satisfies its own checker. *)
let test_legality_accepts_real_scheduler () =
  List.iter
    (fun config ->
      let pre = Ilp.compile_unscheduled ~level:Ilp.O4 config src in
      let scheduled = Ilp_sched.List_sched.run config pre in
      Check_sched.check_program config ~original:pre ~scheduled)
    [ Presets.base; Presets.superscalar 4;
      Presets.superscalar_with_class_conflicts 4; Presets.cray1 () ]

(* --- schedule legality with memory disambiguation ----------------------- *)

(* Unannotated accesses, so only the dependence analysis can take a
   memory edge away: the conservative DDG serializes every store with
   every other access. *)
let func_of instrs =
  Func.make ~name:"f" ~frame_size:0 ~n_params:0 [ block_of instrs ]

let check_memdep ~original ~scheduled =
  Check_sched.check_func ~memdep:true Presets.base
    ~original:(func_of original) ~scheduled:(func_of scheduled)

let rejected what f =
  match f () with
  | () -> Alcotest.failf "%s not flagged" what
  | exception Check_sched.Illegal _ -> ()

(* A load hoisted above a store through another base register: the
   analysis cannot prove the two apart, so the edge stays. *)
let test_memdep_rejects_may_alias () =
  let st = Builder.st ~value:(r 1) ~base:(r 2) ~offset:0 () in
  let ld = Builder.ld (r 3) ~base:(r 4) ~offset:0 in
  rejected "load hoisted above a may-alias store" (fun () ->
      check_memdep ~original:[ st; ld ] ~scheduled:[ ld; st ]);
  rejected "the same move under the block's own classifier" (fun () ->
      let md = Ilp_analysis.Memdep.analyze (func_of [ st; ld ]) in
      Check_sched.check_block
        ~classify:(Ilp_analysis.Memdep.classifier md (Label.of_string "b"))
        Presets.base ~original:(block_of [ st; ld ])
        ~scheduled:(block_of [ ld; st ]))

(* The same move across a store to another constant offset from the same
   base register is proven apart, so it is legal with the analysis and
   only with it. *)
let test_memdep_accepts_no_alias () =
  let st = Builder.st ~value:(r 1) ~base:(r 2) ~offset:0 () in
  let ld = Builder.ld (r 3) ~base:(r 2) ~offset:1 in
  check_memdep ~original:[ st; ld ] ~scheduled:[ ld; st ];
  rejected "the move without the analysis" (fun () ->
      Check_sched.check_func Presets.base ~original:(func_of [ st; ld ])
        ~scheduled:(func_of [ ld; st ]))

(* Reordering around the memory accesses without reordering them needs
   no verdict. *)
let test_memdep_no_memory_reorder () =
  let st = Builder.st ~value:(r 1) ~base:(r 2) ~offset:0 () in
  let k = Builder.li (r 5) 7 in
  let ld = Builder.ld (r 3) ~base:(r 4) ~offset:0 in
  check_memdep ~original:[ st; k; ld ] ~scheduled:[ k; st; ld ]

(* --- differential oracle ----------------------------------------------- *)

let test_diffcheck_clean () =
  List.iter
    (fun level ->
      ignore
        (Diffcheck.check_compile ~granularity:`Every_pass ~level Presets.base
           src))
    Ilp.all_levels

let test_diffcheck_clean_unroll () =
  ignore
    (Diffcheck.check_compile
       ~unroll:{ Ilp.mode = Ilp_lang.Unroll.Careful; factor = 4; bounds = false }
       ~level:Ilp.O4 Presets.base src)

(* A broken DCE that drops a live (here: the sink) store must be caught
   by the oracle.  The "pass" is manufactured by deleting the last
   store of the compiled program. *)
let drop_last_store (p : Program.t) =
  let stores =
    List.concat_map
      (fun (f : Func.t) ->
        List.concat_map
          (fun (b : Block.t) -> List.filter Instr.is_store b.Block.instrs)
          f.Func.blocks)
      p.Program.functions
  in
  let doomed = (List.nth stores (List.length stores - 1)).Instr.id in
  Program.map_functions
    (Func.map_blocks (fun b ->
         Block.make b.Block.label
           (List.filter (fun i -> i.Instr.id <> doomed) b.Block.instrs)))
    p

let test_oracle_catches_dropped_store () =
  let p = Ilp.compile_unscheduled ~level:Ilp.O4 Presets.base src in
  let broken = drop_last_store p in
  let reference = Diffcheck.observe p in
  match
    Diffcheck.compare_semantics ~stage:"broken_dce" ~reference
      (Diffcheck.observe broken)
  with
  | () -> Alcotest.fail "dropped live store not flagged"
  | exception Diffcheck.Mismatch { stage; _ } ->
      Alcotest.(check string) "offender named" "broken_dce" stage

(* The exact (schedule) comparison must also notice a dropped store even
   when it misses the sink cell. *)
let test_exact_catches_any_dropped_store () =
  let p = Ilp.compile_unscheduled ~level:Ilp.O2 Presets.base src in
  let broken = drop_last_store p in
  match
    Diffcheck.compare_exact ~stage:"bad_sched" ~reference:(Diffcheck.observe p)
      (Diffcheck.observe broken)
  with
  | () -> Alcotest.fail "behaviour change not flagged"
  | exception Diffcheck.Mismatch _ -> ()

(* --- direct execution of virtual snapshots ------------------------------ *)

(* The oracle runs every pre-allocation snapshot as the pass left it.
   Temp-allocating the snapshot first must not change what its run
   observes; the property also keeps Temp_alloc exercised on
   intermediate shapes (before CSE, before coalescing, unrolled) that
   the pipeline itself never allocates. *)
let virtual_snapshots ?unroll config source =
  let snapshots = ref [] in
  let on_pass name stage p =
    match stage with
    | `Virtual -> snapshots := (name, p) :: !snapshots
    | `Allocated -> ()
  in
  ignore
    (Ilp.compile_unscheduled ?unroll ~on_pass ~level:Ilp.O4 config source);
  List.rev !snapshots

let direct_agrees_with_allocated config source =
  List.iter
    (fun unroll ->
      List.iter
        (fun (name, p) ->
          Diffcheck.compare_semantics ~stage:name
            ~reference:
              (Diffcheck.observe (Ilp_regalloc.Temp_alloc.run config p))
            (Diffcheck.observe p))
        (virtual_snapshots ?unroll config source))
    [ None;
      Some { Ilp.mode = Ilp_lang.Unroll.Careful; factor = 3; bounds = false } ]

let prop_direct_matches_allocated mode gen =
  QCheck2.Test.make ~count:25
    ~name:(mode ^ " programs: direct snapshot runs = temp-allocated runs")
    ~print:Gen_prog.render gen
    (fun prog ->
      let source = Gen_prog.render prog in
      List.iter
        (fun config -> direct_agrees_with_allocated config source)
        [ Presets.base; Config.make "ss8-6temps" ~issue_width:8 ~temp_regs:6 ];
      true)

(* --- generator shrinking ------------------------------------------------ *)

let rec stmt_has_arr_write = function
  | Gen_prog.Arr_write _ -> true
  | Gen_prog.Assign _ | Gen_prog.Self_assign _ -> false
  | Gen_prog.If (_, a, b) ->
      List.exists stmt_has_arr_write a || List.exists stmt_has_arr_write b
  | Gen_prog.For (_, _, body) -> List.exists stmt_has_arr_write body

let has_arr_write (p : Gen_prog.prog) =
  List.exists stmt_has_arr_write p.Gen_prog.stmts

let test_shrink_minimises () =
  (* find a seed whose program contains an array write, then shrink with
     "contains an array write" as the failure predicate *)
  let rec find k =
    let st = Random.State.make [| 33; k |] in
    let p = Gen_prog.generate st in
    if has_arr_write p then p else find (k + 1)
  in
  let p = find 0 in
  let shrunk = Gen_prog.shrink ~still_fails:has_arr_write p in
  Alcotest.(check bool) "still fails" true (has_arr_write shrunk);
  (* local minimum under the shrinker's own acceptance rule: no
     strictly smaller candidate still fails *)
  Alcotest.(check bool) "local minimum" true
    (Seq.for_all
       (fun c ->
         Gen_prog.size c >= Gen_prog.size shrunk || not (has_arr_write c))
       (Gen_prog.shrink_step shrunk));
  Alcotest.(check int) "one statement left" 1
    (List.length shrunk.Gen_prog.stmts);
  (* the shrunk program is still a valid MiniMod program *)
  ignore (Ilp.frontend (Gen_prog.render shrunk))

let test_generated_programs_compile () =
  for k = 0 to 9 do
    let st = Random.State.make [| 99; k |] in
    let source = Gen_prog.render (Gen_prog.generate st) in
    ignore (Ilp.compile ~level:Ilp.O4 Presets.base source)
  done

(* --- fuzz driver -------------------------------------------------------- *)

let test_fuzz_smoke () = Ilp_core.Fuzz.run ~count:4 ~seed:7 ()

let test_fuzz_parallel_smoke () =
  Ilp_core.Fuzz.run ~jobs:2 ~count:4 ~seed:7 ()

(* --- checked sweeps ------------------------------------------------------ *)

(* A checked sweep returns the same numbers as an unchecked one. *)
let test_checked_sweep_identical () =
  let w =
    match Ilp_workloads.Registry.find "whet" with
    | Some w -> w
    | None -> Alcotest.fail "no whet"
  in
  let requests =
    Array.map
      (Ilp_core.Experiments.request w)
      [| Presets.base; Presets.superscalar 4 |]
  in
  let plain = Ilp_core.Experiments.run_sweep requests in
  let checked =
    Ilp_core.Experiments.with_checks true (fun () ->
        Ilp_core.Experiments.run_sweep requests)
  in
  Array.iter2
    (fun (a : Ilp_sim.Metrics.run) (b : Ilp_sim.Metrics.run) ->
      Helpers.check_float "same cycles" a.Ilp_sim.Metrics.base_cycles
        b.Ilp_sim.Metrics.base_cycles;
      Alcotest.check Helpers.value_testable "same sink" a.Ilp_sim.Metrics.sink
        b.Ilp_sim.Metrics.sink)
    plain checked

let tests =
  [ Alcotest.test_case "pipeline names" `Quick test_pipeline_names;
    Alcotest.test_case "pipeline reproduces compile" `Quick
      test_pipeline_reproduces_compile;
    Alcotest.test_case "on_pass order" `Quick test_on_pass_order;
    Alcotest.test_case "legality: RAW swap caught" `Quick
      test_legality_catches_raw_swap;
    Alcotest.test_case "legality: drop/duplicate caught" `Quick
      test_legality_catches_drop_and_duplicate;
    Alcotest.test_case "legality: independent swap ok" `Quick
      test_legality_accepts_independent_swap;
    Alcotest.test_case "legality: real scheduler ok" `Quick
      test_legality_accepts_real_scheduler;
    Alcotest.test_case "oracle: clean at every level" `Quick
      test_diffcheck_clean;
    Alcotest.test_case "oracle: clean under unrolling" `Quick
      test_diffcheck_clean_unroll;
    Alcotest.test_case "oracle: dropped live store caught" `Quick
      test_oracle_catches_dropped_store;
    Alcotest.test_case "oracle: exact compare catches store loss" `Quick
      test_exact_catches_any_dropped_store;
    Alcotest.test_case "shrink reaches a local minimum" `Quick
      test_shrink_minimises;
    Alcotest.test_case "generated programs compile" `Quick
      test_generated_programs_compile;
    Alcotest.test_case "fuzz smoke" `Slow test_fuzz_smoke;
    Alcotest.test_case "fuzz smoke, 2 domains" `Slow test_fuzz_parallel_smoke;
    Alcotest.test_case "checked sweep is bit-identical" `Slow
      test_checked_sweep_identical;
    QCheck_alcotest.to_alcotest
      (prop_direct_matches_allocated "random" Gen_minimod.prog);
    QCheck_alcotest.to_alcotest
      (prop_direct_matches_allocated "alias-heavy" Gen_minimod.alias_heavy_prog);
    Alcotest.test_case "legality, memdep: may-alias hoist caught" `Quick
      test_memdep_rejects_may_alias;
    Alcotest.test_case "legality, memdep: proven-apart hoist ok" `Quick
      test_memdep_accepts_no_alias;
    Alcotest.test_case "legality, memdep: no memory reorder ok" `Quick
      test_memdep_no_memory_reorder ]
