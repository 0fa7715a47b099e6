(* Static memory-dependence analysis (Ilp_analysis.Memdep) and its
   integration into DDG construction.

   Unit tests drive [classify_block] on hand-built instruction lists
   where none of the accesses carry a region annotation, so every
   [No_alias]/[Must_alias] verdict below is earned by the symbolic
   linear-term analysis, not by [Mem_info.disjoint].  The property test
   checks the global soundness contract: the disambiguated DDG of any
   block is an edge-subgraph of the conservative DDG.  The workload
   tests run the full pipeline — [Diffcheck.check_compile ~memdep:true]
   re-justifies every pruned edge statically (Check_sched) and compares
   per-address store streams dynamically. *)

open Ilp_ir
open Ilp_machine
module Memdep = Ilp_analysis.Memdep
module Ddg = Ilp_sched.Ddg

let r = Reg.phys

let alias_t =
  Alcotest.testable Memdep.pp_alias Memdep.equal_alias

let check_alias msg expected instrs a b =
  Alcotest.check alias_t msg expected (Memdep.classify_block instrs a b)

(* --- classify_block units --------------------------------------------- *)

(* Same (unannotated) base register, distinct constant offsets. *)
let test_const_offsets () =
  let st0 = Builder.st ~value:(r 1) ~base:(r 2) ~offset:0 () in
  let ld1 = Builder.ld (r 3) ~base:(r 2) ~offset:1 in
  let ld0 = Builder.ld (r 4) ~base:(r 2) ~offset:0 in
  let instrs = [ st0; ld1; ld0 ] in
  check_alias "0(r2) vs 1(r2)" Memdep.No_alias instrs st0 ld1;
  check_alias "0(r2) vs 0(r2)" Memdep.Must_alias instrs st0 ld0

(* The smooth-kernel shape: the neighbour index flows through a separate
   register ([addi r4 <- r2, 1]), so the two stores use different base
   registers that the linear terms relate exactly. *)
let test_linear_chain () =
  let a = Builder.addi (r 4) (r 2) 1 in
  let st_k = Builder.st ~value:(r 1) ~base:(r 2) ~offset:0 () in
  let st_kn = Builder.st ~value:(r 1) ~base:(r 4) ~offset:0 () in
  let st_kn_back = Builder.st ~value:(r 1) ~base:(r 4) ~offset:(-1) () in
  let instrs = [ a; st_k; st_kn; st_kn_back ] in
  check_alias "0(r2) vs 0(r2+1)" Memdep.No_alias instrs st_k st_kn;
  check_alias "0(r2) vs -1(r2+1)" Memdep.Must_alias instrs st_k st_kn_back

(* Value numbering: two syntactically different computations of the same
   address must coincide, including commuted operands. *)
let test_value_numbering () =
  let a1 = Builder.add (r 4) (r 2) (r 3) in
  let a2 = Builder.add (r 5) (r 3) (r 2) in
  let st1 = Builder.st ~value:(r 1) ~base:(r 4) ~offset:0 () in
  let st2 = Builder.st ~value:(r 1) ~base:(r 5) ~offset:0 () in
  let st3 = Builder.st ~value:(r 1) ~base:(r 5) ~offset:1 () in
  let instrs = [ a1; a2; st1; st2; st3 ] in
  check_alias "r2+r3 vs r3+r2" Memdep.Must_alias instrs st1 st2;
  check_alias "r2+r3 vs (r3+r2)+1" Memdep.No_alias instrs st1 st3

(* A base built by an opaque reg*reg multiply relates to itself but not
   to an unrelated register: the analysis must stay conservative. *)
let test_opaque_base () =
  let m = Builder.mul (r 4) (r 2) (r 3) in
  let st_m = Builder.st ~value:(r 1) ~base:(r 4) ~offset:0 () in
  let st_2 = Builder.st ~value:(r 1) ~base:(r 2) ~offset:0 () in
  let instrs = [ m; st_m; st_2 ] in
  check_alias "r2*r3 vs r2" Memdep.May_alias instrs st_m st_2

(* Calls clobber everything the analysis knows about memory and
   registers: an access after a call must not be proven disjoint from
   one before it just because both use the same base register. *)
let test_call_barrier () =
  let st_pre = Builder.st ~value:(r 1) ~base:(r 2) ~offset:0 () in
  let c = Builder.call (Label.of_string "f") in
  let ld_post = Builder.ld (r 3) ~base:(r 2) ~offset:1 in
  let instrs = [ st_pre; c; ld_post ] in
  match Memdep.classify_block instrs st_pre ld_post with
  | Memdep.No_alias ->
      Alcotest.fail "accesses across a call must not be proven disjoint"
  | Memdep.Must_alias | Memdep.May_alias -> ()

(* --- DDG integration -------------------------------------------------- *)

(* The classifier drops exactly the serialization edge between provably
   disjoint stores, leaves register edges alone, and counts the prune. *)
let test_ddg_pruning () =
  let a = Builder.addi (r 4) (r 2) 1 in
  let st1 = Builder.st ~value:(r 1) ~base:(r 2) ~offset:0 () in
  let st2 = Builder.st ~value:(r 1) ~base:(r 4) ~offset:0 () in
  let instrs = [ a; st1; st2 ] in
  let conservative = Ddg.build Presets.base instrs in
  Alcotest.(check bool)
    "conservative graph serializes the stores" true
    (Ddg.edge_kinds conservative ~src:1 ~dst:2 land Ddg.kind_mem <> 0);
  let pruned =
    Ddg.build ~classify:(Memdep.classify_block instrs) Presets.base instrs
  in
  Alcotest.(check int) "one pruned pair" 1 pruned.Ddg.n_pruned;
  Alcotest.(check int) "no store-store edge left" 0
    (Ddg.edge_kinds pruned ~src:1 ~dst:2);
  Alcotest.(check bool)
    "the RAW edge addi -> st survives" true
    (Ddg.edge_kinds pruned ~src:0 ~dst:2 land Ddg.kind_reg <> 0)

(* Must-alias pairs keep their edge even under the classifier. *)
let test_ddg_keeps_must_alias () =
  let st1 = Builder.st ~value:(r 1) ~base:(r 2) ~offset:0 () in
  let st2 = Builder.st ~value:(r 3) ~base:(r 2) ~offset:0 () in
  let instrs = [ st1; st2 ] in
  let ddg =
    Ddg.build ~classify:(Memdep.classify_block instrs) Presets.base instrs
  in
  Alcotest.(check int) "nothing pruned" 0 ddg.Ddg.n_pruned;
  Alcotest.(check bool)
    "same-address stores stay ordered" true
    (Ddg.edge_kinds ddg ~src:0 ~dst:1 land Ddg.kind_mem <> 0)

(* --- property: disambiguation only removes edges ---------------------- *)

let alias_heavy_program : string QCheck2.Gen.t =
  QCheck2.Gen.map Ilp_lang.Gen_prog.render
    (QCheck2.Gen.make_primitive
       ~gen:(Ilp_lang.Gen_prog.generate ~mode:`Alias_heavy)
       ~shrink:Ilp_lang.Gen_prog.shrink_step)

(* For every block of every function of a compiled aliasing-adversarial
   program, every edge of the disambiguated DDG already exists in the
   conservative DDG (with at least the same kind bits): the classifier
   can only remove serialization, never reorder anything else. *)
let prop_subgraph =
  QCheck2.Test.make ~count:30
    ~name:"memdep: disambiguated DDG is an edge-subgraph of conservative"
    ~print:(fun s -> s)
    alias_heavy_program
    (fun src ->
      let config = Presets.superscalar 4 in
      let program =
        Ilp_core.Ilp.compile_unscheduled ~level:Ilp_core.Ilp.O4 config src
      in
      List.for_all
        (fun (f : Func.t) ->
          let md = Memdep.analyze f in
          List.for_all
            (fun (b : Block.t) ->
              let instrs = b.Block.instrs in
              let conservative = Ddg.build config instrs in
              let disambiguated =
                Ddg.build
                  ~classify:(Memdep.classifier md b.Block.label)
                  config instrs
              in
              let n = Array.length conservative.Ddg.instrs in
              let subgraph = ref true in
              for src_i = 0 to n - 1 do
                for dst = 0 to n - 1 do
                  let dk = Ddg.edge_kinds disambiguated ~src:src_i ~dst in
                  let ck = Ddg.edge_kinds conservative ~src:src_i ~dst in
                  if dk land lnot ck <> 0 then subgraph := false
                done
              done;
              !subgraph
              && disambiguated.Ddg.n_edges <= conservative.Ddg.n_edges)
            f.Func.blocks)
        program.Program.functions)

(* --- full-pipeline soundness over the workloads ----------------------- *)

(* Every workload on several machine shapes: the disambiguated schedule
   must survive Check_sched's edge re-justification AND the per-address
   store-stream comparison against the unscheduled program. *)
let test_workloads_sound () =
  let configs =
    [ Presets.base; Presets.superscalar 4; Presets.cray1 () ]
  in
  let workloads =
    Ilp_workloads.Registry.all @ Ilp_workloads.Registry.extras
  in
  List.iter
    (fun config ->
      List.iter
        (fun w ->
          let unroll, source = Ilp_core.Experiments.workload_source w in
          ignore
            (Ilp_core.Diffcheck.check_compile ?unroll ~memdep:true
               ~level:Ilp_core.Ilp.O4 config source))
        workloads)
    configs

(* --- the measurable win ----------------------------------------------- *)

(* smooth is built to sit exactly on the precision boundary: the
   conservative region analysis cannot relate x[k] and x[kn] once kn
   flows through a scalar, the linear terms can.  Disambiguation must
   buy strictly higher scheduled ILP at the same checksum. *)
let test_smooth_improves () =
  let w =
    match Ilp_workloads.Registry.find "smooth" with
    | Some w -> w
    | None -> Alcotest.fail "smooth workload not registered"
  in
  let unroll, source = Ilp_core.Experiments.workload_source w in
  let config = Presets.superscalar 4 in
  let conservative =
    Ilp_core.Ilp.measure ?unroll ~level:Ilp_core.Ilp.O4 config source
  in
  let disambiguated =
    Ilp_core.Ilp.measure ?unroll ~memdep:true ~level:Ilp_core.Ilp.O4 config
      source
  in
  Alcotest.(check bool)
    "strictly higher scheduled ILP" true
    (disambiguated.Ilp_sim.Metrics.speedup
    > conservative.Ilp_sim.Metrics.speedup);
  Alcotest.check Helpers.value_testable "identical checksum"
    conservative.Ilp_sim.Metrics.sink disambiguated.Ilp_sim.Metrics.sink

(* The lint statistics must witness pruning beyond the region analysis
   on smooth's kernel function. *)
let test_smooth_stats () =
  let w =
    match Ilp_workloads.Registry.find "smooth" with
    | Some w -> w
    | None -> Alcotest.fail "smooth workload not registered"
  in
  let unroll, source = Ilp_core.Experiments.workload_source w in
  let program =
    Ilp_core.Ilp.compile_unscheduled ?unroll ~level:Ilp_core.Ilp.O4
      Presets.base source
  in
  let f =
    match Program.find_function program "smooth" with
    | Some f -> f
    | None -> Alcotest.fail "compiled program lost the smooth function"
  in
  let md = Memdep.analyze f in
  let stats = Memdep.func_stats md f in
  Alcotest.(check bool) "some ordered memory pairs" true (stats.Memdep.pairs > 0);
  Alcotest.(check bool) "some proven no-alias" true (stats.Memdep.no_alias > 0);
  Alcotest.(check bool)
    "pruned beyond the region analysis" true (stats.Memdep.pruned > 0)

(* Every (workload, degree) cell of the memdep experiment: no cell may
   schedule worse with disambiguation on than without, and at least one
   must schedule strictly better, or the analysis buys nothing. *)
let test_study_never_worse () =
  let rows =
    Ilp_core.Experiments.(measure (memdep_study ()))
  in
  List.iter
    (fun (r : Ilp_core.Experiments.memdep_row) ->
      if r.md_disambiguated < r.md_conservative then
        Alcotest.failf
          "%s at degree %d schedules worse with disambiguation (%.4f < %.4f)"
          r.md_bench r.md_degree r.md_disambiguated r.md_conservative)
    rows;
  Alcotest.(check bool)
    "some cell schedules strictly better" true
    (List.exists
       (fun (r : Ilp_core.Experiments.memdep_row) ->
         r.md_disambiguated > r.md_conservative)
       rows)

(* --- the on-demand analysis against the reference ----------------------- *)

(* Where [Memdep] and [Memdep_ref] disagree on [f], if anywhere: the
   verdict of every ordered pair of memory instructions of every block,
   asked block by block from the last block back so that the on-demand
   tiers are forced in another order than the reference computes them,
   and [func_stats] on a fresh analysis. *)
let reference_mismatch ~ranges (f : Func.t) =
  let md = Memdep.analyze ~ranges f and rf = Memdep_ref.analyze ~ranges f in
  let pair_mismatch (b : Block.t) =
    let got = Memdep.classifier md b.Block.label
    and want = Memdep_ref.classifier rf b.Block.label in
    let mems = List.filter Instr.is_memory b.Block.instrs in
    List.find_map
      (fun (i : Instr.t) ->
        List.find_map
          (fun (j : Instr.t) ->
            let g = got i j and w = want i j in
            if i.Instr.id = j.Instr.id || Memdep.equal_alias g w then None
            else
              Some
                (Fmt.str "%s: [%a] vs [%a]: %a, reference %a"
                   (Label.to_string b.Block.label)
                   Instr.pp i Instr.pp j Memdep.pp_alias g Memdep.pp_alias w))
          mems)
      mems
  in
  match List.find_map pair_mismatch (List.rev f.Func.blocks) with
  | Some _ as m -> m
  | None ->
      let got = Memdep.func_stats (Memdep.analyze ~ranges f) f
      and want = Memdep_ref.func_stats rf f in
      if got = want then None
      else
        Some
          (Printf.sprintf "func_stats: pairs %d/%d no-alias %d/%d must %d/%d \
                           pruned %d/%d (reference second)"
             got.Memdep.pairs want.Memdep.pairs got.Memdep.no_alias
             want.Memdep.no_alias got.Memdep.must_alias want.Memdep.must_alias
             got.Memdep.pruned want.Memdep.pruned)

let program_mismatch (p : Program.t) =
  List.find_map
    (fun (f : Func.t) ->
      List.find_map
        (fun ranges ->
          Option.map
            (fun what ->
              Printf.sprintf "%s (ranges %b): %s" f.Func.name ranges what)
            (reference_mismatch ~ranges f))
        [ true; false ])
    p.Program.functions

let careful_unroll =
  { Ilp_core.Ilp.mode = Ilp_lang.Unroll.Careful; factor = 4; bounds = true }

(* Programs of all four generator modes, at O1-O4, rolled and with a
   careful unroll: the scheduler's input, where [List_sched] and
   [Check_sched] run the analysis.  Not shrunk: every candidate costs
   eight compiles and both analyses, so shrinking a counterexample takes
   minutes, and the report already names the function, block and pair. *)
let prop_matches_reference =
  QCheck2.Test.make ~count:52
    ~name:"memdep: on-demand analysis = reference on every memory pair"
    ~print:(fun s -> s)
    (QCheck2.Gen.no_shrink Gen_minimod.any_mode_program)
    (fun source ->
      List.for_all
        (fun unroll ->
          List.for_all
            (fun level ->
              let p =
                Ilp_core.Ilp.compile_unscheduled ?unroll ~level
                  Presets.base source
              in
              match program_mismatch p with
              | None -> true
              | Some what ->
                  QCheck2.Test.fail_reportf "%s, unroll %b: %s"
                    (Ilp_core.Ilp.opt_level_name level)
                    (Option.is_some unroll) what)
            Ilp_core.Ilp.[ O1; O2; O3; O4 ])
        [ None; Some careful_unroll ])

(* Shapes codegen never emits (a [sub] by an immediate, a sum with the
   constant first, copies) carry tier-1 facts into the next block, and a
   call clobbers them on the way to the last one; each block's verdicts
   must be the reference's, and the facts must have arrived. *)
let test_hand_built_matches_reference () =
  let l = Label.of_string in
  let st_base = Builder.st ~value:(r 1) ~base:(r 2) ~offset:0 () in
  let ld_same = Builder.ld (r 10) ~base:(r 3) ~offset:1 in
  let ld_next = Builder.ld (r 11) ~base:(r 6) ~offset:2 in
  let st_sum = Builder.st ~value:(r 1) ~base:(r 7) ~offset:(-3) () in
  let f =
    Func.make ~name:"f" ~frame_size:0 ~n_params:0
      [ Block.make (l "entry")
          [ Builder.li (r 9) 4;
            Builder.ri Opcode.Sub (r 3) (r 2) 1;
            Builder.add (r 4) (r 2) (r 9);
            Builder.sub (r 5) (r 2) (r 9);
            Builder.mov (r 6) (r 3);
            Builder.add (r 7) (r 9) (r 2) ];
        Block.make (l "use")
          [ st_base; ld_same; ld_next;
            Builder.st ~value:(r 1) ~base:(r 4) ~offset:(-4) ();
            Builder.st ~value:(r 1) ~base:(r 5) ~offset:4 ();
            st_sum; Builder.call (l "g") ];
        Block.make (l "after")
          [ Builder.st ~value:(r 1) ~base:(r 3) ~offset:1 ();
            Builder.ld (r 12) ~base:Reg.sp ~offset:0;
            Builder.st ~value:(r 1) ~base:(r 6) ~offset:1 ();
            Builder.ret () ] ]
  in
  List.iter
    (fun ranges ->
      Option.iter Alcotest.fail (reference_mismatch ~ranges f))
    [ true; false ];
  let classify = Memdep.classifier (Memdep.analyze f) (l "use") in
  Alcotest.check alias_t "0(r2) vs 1(r2-1)" Memdep.Must_alias
    (classify st_base ld_same);
  Alcotest.check alias_t "0(r2) vs 2(r2-1)" Memdep.No_alias
    (classify st_base ld_next);
  Alcotest.check alias_t "2(r2-1) vs -3(4+r2)" Memdep.Must_alias
    (classify ld_next st_sum)

(* Every shipped workload at every level and under the three unrollings
   the benchmark's [compile] workload schedules. *)
let test_workloads_match_reference () =
  let unroll mode factor bounds = Some { Ilp_core.Ilp.mode; factor; bounds } in
  let unrolls =
    [ None; unroll Ilp_lang.Unroll.Naive 4 false;
      unroll Ilp_lang.Unroll.Careful 8 true ]
  in
  List.iter
    (fun (w : Ilp_workloads.Workload.t) ->
      List.iter
        (fun unroll ->
          let source =
            match unroll with
            | Some { Ilp_core.Ilp.mode = Ilp_lang.Unroll.Careful; _ } ->
                Ilp_workloads.Workload.source_for_mode w `Careful
            | Some _ | None -> w.Ilp_workloads.Workload.source
          in
          List.iter
            (fun level ->
              let p =
                Ilp_core.Ilp.compile_unscheduled ?unroll ~level
                  (Presets.superscalar 4) source
              in
              match program_mismatch p with
              | None -> ()
              | Some what ->
                  Alcotest.failf "%s %s: %s" w.Ilp_workloads.Workload.name
                    (Ilp_core.Ilp.opt_level_name level) what)
            Ilp_core.Ilp.all_levels)
        unrolls)
    (Ilp_workloads.Registry.all @ Ilp_workloads.Registry.extras)

let tests =
  [ Alcotest.test_case "classify: constant offsets" `Quick test_const_offsets;
    Alcotest.test_case "classify: linear index chain" `Quick test_linear_chain;
    Alcotest.test_case "classify: value numbering" `Quick test_value_numbering;
    Alcotest.test_case "classify: opaque base" `Quick test_opaque_base;
    Alcotest.test_case "classify: call barrier" `Quick test_call_barrier;
    Alcotest.test_case "ddg: prunes proven-disjoint stores" `Quick
      test_ddg_pruning;
    Alcotest.test_case "ddg: keeps must-alias edges" `Quick
      test_ddg_keeps_must_alias;
    QCheck_alcotest.to_alcotest prop_subgraph;
    Alcotest.test_case "workloads: memdep schedules are sound" `Slow
      test_workloads_sound;
    Alcotest.test_case "smooth: disambiguation strictly improves ILP" `Quick
      test_smooth_improves;
    Alcotest.test_case "smooth: pruning statistics" `Quick test_smooth_stats;
    Alcotest.test_case "experiment: never worse, sometimes better" `Quick
      test_study_never_worse;
    Alcotest.test_case "hand-built: on-demand analysis = reference" `Quick
      test_hand_built_matches_reference;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    Alcotest.test_case "workloads: on-demand analysis = reference" `Quick
      test_workloads_match_reference ]
