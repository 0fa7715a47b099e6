(* The generic dataflow framework's instances (definite assignment,
   available expressions, the lint suite on top of them) and the
   independent register-allocation verifier — including
   the injected-defect tests: a clobbered live range and a
   use-before-def must each be caught statically, with diagnostics
   naming function, block and instruction. *)

open Ilp_ir
open Ilp_machine
open Ilp_analysis

let r = Reg.phys
let l = Label.of_string

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* a diamond where [assign_right] controls whether the right arm also
   defines [v] *)
let diamond_with ~assign_right v =
  let use =
    Instr.make Opcode.Add ~dst:(r 5) ~srcs:[ Instr.Oreg v; Instr.Oimm 1 ]
  in
  let f =
    Func.make ~name:"main" ~frame_size:0 ~n_params:0
      [ Block.make (l "entry")
          [ Builder.li (r 4) 1; Builder.beq (r 4) (r 4) (l "right") ];
        Block.make (l "left")
          [ Instr.make Opcode.Li ~dst:v ~srcs:[ Instr.Oimm 7 ];
            Builder.jmp (l "join") ];
        Block.make (l "right")
          (if assign_right then
             [ Instr.make Opcode.Li ~dst:v ~srcs:[ Instr.Oimm 9 ] ]
           else [ Builder.li (r 6) 9 ]);
        Block.make (l "join") [ use; Builder.halt () ] ]
  in
  (f, use)

(* --- definite assignment ------------------------------------------------- *)

let test_def_assign_clean () =
  let v = Reg.virt () in
  let f, _ = diamond_with ~assign_right:true v in
  Alcotest.(check int) "no errors when both arms assign" 0
    (List.length (Def_assign.errors (Cfg_info.build f)))

let test_def_assign_catches_use_before_def () =
  (* injected defect: the right arm skips the assignment, so some path
     reaches the use with [v] unassigned — caught statically, locating
     function, block and instruction *)
  let v = Reg.virt () in
  let f, use = diamond_with ~assign_right:false v in
  match Def_assign.errors (Cfg_info.build f) with
  | [ e ] ->
      Alcotest.(check int) "error in the join block" 3 e.Def_assign.block;
      Alcotest.(check int) "error at the use" use.Instr.id
        e.Def_assign.instr.Instr.id;
      Alcotest.(check bool) "error names v" true
        (Reg.equal v e.Def_assign.reg)
  | es ->
      Alcotest.failf "expected exactly one use-before-def error, got %d"
        (List.length es)

let test_def_assign_unreachable_is_univ () =
  let v = Reg.virt () in
  let f =
    Func.make ~name:"main" ~frame_size:0 ~n_params:0
      [ Block.make (l "entry") [ Builder.li (r 4) 1; Builder.jmp (l "exit") ];
        Block.make (l "orphan")
          [ Instr.make Opcode.Add ~dst:(r 5)
              ~srcs:[ Instr.Oreg v; Instr.Oimm 1 ];
            Builder.jmp (l "exit") ];
        Block.make (l "exit") [ Builder.halt () ] ]
  in
  let cfg = Cfg_info.build f in
  let sol = Def_assign.compute cfg in
  Alcotest.(check bool) "unreachable block keeps Univ" true
    (sol.Dataflow.inb.(1) = Def_assign.M.Univ);
  Alcotest.(check int) "uses in unreachable code are not flagged" 0
    (List.length (Def_assign.errors cfg))

(* --- available expressions ----------------------------------------------- *)

let avail_diamond ~both_arms =
  let a = Reg.virt () and t1 = Reg.virt () and t2 = Reg.virt () in
  let compute dst =
    Instr.make Opcode.Add ~dst ~srcs:[ Instr.Oreg a; Instr.Oimm 1 ]
  in
  let recompute = compute (Reg.virt ()) in
  ( Func.make ~name:"main" ~frame_size:0 ~n_params:0
      [ Block.make (l "entry")
          [ Instr.make Opcode.Li ~dst:a ~srcs:[ Instr.Oimm 5 ];
            Builder.li (r 4) 1;
            Builder.beq (r 4) (r 4) (l "right") ];
        Block.make (l "left") [ compute t1; Builder.jmp (l "join") ];
        Block.make (l "right")
          (if both_arms then [ compute t2 ] else [ Builder.li (r 6) 0 ]);
        Block.make (l "join") [ recompute; Builder.halt () ] ],
    recompute )

let test_avail_exprs_redundant_on_diamond () =
  let f, recompute = avail_diamond ~both_arms:true in
  match Avail_exprs.redundant (Cfg_info.build f) with
  | [ hit ] ->
      Alcotest.(check int) "recomputation at the join flagged" recompute.Instr.id
        hit.Avail_exprs.instr.Instr.id;
      Alcotest.(check int) "in the join block" 3 hit.Avail_exprs.block
  | hits -> Alcotest.failf "expected one redundancy, got %d" (List.length hits)

let test_avail_exprs_must_not_may () =
  (* available on one path only: not redundant *)
  let f, _ = avail_diamond ~both_arms:false in
  Alcotest.(check int) "one-armed expression is not available" 0
    (List.length (Avail_exprs.redundant (Cfg_info.build f)))

let test_avail_exprs_killed_by_redefinition () =
  let a = Reg.virt () in
  let compute () =
    Instr.make Opcode.Add ~dst:(Reg.virt ())
      ~srcs:[ Instr.Oreg a; Instr.Oimm 1 ]
  in
  let f =
    Func.make ~name:"main" ~frame_size:0 ~n_params:0
      [ Block.make (l "b")
          [ Instr.make Opcode.Li ~dst:a ~srcs:[ Instr.Oimm 5 ];
            compute ();
            Instr.make Opcode.Li ~dst:a ~srcs:[ Instr.Oimm 6 ];
            compute ();
            Builder.halt () ] ]
  in
  Alcotest.(check int) "redefining a source kills the expression" 0
    (List.length (Avail_exprs.redundant (Cfg_info.build f)))

(* --- instruction-level liveness ------------------------------------------ *)

let test_instr_live_out () =
  let v1 = Reg.virt () and v2 = Reg.virt () in
  let f =
    Func.make ~name:"main" ~frame_size:0 ~n_params:0
      [ Block.make (l "b")
          [ Instr.make Opcode.Li ~dst:v1 ~srcs:[ Instr.Oimm 1 ];
            Instr.make Opcode.Li ~dst:v2 ~srcs:[ Instr.Oimm 2 ];
            Instr.make Opcode.Add ~dst:(r 5)
              ~srcs:[ Instr.Oreg v1; Instr.Oreg v2 ];
            Builder.halt () ] ]
  in
  let cfg = Cfg_info.build f in
  let live = Liveness.compute cfg in
  let after = Liveness.instr_live_out cfg live 0 in
  Alcotest.(check bool) "v1 live after its def" true (Reg.Set.mem v1 after.(0));
  Alcotest.(check bool) "v2 not yet live after v1's def" false
    (Reg.Set.mem v2 after.(0));
  Alcotest.(check bool) "both live after v2's def" true
    (Reg.Set.mem v1 after.(1) && Reg.Set.mem v2 after.(1));
  Alcotest.(check bool) "dead after the add" true
    (Reg.Set.is_empty after.(2))

(* --- lint and diagnostics ------------------------------------------------ *)

let test_lint_dead_code_and_unreachable () =
  let dead = Reg.virt () in
  let f =
    Func.make ~name:"main" ~frame_size:0 ~n_params:0
      [ Block.make (l "entry")
          [ Instr.make Opcode.Li ~dst:dead ~srcs:[ Instr.Oimm 3 ];
            Builder.jmp (l "exit") ];
        Block.make (l "orphan") [ Builder.li (r 4) 0; Builder.jmp (l "exit") ];
        Block.make (l "exit") [ Builder.halt () ] ]
  in
  let ds = Lint.check_func f in
  let by check =
    List.filter (fun d -> String.equal d.Diagnostics.check check) ds
  in
  Alcotest.(check int) "one dead-code warning" 1 (List.length (by "dead-code"));
  Alcotest.(check int) "one unreachable warning" 1
    (List.length (by "unreachable"));
  Alcotest.(check int) "no errors" 0 (List.length (Diagnostics.errors ds));
  match by "unreachable" with
  | [ d ] ->
      Alcotest.(check (option string)) "warning names the orphan block"
        (Some "orphan") d.Diagnostics.block
  | _ -> Alcotest.fail "unreachable warning missing"

let test_lint_use_before_def_diagnostic () =
  (* the statically caught use-before-def carries a full location *)
  let v = Reg.virt () in
  let f, use = diamond_with ~assign_right:false v in
  match Diagnostics.errors (Lint.check_func f) with
  | [ d ] ->
      Alcotest.(check bool) "severity error" true (Diagnostics.is_error d);
      Alcotest.(check string) "check name" "def-assign" d.Diagnostics.check;
      Alcotest.(check string) "function named" "main" d.Diagnostics.func;
      Alcotest.(check (option string)) "block named" (Some "join")
        d.Diagnostics.block;
      Alcotest.(check (option string)) "instruction named"
        (Some (Instr.to_string use))
        d.Diagnostics.instr
  | ds -> Alcotest.failf "expected one error, got %d" (List.length ds)

let test_diagnostics_render_stable () =
  let d1 = Diagnostics.make Diagnostics.Warning ~check:"z" ~func:"f" "later" in
  let d2 =
    Diagnostics.make Diagnostics.Error ~check:"a" ~func:"f" ~block:"b" "first"
  in
  let rendered = Diagnostics.render [ d1; d2 ] in
  let rendered' = Diagnostics.render [ d2; d1 ] in
  Alcotest.(check string) "order-independent rendering" rendered rendered';
  Alcotest.(check bool) "errors sort first" true
    (String.length rendered > 5 && String.sub rendered 0 5 = "error")

(* --- register-allocation verifier ---------------------------------------- *)

let clobber_pair ~good =
  (* v1 and v2 are simultaneously live; a correct allocation separates
     them, the injected defect folds both onto r4 *)
  let v1 = Reg.virt () and v2 = Reg.virt () and v3 = Reg.virt () in
  let i2 = Instr.make Opcode.Li ~dst:v2 ~srcs:[ Instr.Oimm 2 ] in
  let before =
    Func.make ~name:"main" ~frame_size:0 ~n_params:0
      [ Block.make (l "entry")
          [ Instr.make Opcode.Li ~dst:v1 ~srcs:[ Instr.Oimm 1 ];
            i2;
            Instr.make Opcode.Add ~dst:v3
              ~srcs:[ Instr.Oreg v1; Instr.Oreg v2 ];
            Builder.halt () ] ]
  in
  let assign x =
    if Reg.equal x v1 then r 4
    else if Reg.equal x v2 then if good then r 5 else r 4
    else if Reg.equal x v3 then r 4
    else x
  in
  let after =
    Func.map_blocks
      (fun b ->
        Block.make b.Block.label
          (List.map
             (fun i -> Instr.map_dst assign (Instr.map_src_regs assign i))
             b.Block.instrs))
      before
  in
  (before, after, i2)

let test_regalloc_verify_accepts_good_assignment () =
  let before, after, _ = clobber_pair ~good:true in
  Alcotest.(check int) "clean allocation passes" 0
    (List.length
       (Ilp_regalloc.Regalloc_verify.check_temp_alloc Presets.base ~before
          ~after))

let test_regalloc_verify_catches_clobber () =
  (* injected defect: both live values on r4 — caught statically, the
     diagnostic naming function, block and the clobbering instruction *)
  let before, after, i2 = clobber_pair ~good:false in
  let ds =
    Ilp_regalloc.Regalloc_verify.check_temp_alloc Presets.base ~before ~after
  in
  Alcotest.(check bool) "at least one error" true (ds <> []);
  let d = List.hd ds in
  Alcotest.(check string) "check name" "temp-alloc" d.Diagnostics.check;
  Alcotest.(check string) "function named" "main" d.Diagnostics.func;
  Alcotest.(check (option string)) "block named" (Some "entry")
    d.Diagnostics.block;
  Alcotest.(check (option string)) "clobbering def named"
    (Some (Instr.to_string i2))
    d.Diagnostics.instr

let test_regalloc_verify_partition_bound () =
  (* an assignment outside the temp pool is flagged even when no
     clobbering occurs *)
  let config = Config.make "tiny" ~temp_regs:2 in
  let v = Reg.virt () in
  let before =
    Func.make ~name:"main" ~frame_size:0 ~n_params:0
      [ Block.make (l "entry")
          [ Instr.make Opcode.Li ~dst:v ~srcs:[ Instr.Oimm 1 ];
            Instr.make Opcode.Add ~dst:(r 4)
              ~srcs:[ Instr.Oreg v; Instr.Oimm 1 ];
            Builder.halt () ] ]
  in
  let out_of_pool = r (Ilp_regalloc.Regfile.home_base config) in
  let assign x = if Reg.equal x v then out_of_pool else x in
  let after =
    Func.map_blocks
      (fun b ->
        Block.make b.Block.label
          (List.map
             (fun i -> Instr.map_dst assign (Instr.map_src_regs assign i))
             b.Block.instrs))
      before
  in
  let ds =
    Ilp_regalloc.Regalloc_verify.check_temp_alloc config ~before ~after
  in
  Alcotest.(check bool) "partition violation flagged" true
    (List.exists
       (fun d -> contains d.Diagnostics.message "outside the temp partition")
       ds)

let test_regalloc_verify_recursive_home_caught () =
  (* injected defect: a local of a self-recursive function promoted to a
     home register — the recursive instance would clobber its caller *)
  let slot_mem =
    Mem_info.make (Mem_info.Stack_slot ("f", 0)) (Mem_info.Const 0)
  in
  let store =
    Builder.st ~mem:slot_mem ~value:(r 5) ~base:Reg.sp ~offset:0 ()
  in
  (* every instruction except the promoted store is the same value in
     [before] and [after], so its id is preserved as a real allocator
     rewrite would *)
  let li5 = Builder.li (r 5) 1 in
  let callf = Builder.call (l "f") in
  let retf = Builder.ret () in
  let main_fn =
    Func.make ~name:"main" ~frame_size:0 ~n_params:0
      [ Block.make (l "main") [ Builder.call (l "f"); Builder.halt () ] ]
  in
  let func_of body =
    Func.make ~name:"f" ~frame_size:1 ~n_params:0 [ Block.make (l "f") body ]
  in
  let before =
    Program.make ~globals:[]
      ~functions:[ func_of [ li5; store; callf; retf ]; main_fn ]
  in
  let home = r (Ilp_regalloc.Regfile.home_base Presets.base) in
  let promoted = Builder.mov home (r 5) in
  let after =
    Program.make ~globals:[]
      ~functions:[ func_of [ li5; promoted; callf; retf ]; main_fn ]
  in
  let ds =
    Ilp_regalloc.Regalloc_verify.check_global_alloc Presets.base ~before
      ~after
  in
  match ds with
  | [ d ] ->
      Alcotest.(check string) "function named" "f" d.Diagnostics.func;
      Alcotest.(check bool) "cycle named in the message" true
        (contains d.Diagnostics.message "call-graph cycle")
  | _ ->
      Alcotest.failf "expected exactly one error, got: %s"
        (Diagnostics.render ds)

let test_cyclic_functions () =
  let fn name body = Func.make ~name ~frame_size:0 ~n_params:0 body in
  let p =
    Program.make ~globals:[]
      ~functions:
        [ fn "even"
            [ Block.make (l "even") [ Builder.call (l "odd"); Builder.ret () ] ];
          fn "odd"
            [ Block.make (l "odd") [ Builder.call (l "even"); Builder.ret () ] ];
          fn "leaf" [ Block.make (l "leaf") [ Builder.ret () ] ];
          fn "main"
            [ Block.make (l "main") [ Builder.call (l "even"); Builder.halt () ] ]
        ]
  in
  let cyclic = Ilp_regalloc.Regalloc_verify.cyclic_functions p in
  Alcotest.(check bool) "mutual recursion detected" true
    (cyclic "even" && cyclic "odd");
  Alcotest.(check bool) "leaf and main are acyclic" false
    (cyclic "leaf" || cyclic "main")

(* --- the allocators pass their own verifier on every workload ------------ *)

let test_workload_allocations_verify () =
  (* compile ~check runs Regalloc_verify at both allocator seams; the
     sweep covers every workload on several presets and unroll factors *)
  let configs =
    [ Presets.base; Presets.multititan; Presets.cray1 ();
      Presets.superscalar 4 ]
  in
  List.iter
    (fun w ->
      List.iter
        (fun config ->
          List.iter
            (fun factor ->
              let unroll =
                if factor = 1 then None
                else
                  Some
                    { Ilp_core.Ilp.mode = Ilp_lang.Unroll.Naive; factor;
                      bounds = false }
              in
              ignore
                (Ilp_core.Ilp.compile ?unroll ~check:true
                   ~level:Ilp_core.Ilp.O4 config
                   w.Ilp_workloads.Workload.source))
            [ 1; 3 ])
        configs)
    Ilp_workloads.Registry.all

let tests =
  [ Alcotest.test_case "definite assignment clean" `Quick
      test_def_assign_clean;
    Alcotest.test_case "use-before-def caught statically" `Quick
      test_def_assign_catches_use_before_def;
    Alcotest.test_case "unreachable blocks stay Univ" `Quick
      test_def_assign_unreachable_is_univ;
    Alcotest.test_case "available exprs: redundant on diamond" `Quick
      test_avail_exprs_redundant_on_diamond;
    Alcotest.test_case "available exprs: must not may" `Quick
      test_avail_exprs_must_not_may;
    Alcotest.test_case "available exprs: killed by redefinition" `Quick
      test_avail_exprs_killed_by_redefinition;
    Alcotest.test_case "instruction-level live-out" `Quick test_instr_live_out;
    Alcotest.test_case "lint: dead code and unreachable" `Quick
      test_lint_dead_code_and_unreachable;
    Alcotest.test_case "lint: use-before-def diagnostic" `Quick
      test_lint_use_before_def_diagnostic;
    Alcotest.test_case "diagnostics render stably" `Quick
      test_diagnostics_render_stable;
    Alcotest.test_case "regalloc verify: good assignment" `Quick
      test_regalloc_verify_accepts_good_assignment;
    Alcotest.test_case "regalloc verify: clobber caught statically" `Quick
      test_regalloc_verify_catches_clobber;
    Alcotest.test_case "regalloc verify: partition bound" `Quick
      test_regalloc_verify_partition_bound;
    Alcotest.test_case "regalloc verify: recursive home caught" `Quick
      test_regalloc_verify_recursive_home_caught;
    Alcotest.test_case "call-graph cycles (Tarjan)" `Quick
      test_cyclic_functions;
    Alcotest.test_case "workload allocations verify" `Slow
      test_workload_allocations_verify ]
