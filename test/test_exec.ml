(* Executor semantics: every opcode, control flow, calls, memory, and
   fault behaviour, using hand-built IR and small MiniMod programs; virtual
   registers in per-call frames and the paged memory. *)

open Ilp_ir

let sink_addr = Program.globals_base

let run_main ?options instrs =
  let p =
    Program.make
      ~globals:[ { Program.gname = "__sink"; words = 1; init = Program.Zero } ]
      ~functions:[ Builder.single_block_main instrs ]
  in
  Ilp_sim.Exec.run ?options p

(* evaluate a sequence that leaves its result in r9, then store to sink *)
let eval instrs =
  let r = Reg.phys in
  let all =
    instrs @ [ Builder.st ~value:(r 9) ~base:(r 8) ~offset:0 () ]
  in
  let with_base = Builder.li (Reg.phys 8) sink_addr :: all in
  (run_main with_base).Ilp_sim.Exec.sink

let check_int name expected instrs =
  Alcotest.check Helpers.value_testable name (Ilp_sim.Value.Int expected)
    (eval instrs)

let check_flt name expected instrs =
  match eval instrs with
  | Ilp_sim.Value.Float f -> Helpers.check_float name expected f
  | Ilp_sim.Value.Int _ -> Alcotest.failf "%s: expected float" name

let r = Reg.phys

let test_int_arith () =
  check_int "add" 7 [ Builder.li (r 1) 3; Builder.li (r 2) 4; Builder.add (r 9) (r 1) (r 2) ];
  check_int "sub" (-1) [ Builder.li (r 1) 3; Builder.li (r 2) 4; Builder.sub (r 9) (r 1) (r 2) ];
  check_int "mul" 12 [ Builder.li (r 1) 3; Builder.li (r 2) 4; Builder.mul (r 9) (r 1) (r 2) ];
  check_int "div" 3 [ Builder.li (r 1) 13; Builder.li (r 2) 4; Builder.div (r 9) (r 1) (r 2) ];
  check_int "rem" 1
    [ Builder.li (r 1) 13; Builder.li (r 2) 4;
      Instr.make Opcode.Rem ~dst:(r 9) ~srcs:[ Instr.Oreg (r 1); Instr.Oreg (r 2) ] ];
  check_int "neg" (-5)
    [ Builder.li (r 1) 5; Instr.make Opcode.Neg ~dst:(r 9) ~srcs:[ Instr.Oreg (r 1) ] ]

let test_int_logic_shift () =
  check_int "and" 0b100 [ Builder.li (r 1) 0b110; Builder.li (r 2) 0b101; Builder.and_ (r 9) (r 1) (r 2) ];
  check_int "or" 0b111 [ Builder.li (r 1) 0b110; Builder.li (r 2) 0b101; Builder.or_ (r 9) (r 1) (r 2) ];
  check_int "xor" 0b011 [ Builder.li (r 1) 0b110; Builder.li (r 2) 0b101; Builder.xor (r 9) (r 1) (r 2) ];
  check_int "shl" 40 [ Builder.li (r 1) 5; Builder.shl (r 9) (r 1) 3 ];
  check_int "sra" (-2)
    [ Builder.li (r 1) (-8);
      Instr.make Opcode.Sra ~dst:(r 9) ~srcs:[ Instr.Oreg (r 1); Instr.Oimm 2 ] ];
  check_int "not" (-1)
    [ Builder.li (r 1) 0; Instr.make Opcode.Not ~dst:(r 9) ~srcs:[ Instr.Oreg (r 1) ] ]

let test_comparisons () =
  check_int "slt true" 1 [ Builder.li (r 1) 2; Builder.li (r 2) 3; Builder.slt (r 9) (r 1) (r 2) ];
  check_int "slt false" 0 [ Builder.li (r 1) 3; Builder.li (r 2) 3; Builder.slt (r 9) (r 1) (r 2) ];
  check_int "seq" 1
    [ Builder.li (r 1) 3;
      Instr.make Opcode.Seq ~dst:(r 9) ~srcs:[ Instr.Oreg (r 1); Instr.Oimm 3 ] ];
  check_int "sne" 1
    [ Builder.li (r 1) 3;
      Instr.make Opcode.Sne ~dst:(r 9) ~srcs:[ Instr.Oreg (r 1); Instr.Oimm 4 ] ]

let test_float_ops () =
  check_flt "fadd" 3.5 [ Builder.fli (r 1) 1.25; Builder.fli (r 2) 2.25; Builder.fadd (r 9) (r 1) (r 2) ];
  check_flt "fsub" (-1.0) [ Builder.fli (r 1) 1.25; Builder.fli (r 2) 2.25; Builder.fsub (r 9) (r 1) (r 2) ];
  check_flt "fmul" 2.5 [ Builder.fli (r 1) 1.25; Builder.fli (r 2) 2.0; Builder.fmul (r 9) (r 1) (r 2) ];
  check_flt "fdiv" 0.625 [ Builder.fli (r 1) 1.25; Builder.fli (r 2) 2.0; Builder.fdiv (r 9) (r 1) (r 2) ];
  check_flt "itof" 7.0 [ Builder.li (r 1) 7; Builder.itof (r 9) (r 1) ];
  check_int "ftoi" 7
    [ Builder.fli (r 1) 7.9; Instr.make Opcode.Ftoi ~dst:(r 9) ~srcs:[ Instr.Oreg (r 1) ] ];
  check_int "flt" 1
    [ Builder.fli (r 1) 1.0; Builder.fli (r 2) 2.0;
      Instr.make Opcode.Flt ~dst:(r 9) ~srcs:[ Instr.Oreg (r 1); Instr.Oreg (r 2) ] ]

let test_memory_roundtrip () =
  check_int "store/load" 42
    [ Builder.li (r 1) 42;
      Builder.li (r 2) 2000;
      Builder.st ~value:(r 1) ~base:(r 2) ~offset:5 ();
      Builder.ld (r 9) ~base:(r 2) ~offset:5 ]

let test_absolute_addressing () =
  check_int "absolute base" 9
    [ Builder.li (r 1) 9;
      Instr.make Opcode.St ~srcs:[ Instr.Oreg (r 1); Instr.Oimm 3000 ];
      Instr.make Opcode.Ld ~dst:(r 9) ~srcs:[ Instr.Oimm 3000 ] ]

let test_branches () =
  let skip = Label.of_string "skip" in
  let p =
    Program.make
      ~globals:[ { Program.gname = "__sink"; words = 1; init = Program.Zero } ]
      ~functions:
        [ Func.make ~name:"main" ~frame_size:0 ~n_params:0
            [ Block.make (Label.of_string "main")
                [ Builder.li (r 1) 1;
                  Builder.li (r 2) 2;
                  Builder.li (r 9) 111;
                  Builder.blt (r 1) (r 2) skip;
                  Builder.li (r 9) 222 (* skipped *) ];
              Block.make skip
                [ Builder.li (r 8) sink_addr;
                  Builder.st ~value:(r 9) ~base:(r 8) ~offset:0 ();
                  Builder.halt () ] ]
        ]
  in
  Alcotest.check Helpers.value_testable "taken branch skips"
    (Ilp_sim.Value.Int 111) (Ilp_sim.Exec.run p).Ilp_sim.Exec.sink

let test_call_stack () =
  (* call a function that sets r1, main sinks it; ret addr is off-memory *)
  let f_label = Label.of_string "f" in
  let p =
    Program.make
      ~globals:[ { Program.gname = "__sink"; words = 1; init = Program.Zero } ]
      ~functions:
        [ Func.make ~name:"main" ~frame_size:0 ~n_params:0
            [ Block.make (Label.of_string "main")
                [ Builder.call f_label;
                  Builder.li (r 8) sink_addr;
                  Builder.st ~value:Instr.ret_reg ~base:(r 8) ~offset:0 ();
                  Builder.halt () ] ];
          Func.make ~name:"f" ~frame_size:0 ~n_params:0
            [ Block.make f_label
                [ Builder.li Instr.ret_reg 77; Builder.ret () ] ]
        ]
  in
  Alcotest.check Helpers.value_testable "call/ret" (Ilp_sim.Value.Int 77)
    (Ilp_sim.Exec.run p).Ilp_sim.Exec.sink

let expect_fault name instrs =
  match run_main instrs with
  | exception Ilp_sim.Exec.Fault _ -> ()
  | _ -> Alcotest.failf "%s: expected a fault" name

let test_faults () =
  expect_fault "div by zero"
    [ Builder.li (r 1) 1; Builder.li (r 2) 0; Builder.div (r 9) (r 1) (r 2) ];
  expect_fault "oob load"
    [ Builder.li (r 1) (-5); Builder.ld (r 9) ~base:(r 1) ~offset:0 ];
  expect_fault "jump to unknown label"
    [ Builder.jmp (Label.of_string "nowhere") ];
  (* FP instruction on integer words is a dynamic type error *)
  match
    run_main [ Builder.li (r 1) 1; Builder.fadd (r 9) (r 1) (r 1) ]
  with
  | exception Ilp_sim.Value.Type_error _ -> ()
  | _ -> Alcotest.fail "expected a type error"

(* max_steps guard *)
let test_step_guard () =
  let back = Label.of_string "main" in
  let p =
    Program.make ~globals:[]
      ~functions:
        [ Func.make ~name:"main" ~frame_size:0 ~n_params:0
            [ Block.make back [ Builder.jmp back ] ] ]
  in
  let options = { Ilp_sim.Exec.default_options with Ilp_sim.Exec.max_steps = 1000 } in
  match Ilp_sim.Exec.run ~options p with
  | exception Ilp_sim.Exec.Fault _ -> ()
  | _ -> Alcotest.fail "expected step-limit fault"

let test_class_counts () =
  let outcome =
    run_main
      [ Builder.li (r 1) 1;
        Builder.add (r 2) (r 1) (r 1);
        Builder.add (r 3) (r 2) (r 1);
        Builder.fli (r 4) 1.0;
        Builder.fadd (r 5) (r 4) (r 4) ]
  in
  let count cls = outcome.Ilp_sim.Exec.class_counts.(Iclass.to_index cls) in
  Alcotest.(check int) "two moves (li)" 2 (count Iclass.Move);
  Alcotest.(check int) "two adds" 2 (count Iclass.Add_sub);
  Alcotest.(check int) "one fp add" 1 (count Iclass.Fp_add);
  Alcotest.(check int) "one jump (halt)" 1 (count Iclass.Jump);
  Alcotest.(check int) "dyn instrs" 6 outcome.Ilp_sim.Exec.dyn_instrs

let test_global_init () =
  let p =
    Program.make
      ~globals:
        [ { Program.gname = "__sink"; words = 1; init = Program.Zero };
          { Program.gname = "g"; words = 1; init = Program.Ints [ 123 ] };
          { Program.gname = "fs"; words = 2; init = Program.Floats [ 1.5; 2.5 ] } ]
      ~functions:
        [ Builder.single_block_main
            [ Instr.make Opcode.Ld ~dst:(r 9) ~srcs:[ Instr.Oimm (sink_addr + 1) ];
              Builder.li (r 8) sink_addr;
              Builder.st ~value:(r 9) ~base:(r 8) ~offset:0 () ] ]
  in
  Alcotest.check Helpers.value_testable "initialized global"
    (Ilp_sim.Value.Int 123) (Ilp_sim.Exec.run p).Ilp_sim.Exec.sink

let test_empty_block_skipped () =
  (* jumping to an empty block falls through to the next *)
  let empty = Label.of_string "empty" in
  let after = Label.of_string "after" in
  let p =
    Program.make
      ~globals:[ { Program.gname = "__sink"; words = 1; init = Program.Zero } ]
      ~functions:
        [ Func.make ~name:"main" ~frame_size:0 ~n_params:0
            [ Block.make (Label.of_string "main") [ Builder.jmp empty ];
              Block.make empty [];
              Block.make after
                [ Builder.li (r 9) 5;
                  Builder.li (r 8) sink_addr;
                  Builder.st ~value:(r 9) ~base:(r 8) ~offset:0 ();
                  Builder.halt () ] ]
        ]
  in
  Alcotest.check Helpers.value_testable "empty block fallthrough"
    (Ilp_sim.Value.Int 5) (Ilp_sim.Exec.run p).Ilp_sim.Exec.sink

(* --- virtual registers in per-call frames ------------------------------ *)

let has_virtual (p : Program.t) =
  List.exists
    (fun (f : Func.t) ->
      List.exists
        (fun (b : Block.t) ->
          List.exists
            (fun i ->
              List.exists Reg.is_virtual (Instr.defs i @ Instr.uses i))
            b.Block.instrs)
        f.Func.blocks)
    p.Program.functions

let snapshot ~level ~pass source =
  let found = ref None in
  let on_pass name _stage p = if String.equal name pass then found := Some p in
  ignore
    (Ilp_core.Ilp.compile_unscheduled ~on_pass ~level
       Ilp_machine.Presets.base source);
  match !found with
  | Some p -> p
  | None -> Alcotest.failf "no %s snapshot" pass

(* stanford and ccom recurse, so a virtual register live across a call
   must come back with its caller's value: each activation needs its own
   frame.  Run the codegen output and the last virtual snapshot of an O4
   compile as they are, without temp allocation. *)
let test_recursive_virtual () =
  List.iter
    (fun name ->
      let w =
        match Ilp_workloads.Registry.find name with
        | Some w -> w
        | None -> Alcotest.failf "no workload %s" name
      in
      List.iter
        (fun (level, pass) ->
          let p = snapshot ~level ~pass w.Ilp_workloads.Workload.source in
          let what = Printf.sprintf "%s %s" name pass in
          Alcotest.(check bool) (what ^ " has virtual registers") true
            (has_virtual p);
          let sink = (Ilp_sim.Exec.run p).Ilp_sim.Exec.sink in
          match (w.Ilp_workloads.Workload.expected_sink, sink) with
          | Some (Ilp_workloads.Workload.Exp_int e), Ilp_sim.Value.Int g ->
              Alcotest.(check int) what e g
          | Some (Ilp_workloads.Workload.Exp_float e), Ilp_sim.Value.Float g
            ->
              Helpers.check_float_rel ~tol:1e-9 what e g
          | _ -> Alcotest.failf "%s: no comparable checksum" what)
        [ (Ilp_core.Ilp.O0, "codegen"); (Ilp_core.Ilp.O4, "coalesce") ])
    [ "stanford"; "ccom" ]

(* Observers see the program's own instructions even though the loop
   executes renamed copies. *)
let test_virtual_observers () =
  let v = Reg.virt () and w = Reg.virt () in
  let done_ = Label.of_string "done" in
  let instrs =
    [ Builder.li v 6;
      Builder.add w v v;
      Builder.li (r 8) sink_addr;
      Builder.st ~value:w ~base:(r 8) ~offset:0 ();
      Builder.blt v w done_ ]
  in
  let halt = Builder.halt () in
  let seen = ref [] and stored = ref [] and branched = ref [] in
  let outcome =
    Ilp_sim.Exec.run
      ~observer:(fun i _ -> seen := i :: !seen)
      ~on_store:(fun i _ _ -> stored := i :: !stored)
      ~on_branch:(fun i taken -> branched := (i, taken) :: !branched)
      (Program.make
         ~globals:
           [ { Program.gname = "__sink"; words = 1; init = Program.Zero } ]
         ~functions:
           [ Func.make ~name:"main" ~frame_size:0 ~n_params:0
               [ Block.make (Label.of_string "main") instrs;
                 Block.make done_ [ halt ] ] ])
  in
  Alcotest.check Helpers.value_testable "virtual sum" (Ilp_sim.Value.Int 12)
    outcome.Ilp_sim.Exec.sink;
  Alcotest.(check bool) "observer saw the program's instructions" true
    (List.equal ( == ) (instrs @ [ halt ]) (List.rev !seen));
  Alcotest.(check bool) "on_store saw the program's store" true
    (match !stored with [ i ] -> i == List.nth instrs 3 | _ -> false);
  Alcotest.(check bool) "on_branch saw the program's branch, taken" true
    (match !branched with
    | [ (i, true) ] -> i == List.nth instrs 4
    | _ -> false)

(* --- paged memory ------------------------------------------------------ *)

let with_words n = { Ilp_sim.Exec.default_options with mem_words = n }

let store_at addr value =
  Instr.make Opcode.St ~srcs:[ Instr.Oreg value; Instr.Oimm addr ]

let load_from dst addr = Instr.make Opcode.Ld ~dst ~srcs:[ Instr.Oimm addr ]

let test_untouched_reads_zero () =
  let outcome = run_main [ load_from (r 9) 70_000 ] in
  Alcotest.check Helpers.value_testable "loaded untouched word"
    (Ilp_sim.Value.Int 0) outcome.Ilp_sim.Exec.regs.(9);
  Alcotest.check Helpers.value_testable "final untouched word"
    (Ilp_sim.Value.Int 0)
    (Ilp_sim.Exec.load outcome.Ilp_sim.Exec.memory 123_456)

let test_edge_words_roundtrip () =
  (* a size that is not a whole number of pages *)
  let size = (1 lsl 14) + 100 in
  let last = size - 1 in
  let outcome =
    run_main ~options:(with_words size)
      [ Builder.li (r 1) 11;
        Builder.fli (r 2) 2.5;
        store_at 0 (r 1);
        store_at last (r 2);
        load_from (r 9) 0;
        load_from (r 10) last ]
  in
  let regs = outcome.Ilp_sim.Exec.regs and mem = outcome.Ilp_sim.Exec.memory in
  Alcotest.check Helpers.value_testable "first word loads"
    (Ilp_sim.Value.Int 11) regs.(9);
  Alcotest.check Helpers.value_testable "last word loads"
    (Ilp_sim.Value.Float 2.5) regs.(10);
  Alcotest.check Helpers.value_testable "first word kept"
    (Ilp_sim.Value.Int 11) (Ilp_sim.Exec.load mem 0);
  Alcotest.check Helpers.value_testable "last word kept"
    (Ilp_sim.Value.Float 2.5) (Ilp_sim.Exec.load mem last);
  Alcotest.check_raises "load past the end"
    (Invalid_argument "Exec.load: out of range") (fun () ->
      ignore (Ilp_sim.Exec.load mem size))

let test_out_of_range_faults () =
  let size = 1 lsl 14 in
  let expect name bad addr =
    Alcotest.check_raises name
      (Ilp_sim.Exec.Fault
         (Printf.sprintf "memory access out of range: %d (%s)" addr
            (Instr.to_string bad)))
      (fun () ->
        ignore (run_main ~options:(with_words size) [ Builder.li (r 1) 1; bad ]))
  in
  expect "load one past the end" (load_from (r 9) size) size;
  expect "store one past the end" (store_at size (r 1)) size;
  expect "load below zero" (Builder.ld (r 9) ~base:(r 1) ~offset:(-2)) (-1);
  expect "store below zero"
    (Builder.st ~value:(r 1) ~base:(r 1) ~offset:(-3) ())
    (-2)

let test_first_difference () =
  let memory_of instrs = (run_main instrs).Ilp_sim.Exec.memory in
  let nothing = memory_of [] in
  let zero_written = memory_of [ Builder.li (r 1) 0; store_at 5000 (r 1) ] in
  let diff = Ilp_sim.Exec.first_difference in
  let check name expected got = Alcotest.(check (option int)) name expected got in
  check "same memory" None (diff nothing nothing);
  check "Int 0 into an untouched page" None (diff zero_written nothing);
  check "untouched page against Int 0" None (diff nothing zero_written);
  let one_word = memory_of [ Builder.li (r 1) 7; store_at 5003 (r 1) ] in
  check "one word" (Some 5003) (diff zero_written one_word);
  check "one word, other side" (Some 5003) (diff nothing one_word);
  let two_words =
    memory_of
      [ Builder.li (r 1) 7; store_at 5003 (r 1); store_at 5001 (r 1) ]
  in
  check "lowest address" (Some 5001) (diff one_word two_words);
  let float_zero = memory_of [ Builder.fli (r 1) 0.0; store_at 9000 (r 1) ] in
  check "Float 0.0 is not Int 0" (Some 9000) (diff nothing float_zero);
  let high = memory_of [ Builder.li (r 1) 3; store_at ((1 lsl 20) - 1) (r 1) ] in
  check "last word" (Some ((1 lsl 20) - 1)) (diff nothing high)

(* --- an empty entry block ------------------------------------------------ *)

(* [main]'s entry block is empty: control falls through it like any
   other empty block, in a direct run and in a captured trace. *)
let test_empty_entry_block () =
  let p =
    Program.make
      ~globals:[ { Program.gname = "__sink"; words = 1; init = Program.Zero } ]
      ~functions:
        [ Func.make ~name:"main" ~frame_size:0 ~n_params:0
            [ Block.make (Label.of_string "main") [];
              Block.make (Label.of_string "body")
                [ Builder.li (r 9) 5;
                  Builder.li (r 8) sink_addr;
                  Builder.st ~value:(r 9) ~base:(r 8) ~offset:0 ();
                  Builder.halt () ] ]
        ]
  in
  Alcotest.(check (list string)) "the program validates" []
    (List.map (Fmt.to_to_string Validate.pp_issue) (Validate.check p));
  let outcome = Ilp_sim.Exec.run p in
  Alcotest.check Helpers.value_testable "run reaches the sink"
    (Ilp_sim.Value.Int 5) outcome.Ilp_sim.Exec.sink;
  Alcotest.(check int) "run executes the body" 4
    outcome.Ilp_sim.Exec.dyn_instrs;
  let trace = Ilp_sim.Trace_buffer.capture p in
  Alcotest.check Helpers.value_testable "capture reaches the sink"
    (Ilp_sim.Value.Int 5) (Ilp_sim.Trace_buffer.sink trace);
  let config = Ilp_machine.Presets.superscalar 2 in
  let replayed = Ilp_sim.Timing.create config in
  Ilp_sim.Trace_buffer.replay trace p replayed;
  Ilp_sim.Timing.finish replayed;
  Alcotest.(check int) "replay issues the body" 4
    (Ilp_sim.Timing.instrs replayed);
  Alcotest.(check int) "replay times the body as a direct run"
    (Helpers.reference_measure config p).Ilp_sim.Metrics.minor_cycles
    (Ilp_sim.Timing.minor_cycles replayed)

(* --- the pre-decoded core against the reference interpreter ------------- *)

module Exec = Ilp_sim.Exec

(* What the hooks of one run saw, newest first. *)
type streams = {
  mutable observed : (int * int) list;  (** instruction id, address *)
  mutable branched : (int * bool) list;
  mutable stored : (int * int * Ilp_sim.Value.t) list;
}

let watch () = { observed = []; branched = []; stored = [] }
let observe s (i : Instr.t) addr = s.observed <- (i.Instr.id, addr) :: s.observed
let branch s (i : Instr.t) taken = s.branched <- (i.Instr.id, taken) :: s.branched

let store s (i : Instr.t) addr v =
  s.stored <- (i.Instr.id, addr, v) :: s.stored

let outcome_of f =
  match f () with
  | o -> Ok o
  | exception Exec.Fault msg -> Error ("fault: " ^ msg)
  | exception Exec_ref.Fault msg -> Error ("fault: " ^ msg)
  | exception e -> Error (Printexc.to_string e)

(* Where the two interpreters disagree on [p], or [None].  Streams and
   values compare structurally ([compare], so a NaN equals itself). *)
let disagreement ~options p =
  let rs = watch () and ns = watch () in
  let reference =
    outcome_of (fun () ->
        Exec_ref.run ~options ~observer:(observe rs) ~on_branch:(branch rs)
          ~on_store:(store rs) p)
  in
  let got =
    outcome_of (fun () ->
        Exec.run ~options ~observer:(observe ns) ~on_branch:(branch ns)
          ~on_store:(store ns) p)
  in
  let same a b = compare a b = 0 in
  if not (same rs.observed ns.observed) then Some "observer streams differ"
  else if not (same rs.branched ns.branched) then Some "on_branch streams differ"
  else if not (same rs.stored ns.stored) then Some "store streams differ"
  else
    match (reference, got) with
    | Error a, Error b -> if String.equal a b then None else Some (a ^ " vs " ^ b)
    | Error a, Ok _ -> Some ("only the reference failed: " ^ a)
    | Ok _, Error b -> Some ("only the core failed: " ^ b)
    | Ok r, Ok n ->
        let mismatch =
          List.find_opt
            (fun (_, ok) -> not ok)
            [ ("sink", same r.Exec_ref.sink n.Exec.sink);
              ("dynamic count", r.Exec_ref.dyn_instrs = n.Exec.dyn_instrs);
              ("class counts", r.Exec_ref.class_counts = n.Exec.class_counts);
              ("per_function", r.Exec_ref.per_function = n.Exec.per_function);
              ("final registers", same r.Exec_ref.regs n.Exec.regs);
              ( "final memory",
                List.for_all
                  (fun (base, page) ->
                    let ok = ref true in
                    Array.iteri
                      (fun j v ->
                        if base + j < options.Exec.mem_words then
                          ok := !ok && same v (Exec.load n.Exec.memory (base + j)))
                      page;
                    !ok)
                  (Exec_ref.touched_pages r.Exec_ref.memory) ) ]
        in
        Option.map (fun (what, _) -> what ^ " differ") mismatch

(* The snapshots a program passes through: every [on_pass] program of an
   O0 and an O4 compile (codegen and each pass, virtual or allocated),
   and the final binaries. *)
let snapshots config source =
  let acc = ref [] in
  let on_pass _ _ p = acc := p :: !acc in
  List.iter
    (fun level ->
      let binary = Ilp_core.Ilp.compile ~on_pass ~level config source in
      acc := binary :: !acc)
    [ Ilp_core.Ilp.O0; Ilp_core.Ilp.O4 ];
  List.rev !acc

let oracle_options = { Exec.default_options with mem_words = 1 lsl 14 }

let fuzz_configs =
  [ Ilp_machine.Presets.base;
    Ilp_machine.Config.make "ss8-6temps" ~issue_width:8 ~temp_regs:6 ]

(* Every snapshot runs to the end, and again on half its step budget so
   the budget fault, and everything observed before it, must agree. *)
let prop_matches_reference =
  QCheck2.Test.make ~count:40
    ~name:"random programs: Exec = reference interpreter on every snapshot"
    ~print:(fun s -> s)
    Gen_minimod.any_mode_program
    (fun source ->
      List.for_all
        (fun config ->
          List.for_all
            (fun p ->
              let check options =
                match disagreement ~options p with
                | None -> true
                | Some what ->
                    QCheck2.Test.fail_reportf "%s on %s (budget %d)" what
                      config.Ilp_machine.Config.name options.Exec.max_steps
              in
              check oracle_options
              &&
              let dyn = (Exec.run ~options:oracle_options p).Exec.dyn_instrs in
              check { oracle_options with Exec.max_steps = dyn / 2 })
            (snapshots config source))
        fuzz_configs)

let tests =
  [ Alcotest.test_case "integer arithmetic" `Quick test_int_arith;
    Alcotest.test_case "logic and shifts" `Quick test_int_logic_shift;
    Alcotest.test_case "comparisons" `Quick test_comparisons;
    Alcotest.test_case "floating point" `Quick test_float_ops;
    Alcotest.test_case "memory roundtrip" `Quick test_memory_roundtrip;
    Alcotest.test_case "absolute addressing" `Quick test_absolute_addressing;
    Alcotest.test_case "branches" `Quick test_branches;
    Alcotest.test_case "call stack" `Quick test_call_stack;
    Alcotest.test_case "faults" `Quick test_faults;
    Alcotest.test_case "step guard" `Quick test_step_guard;
    Alcotest.test_case "class counts" `Quick test_class_counts;
    Alcotest.test_case "global initialization" `Quick test_global_init;
    Alcotest.test_case "empty blocks skipped" `Quick test_empty_block_skipped;
    Alcotest.test_case "recursive virtual snapshots reach their sink" `Quick
      test_recursive_virtual;
    Alcotest.test_case "observers see the program's own instructions" `Quick
      test_virtual_observers;
    Alcotest.test_case "untouched memory reads Int 0" `Quick
      test_untouched_reads_zero;
    Alcotest.test_case "first and last words round-trip" `Quick
      test_edge_words_roundtrip;
    Alcotest.test_case "out-of-range access faults" `Quick
      test_out_of_range_faults;
    Alcotest.test_case "first_difference" `Quick test_first_difference;
    Alcotest.test_case "empty entry block falls through" `Quick
      test_empty_entry_block;
    QCheck_alcotest.to_alcotest prop_matches_reference ]
