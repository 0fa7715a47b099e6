(* Top-level compilation and measurement pipeline: the paper's
   "parameterizable code reorganization and simulation system".

   A MiniMod source program is compiled for a machine configuration at
   one of five cumulative optimization levels (the x-axis of Figure 4-8):

   - O0: no optimization at all (every variable in memory, original
     instruction order);
   - O1: + pipeline instruction scheduling;
   - O2: + intra-block optimizations (constant folding, local CSE and
     copy propagation, dead-code elimination);
   - O3: + global optimizations (loop-invariant code motion,
     dominator-based global CSE);
   - O4: + global register allocation (home promotion).

   Expression-temporary allocation always runs (the code could not
   execute otherwise); the temp-pool size comes from the machine
   configuration, as in Section 3.

   The level's pass sequence is materialised as an explicit list of
   named passes ([pipeline]) so that callers can observe the program
   after every stage ([?on_pass]) and so that [?check] can validate the
   IR between passes and name the offending pass when one breaks a
   well-formedness invariant.  The pass order is exactly the historical
   one — refactoring the pipeline must not change a single emitted
   instruction, or the figure reproductions would drift. *)

open Ilp_ir
open Ilp_lang
open Ilp_machine

type opt_level = O0 | O1 | O2 | O3 | O4

let opt_level_name = function
  | O0 -> "none"
  | O1 -> "sched"
  | O2 -> "sched+local"
  | O3 -> "sched+local+global"
  | O4 -> "sched+local+global+regalloc"

let all_levels = [ O0; O1; O2; O3; O4 ]

let level_rank = function O0 -> 0 | O1 -> 1 | O2 -> 2 | O3 -> 3 | O4 -> 4

let at_least level threshold = level_rank level >= level_rank threshold

type unroll_spec = { mode : Unroll.mode; factor : int; bounds : bool }

type pass = {
  pass_name : string;
  pass_stage : Validate.stage;
  pass_run : Program.t -> Program.t;
  pass_verify :
    (before:Program.t ->
    after:Program.t ->
    Ilp_analysis.Diagnostics.t list)
    option;
}

exception Pass_failed of { pass : string; issue : string }

(* Parse and type check MiniMod source. *)
let frontend source = Semant.compile_source source

let local_cleanup p =
  p |> Ilp_opt.Const_fold.run |> Ilp_opt.Local_cse.run |> Ilp_opt.Dce.run

(* The O2 cleanup group as named passes; [prefix] distinguishes the
   re-runs that mop up after the global passes. *)
let cleanup_passes prefix =
  let pass name run =
    {
      pass_name = prefix ^ name;
      pass_stage = `Virtual;
      pass_run = run;
      pass_verify = None;
    }
  in
  [
    pass "const_fold" Ilp_opt.Const_fold.run;
    pass "local_cse" Ilp_opt.Local_cse.run;
    pass "dce" Ilp_opt.Dce.run;
  ]

(* The post-codegen pass sequence for [level], in execution order.  The
   concatenation reproduces the historical pipeline exactly:
   [local_cleanup] after codegen (O2+), LICM + global CSE + cleanup
   (O3+), home promotion + cleanup + coalescing (O4), then mandatory
   expression-temporary allocation. *)
let pipeline ~level (config : Config.t) : pass list =
  let vpass name run =
    { pass_name = name; pass_stage = `Virtual; pass_run = run; pass_verify = None }
  in
  List.concat
    [
      (if at_least level O2 then cleanup_passes "" else []);
      (if at_least level O3 then
         [
           vpass "licm" Ilp_opt.Licm.run;
           vpass "global_cse" Ilp_opt.Global_cse.run;
         ]
         @ cleanup_passes "post_global."
       else []);
      (if at_least level O4 then
         [
           {
             pass_name = "global_alloc";
             pass_stage = `Virtual;
             pass_run = Ilp_regalloc.Global_alloc.run config;
             pass_verify =
               Some
                 (fun ~before ~after ->
                   Ilp_regalloc.Regalloc_verify.check_global_alloc config
                     ~before ~after);
           };
         ]
         @ cleanup_passes "post_alloc."
         @ [ vpass "coalesce" Ilp_opt.Coalesce.run ]
       else []);
      [
        {
          pass_name = "temp_alloc";
          pass_stage = `Allocated;
          pass_run = Ilp_regalloc.Temp_alloc.run config;
          pass_verify =
            Some
              (fun ~before ~after ->
                Ilp_regalloc.Regalloc_verify.check_temp_alloc_program config
                  ~before ~after);
        };
      ];
    ]

(* Well-formedness plus the error-severity static lint (definite
   assignment — a use some path reaches unassigned would read an
   arbitrary stale value) after each pass; at [`Allocated], physical
   register indices must additionally fit the configured file. *)
let validate_after ?max_reg ~pass ~stage p =
  (match Validate.check ~stage ?max_reg p with
  | [] -> ()
  | issue :: _ ->
      raise
        (Pass_failed { pass; issue = Fmt.str "%a" Validate.pp_issue issue }));
  match Ilp_analysis.Lint.errors_only p with
  | [] -> ()
  | d :: _ ->
      raise (Pass_failed { pass; issue = Ilp_analysis.Diagnostics.to_string d })

let run_pass ?(check = false) ?on_pass ~config p pass =
  let after = pass.pass_run p in
  if check then begin
    validate_after
      ~max_reg:(Ilp_regalloc.Regfile.file_size config)
      ~pass:pass.pass_name ~stage:pass.pass_stage after;
    match pass.pass_verify with
    | None -> ()
    | Some verify -> (
        match verify ~before:p ~after with
        | [] -> ()
        | d :: _ ->
            raise
              (Pass_failed
                 {
                   pass = pass.pass_name;
                   issue = Ilp_analysis.Diagnostics.to_string d;
                 }))
  end;
  (match on_pass with
  | Some f -> f pass.pass_name pass.pass_stage after
  | None -> ());
  after

(* Compile [source] for [config] at [level], stopping just short of the
   machine-specific scheduling pass.  The result depends on [config]
   only through the register split (temp_regs/home_regs), so configs
   that agree on those share one pre-scheduled program — and, because
   the instructions keep their identities across [schedule], one
   captured trace (see Trace_buffer). *)
let compile_unscheduled ?unroll ?(check = false) ?on_pass ~level
    (config : Config.t) source =
  let tast = frontend source in
  let tast =
    match unroll with
    | Some { mode; factor; bounds } -> Unroll.program ~bounds mode factor tast
    | None -> tast
  in
  let p = Codegen.gen_program tast in
  if check then validate_after ~pass:"codegen" ~stage:`Virtual p;
  (match on_pass with Some f -> f "codegen" `Virtual p | None -> ());
  List.fold_left (run_pass ~check ?on_pass ~config) p (pipeline ~level config)

(* The final machine-specific pass: per-block list scheduling (from O1).
   Under [~check] the scheduled program must be a DDG-respecting
   permutation of its input (Check_sched) and still well-formed; with
   [~memdep] the scheduler prunes memory edges the dependence analysis
   proves apart, and the checker re-justifies each removed edge from
   independently recomputed facts. *)
let schedule ?(check = false) ?(memdep = false) ?ranges ?on_pass ~level
    (config : Config.t) p =
  if at_least level O1 then begin
    let scheduled = Ilp_sched.List_sched.run ~memdep ?ranges config p in
    if check then begin
      (try
         Ilp_sched.Check_sched.check_program ~memdep ?ranges config
           ~original:p ~scheduled
       with Ilp_sched.Check_sched.Illegal msg ->
         raise (Pass_failed { pass = "list_sched"; issue = msg }));
      validate_after
        ~max_reg:(Ilp_regalloc.Regfile.file_size config)
        ~pass:"list_sched" ~stage:`Allocated scheduled
    end;
    (match on_pass with
    | Some f -> f "list_sched" `Allocated scheduled
    | None -> ());
    scheduled
  end
  else p

(* Compile [source] for [config] at [level]. *)
let compile ?unroll ?check ?memdep ?ranges ?on_pass ~level (config : Config.t)
    source =
  schedule ?check ?memdep ?ranges ?on_pass ~level config
    (compile_unscheduled ?unroll ?check ?on_pass ~level config source)

(* Compile, capture and replay in one step. *)
let measure ?unroll ?(level = O4) ?memdep ?cache (config : Config.t) source =
  let program = compile ?unroll ?memdep ~level config source in
  Ilp_sim.Metrics.measure_replay ?cache config
    (Ilp_sim.Trace_buffer.capture program)
    program
