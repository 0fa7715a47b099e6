(* Random-program fuzzing of the whole compilation pipeline.

   Each iteration generates a random well-typed MiniMod program
   (Ilp_lang.Gen_prog) and runs the differential oracle over it at every
   optimization level on several machine configurations chosen to
   stress different parts of the compiler: the unconstrained base
   machine, a superscalar with single-copy functional units (unit
   booking in the scheduler), and a machine with a tiny temp pool
   (spilling in temp allocation).  Random programs are all-integer, so
   a careful-unroll pass is also exact and is checked at one factor.

   Iterations are independent and fan out over a Pool: item [k] derives
   its RNG deterministically from [(seed, k)], results land at their
   item index, and the pool re-raises the lowest-index failure — so a
   fuzz run is reproducible and reports the same counterexample at any
   [--jobs].  A failing program is shrunk (in the worker, preserving
   that determinism) to a local minimum that still fails before being
   reported. *)

open Ilp_machine
module Gen_prog = Ilp_lang.Gen_prog

type failure = {
  index : int;  (** which iteration failed *)
  seed : int;
  config_name : string;
  error : string;  (** what the oracle or a checker reported *)
  source : string;  (** shrunk MiniMod source that still fails *)
}

exception Failed of failure

let configs () =
  [
    Presets.base;
    Presets.superscalar_with_class_conflicts 4;
    Config.make "ss8-6temps" ~issue_width:8 ~temp_regs:6;
  ]

(* Random programs are all-integer, so careful unrolling is exact;
   every corpus checks one classic careful factor plus one bound-aware
   spec (full unroll / peeling for the known-trip-count loops the
   generator emits). *)
let default_unroll_specs =
  [
    { Ilp.mode = Ilp_lang.Unroll.Careful; factor = 3; bounds = false };
    { Ilp.mode = Ilp_lang.Unroll.Careful; factor = 4; bounds = true };
  ]

(* The unroll-heavy corpus generates boundary trip counts (0, 1,
   factor±1), down-counting loops and index-mutating bodies; check it
   across both modes, more factors, and both bound settings. *)
let unroll_heavy_specs =
  [
    { Ilp.mode = Ilp_lang.Unroll.Naive; factor = 2; bounds = true };
    { Ilp.mode = Ilp_lang.Unroll.Naive; factor = 3; bounds = false };
    { Ilp.mode = Ilp_lang.Unroll.Careful; factor = 4; bounds = true };
    { Ilp.mode = Ilp_lang.Unroll.Careful; factor = 8; bounds = true };
  ]

(* Random programs use a few dozen globals and tiny arrays.  Memory is
   paged, so each execution pays for the pages it touches and the final
   memory comparison skips the rest; the 16K-word bound only sizes each
   run's page table (64 entries instead of 4096). *)
let exec_options =
  { Ilp_sim.Exec.default_options with mem_words = 1 lsl 14 }

(* Why did checking [source] fail, as [Some (config_name, message)] —
   [None] when every check passes.  Any exception out of the pipeline
   counts as a failure: oracle mismatches and named pass failures, but
   also faults, validation errors or crashes a shrunk program might
   shift into. *)
(* Every iteration also checks the alias-disambiguated schedule
   ([~memdep:true]): Check_sched re-justifies each pruned edge
   statically and Diffcheck compares its per-address store streams
   against the unscheduled program, so a wrong [No_alias] verdict
   surfaces on the general corpus as well as the adversarial one. *)
let failure_of ~configs ~unroll_specs source =
  let explain = function
    | Diffcheck.Mismatch { stage; what } ->
        Printf.sprintf "differential mismatch after %s: %s" stage what
    | Ilp.Pass_failed { pass; issue } ->
        Printf.sprintf "pass %s: %s" pass issue
    | e -> Printexc.to_string e
  in
  List.find_map
    (fun config ->
      match
        Diffcheck.check_workload ~options:exec_options
          ~granularity:`Every_pass ~memdep:true ~levels:Ilp.all_levels
          ~unroll_specs config source
      with
      | () -> None
      | exception e -> Some (config.Config.name, explain e))
    configs

let check_one ~mode ~configs ~unroll_specs ~seed index =
  let st = Random.State.make [| 0x1197; seed; index |] in
  let prog = Gen_prog.generate ~mode st in
  let fails p =
    Option.is_some
      (failure_of ~configs ~unroll_specs (Gen_prog.render p))
  in
  match failure_of ~configs ~unroll_specs (Gen_prog.render prog) with
  | None -> ()
  | Some _ ->
      let shrunk = Gen_prog.shrink ~still_fails:fails prog in
      let source = Gen_prog.render shrunk in
      let config_name, error =
        match failure_of ~configs ~unroll_specs source with
        | Some f -> f
        | None -> assert false (* [shrink] only returns failing programs *)
      in
      raise (Failed { index; seed; config_name; error; source })

let run ?(jobs = 1) ?(alias_heavy = false) ?(unroll_heavy = false)
    ?(range_heavy = false) ~count ~seed () =
  let mode =
    if unroll_heavy then `Unroll_heavy
    else if alias_heavy then `Alias_heavy
    else if range_heavy then `Range_heavy
    else `Default
  in
  let unroll_specs =
    if unroll_heavy then unroll_heavy_specs else default_unroll_specs
  in
  let items = Array.init count (fun k -> k) in
  let check = check_one ~mode ~configs:(configs ()) ~unroll_specs ~seed in
  if jobs <= 1 then Array.iter check items
  else
    Ilp_par.Pool.with_pool ~jobs (fun pool ->
        ignore (Ilp_par.Pool.map pool check items))
