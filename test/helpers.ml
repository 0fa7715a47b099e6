(* Shared helpers for the test suite. *)

open Ilp_machine

let check_float = Alcotest.(check (float 1e-9))

(* relative-tolerance float check for accumulated FP results *)
let check_float_rel ?(tol = 1e-6) msg expected actual =
  let denom = max (abs_float expected) 1.0 in
  if abs_float (expected -. actual) /. denom > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let value_testable =
  Alcotest.testable Ilp_sim.Value.pp Ilp_sim.Value.equal

(* Compile a MiniMod source and execute it on [config] (default: base),
   returning the outcome. *)
let run_source ?(config = Presets.base) ?(level = Ilp_core.Ilp.O4) ?unroll src
    =
  let program = Ilp_core.Ilp.compile ?unroll ~level config src in
  Ilp_sim.Exec.run program

let sink_of ?config ?level ?unroll src =
  (run_source ?config ?level ?unroll src).Ilp_sim.Exec.sink

(* Sink value must be identical (or within FP tolerance) at every
   optimization level; a very strong whole-compiler test. *)
let check_all_levels ?(tol = 0.0) name src =
  let sinks =
    List.map (fun level -> sink_of ~level src) Ilp_core.Ilp.all_levels
  in
  match sinks with
  | [] -> ()
  | first :: rest ->
      List.iteri
        (fun i s ->
          match (first, s) with
          | Ilp_sim.Value.Int a, Ilp_sim.Value.Int b ->
              if a <> b then
                Alcotest.failf "%s: level %d sink %d <> O0 sink %d" name
                  (i + 1) b a
          | Ilp_sim.Value.Float a, Ilp_sim.Value.Float b ->
              let denom = max (abs_float a) 1.0 in
              if abs_float (a -. b) /. denom > tol then
                Alcotest.failf "%s: level %d sink %g <> O0 sink %g" name
                  (i + 1) b a
          | _ -> Alcotest.failf "%s: sink type changed across levels" name)
        rest

let measure ?(config = Presets.base) ?(level = Ilp_core.Ilp.O4) ?unroll src =
  Ilp_core.Ilp.measure ?unroll ~level config src

(* --- the reference measurement ------------------------------------------ *)

(* Run [execute] with an observer that records every executed
   instruction for [Timing_ref]: its result and the dynamic stream.  Each
   static instruction is decoded once. *)
let observed_stream execute =
  let decoded = Hashtbl.create 1024 and stream = ref [] in
  let observer (i : Ilp_ir.Instr.t) addr =
    let d =
      match Hashtbl.find_opt decoded i.Ilp_ir.Instr.id with
      | Some d -> d
      | None ->
          let d = Timing_ref.of_instr i (-1) in
          Hashtbl.add decoded i.Ilp_ir.Instr.id d;
          d
    in
    stream := (if addr < 0 then d else { d with Timing_ref.addr }) :: !stream
  in
  let result = execute observer in
  (result, Array.of_list (List.rev !stream))

(* A fresh cache of the reference model's geometry, for [Timing]. *)
let fresh_cache (c : Timing_ref.cache) =
  Ilp_sim.Cache.create ~lines:c.Timing_ref.lines
    ~line_words:c.Timing_ref.line_words ~penalty:c.Timing_ref.penalty ()

(* [Exec.run] under [observer]: the run's instruction count, class mix
   and sink. *)
let exec_run observer p =
  let o = Ilp_sim.Exec.run ~observer p in
  (o.Ilp_sim.Exec.dyn_instrs, o.Ilp_sim.Exec.class_counts, o.Ilp_sim.Exec.sink)

(* A measurement by the reference models: an executor ([exec_run] by
   default) drives an observer over [program], and [Timing_ref] steps
   the recorded stream one minor cycle at a time on [config], behind a
   fresh [cache] when one is given.  Shares no code with trace capture,
   binding or [Timing]. *)
let reference_measure ?cache ?(execute = exec_run) (config : Config.t) program
    =
  let (dyn, class_counts, sink), stream =
    observed_stream (fun observer -> execute observer program)
  in
  let r =
    Timing_ref.run ?cache
      ~registers:Ilp_sim.Exec.default_options.Ilp_sim.Exec.registers config
      stream
  in
  let base_cycles =
    float_of_int r.Timing_ref.minor_cycles
    /. float_of_int config.Config.pipe_degree
  in
  { Ilp_sim.Metrics.machine = config.Config.name;
    dyn_instrs = dyn;
    minor_cycles = r.Timing_ref.minor_cycles;
    base_cycles;
    speedup =
      (if r.Timing_ref.instrs = 0 then 1.0
       else float_of_int r.Timing_ref.instrs /. base_cycles);
    stall_cycles = r.Timing_ref.stall_cycles;
    issue_histogram = r.Timing_ref.histogram;
    cache_accesses = r.Timing_ref.accesses;
    cache_misses = r.Timing_ref.misses;
    class_counts;
    sink;
  }

(* The first field in which [got] differs from the reference run
   [want], if any. *)
let run_difference (want : Ilp_sim.Metrics.run) (got : Ilp_sim.Metrics.run) =
  let module M = Ilp_sim.Metrics in
  let field name equal show f =
    if equal (f want) (f got) then None
    else
      Some
        (Printf.sprintf "%s: %s, reference %s" name (show (f got))
           (show (f want)))
  in
  let int = string_of_int and float = Printf.sprintf "%h" in
  let ints a = String.concat "," (Array.to_list (Array.map int a)) in
  List.find_map Fun.id
    [ field "machine" String.equal Fun.id (fun r -> r.M.machine);
      field "dyn_instrs" Int.equal int (fun r -> r.M.dyn_instrs);
      field "minor_cycles" Int.equal int (fun r -> r.M.minor_cycles);
      field "base_cycles" Float.equal float (fun r -> r.M.base_cycles);
      field "speedup" Float.equal float (fun r -> r.M.speedup);
      field "stall_cycles" Int.equal int (fun r -> r.M.stall_cycles);
      field "issue_histogram" ( = ) ints (fun r -> r.M.issue_histogram);
      field "cache_accesses" Int.equal int (fun r -> r.M.cache_accesses);
      field "cache_misses" Int.equal int (fun r -> r.M.cache_misses);
      field "class_counts" ( = ) ints (fun r -> r.M.class_counts);
      field "sink" Ilp_sim.Value.equal Ilp_sim.Value.to_string (fun r ->
          r.M.sink) ]

let check_run name want got =
  match run_difference want got with
  | None -> ()
  | Some d -> Alcotest.failf "%s: %s" name d
