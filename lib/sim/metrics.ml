(* Measurement helpers shared by the experiment harness. *)

open Ilp_ir
open Ilp_machine

type run = {
  machine : string;
  dyn_instrs : int;
  minor_cycles : int;
  base_cycles : float;
  speedup : float;  (** instructions per base cycle = ILP exploited *)
  stall_cycles : int;
  class_counts : int array;
  sink : Value.t;
}

let registers_of = function
  | Some o -> o.Exec.registers
  | None -> Exec.default_options.Exec.registers

(* Execute [program] once, timed against [config].  The program must be
   fully register-allocated and scheduled for [config] beforehand. *)
let measure ?cache ?options (config : Config.t) program =
  let timing = Timing.create ?cache ~registers:(registers_of options) config in
  let outcome = Exec.run ?options ~observer:(Timing.observer timing) program in
  Timing.finish timing;
  { machine = config.Config.name;
    dyn_instrs = outcome.Exec.dyn_instrs;
    minor_cycles = Timing.minor_cycles timing;
    base_cycles = Timing.base_cycles timing;
    speedup = Timing.speedup timing;
    stall_cycles = timing.Timing.stall_cycles;
    class_counts = outcome.Exec.class_counts;
    sink = outcome.Exec.sink;
  }

(* Time a bound binary against [config] by replaying its flat trace. *)
let measure_prepared ?cache ?options (config : Config.t) pr =
  let timing = Timing.create ?cache ~registers:(registers_of options) config in
  Trace_buffer.run pr timing;
  Timing.finish timing;
  let sm = Trace_buffer.summary pr in
  { machine = config.Config.name;
    dyn_instrs = sm.Trace_buffer.s_dyn_instrs;
    minor_cycles = Timing.minor_cycles timing;
    base_cycles = Timing.base_cycles timing;
    speedup = Timing.speedup timing;
    stall_cycles = timing.Timing.stall_cycles;
    class_counts = sm.Trace_buffer.s_class_counts;
    sink = sm.Trace_buffer.s_sink;
  }

(* Time [program] against [config] by replaying a captured trace instead
   of re-interpreting; bit-identical to [measure] of the same program
   (see Trace_buffer). *)
let measure_replay ?cache ?options (config : Config.t) trace program =
  measure_prepared ?cache ?options config (Trace_buffer.bind trace program)

(* Dynamic instruction-class frequencies of a run, as fractions. *)
let class_frequencies run : Superpipelining.frequencies =
  let total = float_of_int (Array.fold_left ( + ) 0 run.class_counts) in
  if total = 0.0 then Array.make Iclass.count 0.0
  else Array.map (fun c -> float_of_int c /. total) run.class_counts

let harmonic_mean = function
  | [] -> invalid_arg "Metrics.harmonic_mean: empty list"
  | xs ->
      let n = float_of_int (List.length xs) in
      let denom = List.fold_left (fun acc x -> acc +. (1.0 /. x)) 0.0 xs in
      n /. denom

let geometric_mean = function
  | [] -> invalid_arg "Metrics.geometric_mean: empty list"
  | xs ->
      let n = float_of_int (List.length xs) in
      let sum = List.fold_left (fun acc x -> acc +. log x) 0.0 xs in
      exp (sum /. n)

let arithmetic_mean = function
  | [] -> invalid_arg "Metrics.arithmetic_mean: empty list"
  | xs ->
      List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let pp_run ppf r =
  Fmt.pf ppf "%-24s %10d instrs %12.1f base cycles  speedup %.3f" r.machine
    r.dyn_instrs r.base_cycles r.speedup
