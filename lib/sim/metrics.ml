(* Measurement helpers shared by the experiment harness.  Every
   measurement replays a captured trace (Trace_buffer). *)

open Ilp_machine

type run = {
  machine : string;
  dyn_instrs : int;
  minor_cycles : int;
  base_cycles : float;
  speedup : float;  (** instructions per base cycle = ILP exploited *)
  stall_cycles : int;
  issue_histogram : int array;
  cache_accesses : int;
  cache_misses : int;
  class_counts : int array;
  sink : Value.t;
}

(* Time a bound binary against [config] by replaying its flat trace. *)
let measure_prepared ?cache (config : Config.t) pr =
  let timing = Timing.create ?cache config in
  Trace_buffer.run pr timing;
  Timing.finish timing;
  let sm = Trace_buffer.summary pr in
  let count f = match cache with Some c -> f c | None -> 0 in
  { machine = config.Config.name;
    dyn_instrs = sm.Trace_buffer.s_dyn_instrs;
    minor_cycles = Timing.minor_cycles timing;
    base_cycles = Timing.base_cycles timing;
    speedup = Timing.speedup timing;
    stall_cycles = timing.Timing.stall_cycles;
    issue_histogram = timing.Timing.issue_histogram;
    cache_accesses = count Cache.accesses;
    cache_misses = count Cache.misses;
    class_counts = sm.Trace_buffer.s_class_counts;
    sink = sm.Trace_buffer.s_sink;
  }

(* Time [program] against [config] by replaying a trace captured from a
   schedule-sibling of it (see Trace_buffer). *)
let measure_replay ?cache (config : Config.t) trace program =
  measure_prepared ?cache config (Trace_buffer.bind trace program)

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
