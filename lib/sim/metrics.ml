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

let finish_run (config : Config.t) pr timing =
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

(* Time a bound binary against [config] by replaying its flat trace. *)
let measure_prepared ?cache ?options (config : Config.t) pr =
  let timing = Timing.create ?cache ~registers:(registers_of options) config in
  Trace_buffer.replay_steps pr (Trace_buffer.start pr) timing
    ~max_steps:max_int;
  finish_run config pr timing

(* Time [program] against [config] by replaying a captured trace instead
   of re-interpreting; bit-identical to [measure] of the same program
   (see Trace_buffer). *)
let measure_replay ?cache ?options (config : Config.t) trace program =
  measure_prepared ?cache ?options config (Trace_buffer.bind trace program)

(* ---- Segmented replay ---------------------------------------------- *)

(* Default segment length in dynamic instructions.  Large enough that
   the per-segment snapshot/resume cost is noise, small enough that the
   heaviest workload splits into dozens of segments a work-stealing
   scheduler can interleave. *)
let default_segment = 1 lsl 17

(* A replay in flight, paused at an instruction boundary.  The prepared
   binary is shared immutable data; the cursor is single-owner mutable
   state and the snapshot is plain copied data, so a chain of
   [replay_segmented_step] calls may hop between domains as long as
   each handoff orders the previous step before the next (a
   work-stealing pool's deque does exactly that). *)
type segmented = {
  sg_config : Config.t;
  sg_prepared : Trace_buffer.prepared;
  sg_cursor : Trace_buffer.cursor;
  sg_snap : Timing.snapshot;
  sg_segment : int;
}

(* Advance one segment on [timing] and package the outcome. *)
let seg_advance config pr cu segment timing =
  Trace_buffer.replay_steps pr cu timing ~max_steps:segment;
  if Trace_buffer.cursor_done cu then `Done (finish_run config pr timing)
  else
    `More
      { sg_config = config;
        sg_prepared = pr;
        sg_cursor = cu;
        sg_snap = Timing.snapshot timing;
        sg_segment = segment;
      }

let replay_segmented_start ?cache ?options ?(segment = default_segment)
    (config : Config.t) trace program =
  let segment = max 1 segment in
  let pr = Trace_buffer.bind trace program in
  let cu = Trace_buffer.start pr in
  let timing = Timing.create ?cache ~registers:(registers_of options) config in
  seg_advance config pr cu segment timing

let replay_segmented_step sg =
  seg_advance sg.sg_config sg.sg_prepared sg.sg_cursor sg.sg_segment
    (Timing.resume sg.sg_snap)

(* The sequential driver: equivalent to [measure_replay], exercising the
   same segment chain a parallel scheduler would. *)
let measure_replay_segmented ?cache ?options ?segment config trace program =
  let rec drive = function
    | `Done run -> run
    | `More sg -> drive (replay_segmented_step sg)
  in
  drive (replay_segmented_start ?cache ?options ?segment config trace program)

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
