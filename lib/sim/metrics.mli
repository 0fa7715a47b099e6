(** Measurement helpers shared by the experiment harness.

    Every measurement replays a captured trace ({!Trace_buffer}): a
    binary is timed by capturing it, or a schedule-sibling of it, once
    and replaying the trace over the binary through a fresh
    {!Timing.t}. *)

open Ilp_machine

type run = {
  machine : string;
  dyn_instrs : int;  (** dynamically executed instructions *)
  minor_cycles : int;
  base_cycles : float;  (** minor cycles / pipe degree *)
  speedup : float;
      (** instructions per base cycle — the ILP the machine exploits,
          equal to the speedup over the base machine running the same
          binary *)
  stall_cycles : int;
  issue_histogram : int array;
      (** [issue_histogram.(k)]: minor cycles that issued exactly [k]
          instructions; sums to [minor_cycles] *)
  cache_accesses : int;  (** data-cache accesses; 0 without a cache *)
  cache_misses : int;  (** data-cache misses; 0 without a cache *)
  class_counts : int array;  (** dynamic count per instruction class *)
  sink : Value.t;  (** final checksum *)
}

val measure_replay :
  ?cache:Cache.t ->
  Config.t ->
  Trace_buffer.t ->
  Ilp_ir.Program.t ->
  run
(** Time [program] against [config] by replaying a trace captured from
    it or from a schedule-sibling of it (raises
    {!Trace_buffer.Divergence} otherwise).  The program must be fully
    register-allocated (and normally scheduled for [config]).  Same as
    {!measure_prepared} of {!Trace_buffer.bind}. *)

val measure_prepared :
  ?cache:Cache.t ->
  Config.t ->
  Trace_buffer.prepared ->
  run
(** Time a binary already bound to a trace ({!Trace_buffer.bind})
    against [config]: the sweep engine captures each program once and
    binds every schedule of it. *)

val harmonic_mean : float list -> float
(** Raises [Invalid_argument] on an empty list.  The paper's summary
    statistic for speedups. *)

val geometric_mean : float list -> float
val arithmetic_mean : float list -> float

val pp_run : run Fmt.t
