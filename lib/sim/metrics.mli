(** Measurement helpers shared by the experiment harness. *)

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
  class_counts : int array;  (** dynamic count per instruction class *)
  sink : Value.t;  (** final checksum *)
}

val measure :
  ?cache:Cache.t ->
  ?options:Exec.options ->
  Config.t ->
  Ilp_ir.Program.t ->
  run
(** Execute [program] once, timed against [config].  The program must be
    fully register-allocated (and normally scheduled for [config])
    beforehand. *)

val measure_replay :
  ?cache:Cache.t ->
  ?options:Exec.options ->
  Config.t ->
  Trace_buffer.t ->
  Ilp_ir.Program.t ->
  run
(** Time [program] against [config] by replaying a captured trace
    instead of re-interpreting.  Bit-identical to {!measure} of the same
    program when the trace was captured from a schedule-sibling of
    [program] (raises {!Trace_buffer.Divergence} otherwise);
    [options] only contributes the register-file size.  Same as
    {!measure_prepared} of {!Trace_buffer.bind}. *)

val measure_prepared :
  ?cache:Cache.t ->
  ?options:Exec.options ->
  Config.t ->
  Trace_buffer.prepared ->
  run
(** Time a binary already bound to a trace ({!Trace_buffer.bind})
    against [config]: the sweep engine captures each program once and
    binds every schedule of it. *)

val class_frequencies : run -> Superpipelining.frequencies
(** The run's dynamic instruction-class mix, as fractions. *)

val harmonic_mean : float list -> float
(** Raises [Invalid_argument] on an empty list.  The paper's summary
    statistic for speedups. *)

val geometric_mean : float list -> float
val arithmetic_mean : float list -> float

val pp_run : run Fmt.t
