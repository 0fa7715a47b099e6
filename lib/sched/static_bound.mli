(** Static per-loop ILP bounds.

    For every innermost loop of a compiled (scheduled, fully allocated)
    program this module derives two machine-specific lower bounds on the
    minor cycles one completed iteration must take:

    - a {e recurrence} bound: the longest register-carried dependence
      cycle through the loop — a register with a unique definition in
      the loop whose value feeds, through same-iteration register RAW
      chains, its own next definition.  The in-order timing model
      delays each link by the producer's operation latency, so [k]
      consecutive iterations cost at least [(k-1)] times the cycle's
      total latency, whatever the schedule;
    - a {e resource} bound: instructions executed every iteration
      divided by the issue width, and per instruction class by the
      declared functional-unit capacity.

    The minimum implied ILP ceiling — iteration instructions over the
    larger of the two cycle bounds, in instructions per base cycle — is
    the static prediction the [fig4_static_bounds] experiment checks
    measured ILP against.  Both bounds only use constraints the timing
    model actually enforces (register dependences, issue width, unit
    capacity); memory ordering, which the timing model does not model,
    contributes nothing.

    Dynamic iteration counts come from outside: a back-edge traversal
    is a (latch-last, header-first) adjacent instruction pair in the
    dynamic stream, and [Ilp_sim.Trace_buffer.loop_counts] counts them
    from a captured trace's segment visits, given
    [sb_header_first] and [sb_latch_lasts]. *)

open Ilp_ir
open Ilp_machine

type loop_bound = {
  sb_func : string;
  sb_header : string;  (** header block label *)
  sb_blocks : int;  (** blocks in the loop body *)
  sb_iter_instrs : int;
      (** instructions executed on every completed iteration (the
          latch-dominating blocks) *)
  sb_body_instrs : int;  (** instructions across the whole body *)
  sb_recurrence : int;
      (** minor cycles per completed iteration forced by the longest
          register-carried recurrence; 0 when none was provable *)
  sb_resource : float;
      (** minor cycles per completed iteration forced by issue width
          and functional-unit capacity *)
  sb_ilp_ceiling : float;
      (** static ILP ceiling in instructions per base cycle:
          [sb_body_instrs * pipe_degree / max(recurrence, resource)] *)
  sb_header_first : int;  (** instr id of the header's first instruction *)
  sb_latch_lasts : int list;  (** instr ids ending each latch block *)
}

type t = { bounds : loop_bound list }

val analyze : Config.t -> Program.t -> t
(** The program must be the binary that will run: bounds are derived
    from the scheduled instruction order. *)

(** {1 Dynamic iteration counts} *)

type counts = {
  traversals : int;  (** back-edge traversals: latch-last then header-first *)
  entries : int;  (** header visits not reached from a latch *)
}
(** One loop's counts in one run.  The functions below take one [counts]
    per loop, in the order of [t.bounds]. *)

(** {1 Whole-run cycle floor} *)

val resource_floor : Config.t -> dyn_instrs:int -> class_counts:int array -> int
(** Minor cycles the whole dynamic stream needs from issue width and
    unit capacity alone. *)

val recurrence_cycles : t -> counts list -> int
(** Sum over innermost loops of (traversals - entries) times the loop's
    recurrence bound — cycles forced by loop-carried register chains. *)

val cycles_lb :
  Config.t -> t -> counts list -> dyn_instrs:int -> class_counts:int array -> int
(** The combined lower bound on measured minor cycles: the larger of
    {!resource_floor} and {!recurrence_cycles}.  Every measured run of
    the same binary on the same configuration must satisfy
    [minor_cycles >= cycles_lb]. *)
