(** Capture-once/replay-many dynamic traces.

    A trace is kept per {e issue segment}: a run of a basic block that
    ends at a call, at another control transfer or at the block's end
    (numbered by {!Exec.layout}).  Scheduling permutes instructions only
    within basic blocks, never across calls or the terminator, so a
    segment holds the same instructions in every schedule of the
    captured program, and the sequence of segments control visits, with
    the addresses of each visit's loads and stores, is
    schedule-invariant.

    {!capture} runs the executor once with its recorder, which appends
    every segment visit and every effective address to off-heap chunks
    as it runs: the trace is two exact-size arrays outside the OCaml
    heap, plus the run summary.  {!bind} lays one schedule-sibling
    binary over it, checking that every instruction stays in its
    segment and that control leaves every segment the same way, and
    decodes it in its own order for {!Timing.replay_flat}.  That loop
    lives in {!Timing}, next to the issue step it shares with
    {!Timing.issue}, because the dev profile compiles with [-opaque] and
    a loop here would reach the step through a generic application per
    instruction.  Replay times exactly the dynamic stream of the bound
    binary, in execution order; without a cache it steps each distinct
    (machine state, segment) pair once and counts the repeats.  So the
    resulting timing — cycles, stalls, histogram, cache behaviour — is
    that of the binary's own run. *)

open Ilp_ir

exception Divergence of string
(** A binary is not a schedule-sibling of the captured program: an
    instruction is missing, foreign, duplicated or outside its issue
    segment, or control leaves a segment differently. *)

type t
(** A captured trace over its program's issue segments.  Immutable; it
    may be bound and replayed from any domain. *)

val capture : ?options:Exec.options -> Program.t -> t
(** Execute [p] once ({!Exec.record}) and keep its flat trace. *)

val dyn_instrs : t -> int
(** Dynamically executed instructions of the captured run. *)

val sink : t -> Value.t
(** Final checksum of the captured run. *)

val per_function : t -> (string * int) list
(** Dynamic instructions per function of the captured run, heaviest
    first ({!Exec.outcome}'s [per_function]). *)

val loop_counts : t -> (int * int list) list -> (int * int) list
(** [loop_counts t loops]: for each loop, given as the [Instr.id] of its
    header block's first instruction and those of its latch blocks'
    last instructions (in the captured program or any schedule-sibling
    of it), the number of back-edge traversals and of entries in the
    captured run, as [(traversals, entries)].  A visit of the header is
    a traversal when control arrives from a latch's last instruction
    and an entry otherwise.  A loop whose header instruction is not
    traced counts nothing. *)

type stats = {
  visits : int;  (** dynamic segment visits *)
  addresses : int;  (** recorded effective addresses *)
  dyn : int;  (** dynamic instructions of the captured run *)
  bytes : int;  (** payload bytes: 4 per visit and per address *)
}

val stats : t -> stats

val byte_size : t -> int
(** [= (stats t).bytes]. *)

(** {1 Replay} *)

type prepared
(** A trace bound to one concrete binary: its instructions decoded in
    the binary's own order, slot by slot per issue segment.  Immutable
    after construction; it may be replayed any number of times, from
    any domain. *)

val bind : t -> Program.t -> prepared
(** Bind the trace to a schedule-sibling [binary] of the captured
    program.  Allocates per static instruction only.  Raises
    {!Divergence} unless every instruction of the binary is traced and
    sits in its own issue segment exactly once, every segment is
    present, and control leaves each segment as in the capture. *)

type summary = {
  s_dyn_instrs : int;
  s_sink : Value.t;
  s_class_counts : int array;
  s_per_function : (string * int) list;
}

val summary : prepared -> summary
(** The captured run's dynamic instruction count, checksum, class
    counts and per-function counts. *)

val run : prepared -> Timing.t -> unit
(** Replay the whole trace over the bound binary into [timing] with
    {!Timing.replay_flat}.  Every consistency check has already run in
    {!capture} and {!bind}, so this never raises {!Divergence}. *)

val replay : t -> Program.t -> Timing.t -> unit
(** [replay t binary timing] drives [timing] with the captured stream
    laid over [binary]: {!bind}, then {!run}.  Raises {!Divergence} if
    [binary] is not a schedule-sibling of the captured program. *)
