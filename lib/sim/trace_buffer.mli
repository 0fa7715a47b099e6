(** Capture-once/replay-many dynamic traces.

    {!capture} runs the functional interpreter once over a program and
    records the dynamic instruction stream compactly, per static
    instruction: effective-address sequences for loads and stores
    (packed int arrays) and taken-bit sequences for conditional branches
    (62 bits per word), plus the run summary.  The buffer costs roughly
    one word per dynamic memory access — a few megabytes for the
    heaviest benchmark — where the list-of-records {!Trace} capture
    could not hold the full stream.

    Replay goes through a flat form of the trace.  An {e issue segment}
    is a run of a basic block that ends at a call, at another control
    transfer or at the block's end.  Scheduling permutes instructions
    only within basic blocks, never across calls or the terminator, so
    a segment holds the same instructions in every schedule of the
    captured program, and branch outcomes and address sequences are
    schedule-invariant.  {!flatten} walks the captured program once,
    checking every stream, and keeps two exact-size arrays off the
    OCaml heap: the dynamic sequence of segment visits and each visit's
    memory addresses.  {!bind} lays one schedule-sibling binary over
    that form, checking that every instruction stays in its segment and
    that control leaves every segment the same way, and decodes it in
    its own order for {!Timing.replay_flat}.  That loop lives in
    {!Timing}, next to the issue step it shares with {!Timing.issue},
    because the dev profile compiles with [-opaque] and a loop here
    would reach the step through a generic application per
    instruction.  Replay feeds the issue step exactly the stream a
    direct {!Timing.observer} would, so the resulting timing — cycles,
    stalls, histogram, cache behaviour — is bit-identical to a direct
    measurement of the same binary. *)

open Ilp_ir

exception Divergence of string
(** The buffer and a program disagree: an instruction stream ran short
    or was not fully consumed, the replayed length differs from the
    capture, or a binary is not a schedule-sibling of the captured
    program (an instruction is missing, foreign, duplicated or outside
    its issue segment, or control leaves a segment differently). *)

type t

val capture :
  ?options:Exec.options -> ?observers:Exec.observer list -> Program.t -> t
(** Execute [p] once and record its dynamic trace.  Additional
    [observers] ride along on the same functional pass. *)

val dyn_instrs : t -> int
(** Dynamically executed instructions of the captured run. *)

val sink : t -> Value.t
(** Final checksum of the captured run. *)

val class_counts : t -> int array
(** Dynamic instruction-class counts of the captured run. *)

val footprint_words : t -> int
(** Approximate buffer size in words, for reporting. *)

type stats = {
  mem_streams : int;  (** static loads/stores with a recorded stream *)
  branch_streams : int;  (** static conditional branches traced *)
  addr_entries : int;  (** recorded effective addresses in total *)
  taken_bits : int;  (** recorded branch outcomes in total *)
  dyn : int;  (** dynamic instructions of the captured run *)
  packed_bytes : int;
      (** exact payload bytes when packed: 8 per address, 8 per 62
          taken bits *)
}

val stats : t -> stats
(** What this capture costs: traced static instructions (memory and
    branch streams), dynamic steps, and packed bytes. *)

val byte_size : t -> int
(** [= (stats t).packed_bytes]. *)

val equal : t -> t -> bool
(** Logical equality of two captures: same run summary and bit-identical
    recorded streams per traced instruction.  A buffer compares equal to
    its {!pack}/{!unpack} round trip. *)

(** {1 Packing for the persistent trace store}

    The in-memory buffer keys streams by [Instr.id] — a process-local
    counter.  {!pack} re-keys them by flat static position (functions in
    program order, blocks in layout order, instructions in block order),
    a pure function of the compiled program, so a packed trace written
    by one process re-attaches exactly in another process that compiled
    the same program.  [Ilp_store] serializes this form to disk. *)

type packed = {
  p_dyn_instrs : int;
  p_sink : Value.t;
  p_class_counts : int array;
  p_addrs : (int * int array) array;
      (** (flat position, effective addresses), sorted by position *)
  p_branches : (int * int * int array) array;
      (** (flat position, taken-bit count, packed words), sorted *)
}

val pack : t -> Program.t -> packed
(** Re-key the buffer's streams by flat static position in [program]
    (the program the trace was captured from, or any schedule-sibling
    built in this process).  Raises {!Divergence} if a traced
    instruction is not in the program. *)

val unpack : packed -> Program.t -> t
(** Re-attach a packed trace to [program]'s instruction identities.
    Raises {!Divergence} when a stream's position falls outside the
    program or appears twice.  [unpack (pack t p) p] is {!equal} to
    [t]. *)

(** {1 Flat replay} *)

type flat
(** A trace flattened over its captured program: the segment table, the
    visit sequence and the addresses.  Immutable; it holds no reference
    to the per-instruction streams, which may be dropped once it is
    built. *)

val flatten : t -> flat
(** The flat form of [t], built by one checked walk of the captured
    program the first time it is asked for and shared afterwards, from
    any domain.  Raises {!Divergence} where the recorded streams and the
    program disagree. *)

type prepared
(** A flat trace bound to one concrete binary: its instructions decoded
    in the binary's own order, slot by slot per issue segment.
    Immutable after construction; many cursors may walk one
    [prepared]. *)

val bind : flat -> Program.t -> prepared
(** Bind the flat trace to a schedule-sibling [binary] of the captured
    program.  Allocates per static instruction only.  Raises
    {!Divergence} unless every instruction of the binary is traced and
    sits in its own issue segment exactly once, every segment is
    present, and control leaves each segment as in the capture. *)

val prepare : t -> Program.t -> prepared
(** [bind (flatten t) binary]. *)

type summary = {
  s_dyn_instrs : int;
  s_sink : Value.t;
  s_class_counts : int array;
}

val summary : prepared -> summary
(** The captured run's dynamic instruction count, checksum and class
    counts. *)

val replay : t -> Program.t -> Timing.t -> unit
(** [replay t binary timing] drives [timing] with the captured stream
    laid over [binary].  Raises {!Divergence} if [binary] is not a
    schedule-sibling of the captured program.  Equivalent to {!prepare}
    followed by one whole-trace {!replay_steps}. *)

(** {1 Segmented replay}

    A replay can be cut at any dynamic instruction: a {!cursor} holds
    the position in the visit sequence, and each {!replay_steps} call
    advances at most [max_steps] dynamic instructions.  Combined with
    {!Timing.snapshot}/{!Timing.resume} at the same boundaries,
    segmented replay is bit-identical to an unsegmented {!replay} —
    whatever the cut positions, including empty and whole-trace
    segments. *)

type cursor
(** Walk state over a {!prepared} binary: the position in the visit
    sequence and the dynamic-instruction count.  Mutable, single-owner —
    advance it from one domain at a time. *)

val start : prepared -> cursor
(** A cursor at the entry point with nothing consumed. *)

val cursor_done : cursor -> bool
(** Every dynamic instruction of the trace has been replayed. *)

val steps : cursor -> int
(** Dynamic instructions replayed through this cursor so far. *)

val replay_steps : prepared -> cursor -> Timing.t -> max_steps:int -> unit
(** Replay at most [max_steps] further dynamic instructions into
    [timing] ([max_steps <= 0] replays nothing).  Every consistency
    check has already run in {!flatten} and {!bind}, so this never
    raises {!Divergence}. *)
