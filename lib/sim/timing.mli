(** The in-order timing model (Section 3 of the paper).

    Consumes the dynamic instruction stream produced by {!Exec} and
    charges cycles according to a machine configuration:

    - at most [issue_width] instructions issue per (minor) cycle;
    - an instruction does not issue until its source registers are ready
      (results are bypassed: latency 1 means a dependent instruction can
      issue the very next cycle);
    - writes complete in order (a WAW hazard stalls);
    - a declared functional unit must be free; issuing occupies it for
      its issue latency.  Classes without units are unconstrained;
    - issue is strictly in order: the first stalled instruction ends the
      cycle's issue group;
    - control is free (perfect branch prediction and slot filling, the
      paper's assumption): branches occupy issue slots only;
    - an optional blocking data cache adds its miss penalty
      (Section 5.1).

    Counts are in minor cycles; {!base_cycles} divides by the
    superpipelining degree.

    Stalls are skipped, not stepped through.  While an instruction
    waits, each of its hazards is a fixed bound: sources ready at
    [max reg_ready.(use)], in-order writes from
    [max reg_ready.(def) - latency], a unit of its class free at
    [min free_at].  {!issue_decoded} jumps straight to the earliest
    cycle [c] at which all of them hold.  The open cycle is closed into
    the histogram slot of its issue count, the [c - now - 1] cycles in
    between go to slot 0, and all [c - now] count as stall cycles.  A
    blocking cache miss is paid the same way first, and a full or
    branch-ended packet moves to the next cycle without a stall.  The
    outcome is exactly that of stepping one minor cycle at a time, and
    the step allocates nothing.

    Every measurement is timed by the flat replay loop {!replay_flat}
    over a captured trace, which without a cache times each distinct
    (machine state, issue segment) pair once (see {!section-replay}).
    {!issue} and {!issue_decoded} take one instruction at a time through
    the same issue step, for pipeline diagrams and tests. *)

open Ilp_machine

type unit_pool = { spec : Config.unit_spec; free_at : int array }

type t = {
  config : Config.t;
  reg_ready : int array;
  pools : unit_pool list;  (** in [config.units] declaration order *)
  pools_by_class : unit_pool array array;
      (** indexed by class: the pools serving it, in declaration order *)
  mutable now : int;  (** current minor cycle *)
  mutable issued_this_cycle : int;
  mutable instrs : int;
  mutable stall_cycles : int;
  cache : Cache.t option;
  mutable cache_stall_until : int;
  issue_histogram : int array;
      (** [issue_histogram.(k)]: completed cycles that issued exactly
          [k] instructions *)
  mutable force_cycle_end : bool;
  mutable finished : bool;  (** set by {!finish} *)
  mutable stepped : int;
      (** segment visits {!replay_flat} issued one instruction at a time:
          every visit with a cache, each distinct (state, segment) pair
          once without one *)
}

val create : ?cache:Cache.t -> ?registers:int -> Config.t -> t
(** [registers] sizes the scoreboard to the simulated register file;
    defaults to [Exec.default_options.registers]. *)

val issue : t -> Ilp_ir.Instr.t -> int -> unit
(** Account one dynamic instruction, decoding it on the spot; the
    second argument is the effective address of a memory operation or
    [-1].  After the call, [t.now] is the minor cycle the instruction
    issued in. *)

val issue_decoded :
  t ->
  cls:Ilp_ir.Iclass.t ->
  is_load:bool ->
  defs:int array ->
  uses:int array ->
  int ->
  unit
(** Like {!issue}, but from pre-decoded fields: instruction class,
    whether it is a load, and def/use register {e indices}.  {!issue} is
    exactly this after decoding, so a trace replay that feeds the same
    decoded stream produces bit-identical timing.

    The instruction issues in the earliest cycle at which the cache
    horizon has passed, its packet has room, its sources are ready, its
    writes complete in order and a unit of its class is free; the model
    jumps there in one step (see the module header).  It books the
    first such unit in declaration order.  After the call, [t.now] is
    the minor cycle the instruction issued in. *)

(** {1:replay Flat replay}

    {!Trace_buffer} replays a captured trace from two flat, off-heap
    arrays: the dynamic sequence of {e issue segments} visited (runs of
    a basic block that end at a call, another control transfer or the
    block's end, whose instruction set no schedule changes) and, per
    visit, the memory addresses of the segment's loads and stores.  It
    binds a scheduled binary to that form as a {!flat_code}: each
    segment's instructions in the binary's own order, decoded down to
    class index, load and control flags, the slot's rank among the
    visit's addresses, and one flat register list.

    {!replay_flat} is the loop over this form.  Without a cache it is
    memoized.  Its key for the model's state is the open packet's issue
    count, the branch-ended flag, and how far beyond [now] each register
    of [fc_named] is ready and each unit copy frees, clamped at 0.  The
    clamp is exact: a value at or below [now] never changes an issue
    cycle, a WAW bound, the unit copy booked or the drain.  The first
    visit of a segment from a state (a miss) runs the segment through
    the issue step on a scratch model loaded with the state at
    [now = 0], and records the next state with the deltas of [now], the
    stall cycles and the histogram.  Every later visit of the pair (a
    hit) bumps the pair's count and moves to its next state without
    touching an instruction or address.  At the end the counts times
    the deltas go into [t] and the last state is written back at the
    new [now], so {!finish}, {!minor_cycles} and later issues behave
    exactly as after issuing every instruction; registers the code
    never names keep their absolute values.  A cache's contents are
    state the key lacks, so with a cache every visit issues its
    instructions.  Replay allocates per distinct (state, segment) pair.

    The loop lives here rather than in {!Trace_buffer} because the dev
    profile compiles with [-opaque]: across modules, every
    per-instruction call would be a generic application, while inside
    this module the issue step that {!issue} and {!issue_decoded} use is
    inlined into it. *)

type flat_code = {
  fc_seg_first : int array;  (** per segment: its first slot *)
  fc_seg_len : int array;  (** per segment: its instruction count *)
  fc_seg_mem : int array;  (** per segment: address entries per visit *)
  fc_cls : int array;
      (** per slot: class index ({!Ilp_ir.Iclass.to_index}) *)
  fc_flags : int array;  (** per slot: {!flag_load}, {!flag_control} bits *)
  fc_mrank : int array;
      (** per slot: the instruction's entry within its segment visit's
          addresses, or -1 *)
  fc_reg_first : int array;
      (** per slot, plus one past the end: where the slot's registers
          start in [fc_regs], destinations first *)
  fc_ndefs : int array;  (** per slot: destination register count *)
  fc_regs : int array;  (** every slot's register indices, concatenated *)
  fc_named : int array;  (** every register [fc_regs] names, once *)
}

val flag_load : int
val flag_control : int

type visits = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Segment numbers, one per dynamic visit. *)

type addresses = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Effective addresses: each visit's block of [fc_seg_mem] entries, in
    visit order. *)

val replay_flat : t -> flat_code -> visits -> addresses -> unit
(** Time every dynamic instruction of the trace, each visit's segment
    slot by slot, in visit order, as {!issue_decoded} would one at a
    time: [t] ends exactly as it would after those calls.  Adds the
    visits it issued instruction by instruction to [t.stepped]. *)

val minor_cycles : t -> int
(** Total time: the last issue cycle plus the drain of the deepest
    outstanding result. *)

val finish : t -> unit
(** Close the open issue cycle and charge the result-drain cycles as
    zero-issue cycles, establishing the invariant
    [Array.fold_left (+) 0 t.issue_histogram = minor_cycles t].
    Idempotent; call once the dynamic stream is exhausted. *)

val base_cycles : t -> float
val instrs : t -> int

val speedup : t -> float
(** Instructions per base cycle = speedup over the base machine, which
    executes one instruction per base cycle without stalling. *)
