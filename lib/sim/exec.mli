(** Functional execution of IR programs.

    The executor interprets any validated program, still in virtual
    registers or fully register-allocated, and can drive an observer
    with every executed instruction in program order.  Measurements do
    not observe the run: they record its flat trace ({!record}) and
    replay it through the timing model ({!Trace_buffer}).

    Machine state: a physical register file, a word-addressed memory
    (globals low, stack high), and a return-address stack managed by
    call/ret.  Return addresses never touch simulated memory, keeping
    the calling convention out of the measured instruction stream.

    Each run first lowers the program into flat per-instruction arrays
    (see {!layout}): opcode, destination and operand slots, offsets and
    targets resolved through empty blocks, so the loop allocates nothing
    per step but the values it stores and never looks a label up.

    Virtual registers live in per-call frames: each activation of a
    function gets its own zeroed set, restored to the caller on return
    and never shared with the physical file.  Memory is made of 256-word
    pages allocated on first store, so a run costs the pages it touches;
    a word never stored reads [Int 0].  Observers and hooks always
    receive the program's own instructions. *)

open Ilp_ir

exception Fault of string
(** Division by zero, out-of-range memory access, unknown label,
    malformed instruction, control falling off the end of a function, or
    exceeded step budget. *)

type observer = Instr.t -> int -> unit
(** [observer instr addr]: called after each instruction executes;
    [addr] is the effective address of a load or store, [-1]
    otherwise. *)

type options = {
  mem_words : int;
      (** addressable words (default 2^20); every access outside
          [0, mem_words) faults *)
  max_steps : int;  (** execution budget before a fault *)
  registers : int;  (** size of the physical register file *)
}

val default_options : options

type memory
(** A run's final memory. *)

val load : memory -> int -> Value.t
(** The word at an address; [Int 0] if never stored.  Raises
    [Invalid_argument] outside [0, mem_words). *)

val first_difference : memory -> memory -> int option
(** The lowest address whose words differ, skipping pages neither
    memory stored to; [None] when the two hold the same words. *)

type outcome = {
  dyn_instrs : int;  (** dynamically executed instructions *)
  sink : Value.t;  (** final value of the checksum cell *)
  class_counts : int array;  (** dynamic count per instruction class *)
  per_function : (string * int) list;
      (** dynamic instructions per function, heaviest first *)
  memory : memory;  (** final memory *)
  regs : Value.t array;  (** final physical register file *)
}

val run :
  ?options:options ->
  ?observer:observer ->
  ?on_branch:(Instr.t -> bool -> unit) ->
  ?on_store:(Instr.t -> int -> Value.t -> unit) ->
  Program.t ->
  outcome
(** Execute from ["main"] until [halt] (or a return with an empty call
    stack).  Control entering an empty block, the entry block of [main]
    included, falls through to the next block with instructions.
    [observer] sees every executed instruction; [on_branch]
    additionally reports the outcome of every executed conditional
    branch, after the observer, and
    [on_store instr addr value] every executed store with its effective
    address and stored value (the differential oracle compares these
    dynamic store streams across compilation stages).

    Raises {!Fault} if a function name collides with a basic-block label
    elsewhere in the program (the alias that makes function entries
    reachable by name would silently redirect those branches).  An
    instruction whose operands do not fit its opcode faults when it
    executes.  A physical register at or above [registers] raises
    [Invalid_argument] when its instruction executes. *)

(** {1 Slots and issue segments}

    The one segmentation of a program, shared by the executor's
    recorder and by {!Trace_buffer}.  Every instruction has a {e slot}:
    functions in program order, blocks in layout order, instructions in
    block order, and one end slot after each function's last block.
    Empty blocks have no slot.  An {e issue segment} is a run of a
    block's slots that ends at a control instruction (branch, jump,
    call, return, halt) or at the block's end; segments are numbered in
    slot order. *)

type layout = {
  code : Instr.t array;
      (** per slot: the program's instruction; end slots hold a marker
          that never executes *)
  fn_first : int array;
      (** per function: its first slot; then one past the last slot, so
          function [f]'s end slot is [fn_first.(f + 1) - 1] *)
  seg : int array;  (** per slot: the segment starting there, or -1 *)
  seg_first : int array;  (** per segment: its first slot *)
  seg_len : int array;  (** per segment: its instruction count *)
  target : int array;
      (** per slot of a control instruction with a label: the slot its
          label resolves to, through empty blocks (possibly an end
          slot), or -1 when the label is unknown *)
  entry : int;  (** the slot [main] starts at *)
}

val layout : Program.t -> layout
(** Raises {!Fault} on a function name that collides with a block label
    and on a program without [main]. *)

(** {1 Recording the flat trace} *)

type visits = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Segment numbers, one per dynamic segment visit. *)

type addresses = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Effective addresses of the executed loads and stores, in order;
    every address is below [mem_words], at most 2^31. *)

type recording = {
  layout : layout;  (** the segmentation the visits refer to *)
  visits : visits;
  addresses : addresses;
}
(** A run's flat trace: exact-size arrays outside the OCaml heap. *)

val record : ?options:options -> Program.t -> outcome * recording
(** {!run}, also recording the number of every segment control enters
    and every effective address, in execution order.  The loop appends
    them to off-heap chunks as it runs; the chunks are joined once at
    the end.  Raises [Invalid_argument] when [mem_words] exceeds 2^31,
    beyond what the recorded addresses hold. *)
