(** Functional execution of IR programs.

    The executor interprets any validated program, still in virtual
    registers or fully register-allocated, and drives an observer with
    every executed instruction in program order; timing models, mix
    counters and cache simulators all consume this dynamic stream, so
    one functional pass can feed several observers at once.

    Machine state: a physical register file, a word-addressed memory
    (globals low, stack high), and a return-address stack managed by
    call/ret.  Return addresses never touch simulated memory, keeping
    the calling convention out of the measured instruction stream.

    Virtual registers live in per-call frames: each activation of a
    function gets its own zeroed set, restored to the caller on return
    and never shared with the physical file.  Memory is made of 256-word
    pages allocated on first store, so a run costs the pages it touches;
    a word never stored reads [Int 0].  Observers and hooks always
    receive the program's own instructions. *)

open Ilp_ir

exception Fault of string
(** Division by zero, out-of-range memory access, unknown label,
    malformed instruction, or exceeded step budget. *)

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

val nothing_observer : observer

val run :
  ?options:options ->
  ?observer:observer ->
  ?observers:observer list ->
  ?on_branch:(Instr.t -> bool -> unit) ->
  ?on_store:(Instr.t -> int -> Value.t -> unit) ->
  Program.t ->
  outcome
(** Execute from ["main"] until [halt] (or a return with an empty call
    stack).  All of [observer] and [observers] are driven by the same
    functional pass; [on_branch] additionally reports the outcome of
    every executed conditional branch (trace capture records these to
    replay control flow without re-interpreting), and
    [on_store instr addr value] every executed store with its effective
    address and stored value (the differential oracle compares these
    dynamic store streams across compilation stages).

    Raises {!Fault} if a function name collides with a basic-block label
    elsewhere in the program (the alias that makes function entries
    reachable by name would silently redirect those branches).  A
    physical register at or above [registers] raises
    [Invalid_argument]. *)
