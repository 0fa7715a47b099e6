(** Machine configurations (the Section 3 interface of the paper).

    A configuration describes one point of the Section 2 design space:

    - [issue_width] is the superscalar degree [n]: the maximum number of
      instructions issued per (minor) cycle;
    - [pipe_degree] is the superpipelining degree [m]: minor cycles per
      base-machine cycle, so a degree-[m] machine's cycle time is 1/m of
      the base machine's, and simulated minor-cycle counts divide by [m]
      to give time in base cycles;
    - [latencies] gives each instruction class's operation latency in
      minor cycles — the time until a dependent instruction can issue;
    - [units] optionally imposes structural ("class conflict")
      constraints: classes not covered by any unit are unconstrained, as
      in an ideal superscalar machine;
    - [temp_regs] / [home_regs] set the compiler's register-file split
      between expression temporaries and home locations for promoted
      variables. *)

open Ilp_ir

type unit_spec = {
  unit_name : string;
  classes : Iclass.t list;  (** instruction classes the unit serves *)
  issue_latency : int;  (** minor cycles between issues to one copy *)
  multiplicity : int;  (** number of copies of the unit *)
}

type t = {
  name : string;
  issue_width : int;
  pipe_degree : int;
  latencies : int array;  (** indexed by [Iclass.to_index], minor cycles *)
  units : unit_spec list;
  temp_regs : int;
  home_regs : int;
  branch_ends_packet : bool;
      (** ablation switch (DESIGN.md decision 2): when set, a branch
          closes its cycle's issue group instead of letting issue
          continue past it under perfect prediction *)
}

val default_temp_regs : int
(** 16, the paper's Section 4.4 split. *)

val default_home_regs : int
(** 26, the paper's Section 4.4 split. *)

val latency : t -> Iclass.t -> int

val latency_table : (Iclass.t * int) list -> int array
(** Build a latency table; classes not mentioned take 1 cycle. *)

val make :
  ?issue_width:int ->
  ?pipe_degree:int ->
  ?units:unit_spec list ->
  ?temp_regs:int ->
  ?home_regs:int ->
  ?latencies:int array ->
  ?branch_ends_packet:bool ->
  string ->
  t
(** Defaults describe the base machine: single issue, degree 1, unit
    latencies, no structural constraints.  Raises [Invalid_argument] on
    nonpositive width or degree, and on a unit with nonpositive
    multiplicity or issue latency (it could never issue). *)

val scale_latencies : int array -> int -> int array
(** Multiply every latency by the superpipelining degree: an operation
    of one base cycle takes [m] minor cycles on a degree-[m] machine. *)

val units_for : t -> Iclass.t -> unit_spec list
val has_unit_constraint : t -> Iclass.t -> bool

val max_latency : t -> int
(** The largest per-class latency, for bounding scheduler lookahead. *)

val pp : t Fmt.t
