(* Machine configurations (Section 3 of the paper).

   A configuration describes one point of the design space of Section 2:

   - [issue_width] is the superscalar degree [n]: the maximum number of
     instructions issued per (minor) cycle;
   - [pipe_degree] is the superpipelining degree [m]: the number of minor
     cycles per base-machine cycle, so a degree-[m] machine's cycle time
     is 1/m of the base machine's and simulated cycle counts must be
     divided by [m] to express time in base cycles;
   - [latencies] gives the operation latency of each instruction class in
     minor cycles (the time until a dependent instruction can issue);
   - [units] optionally imposes structural ("class conflict") constraints:
     classes not covered by any unit are unconstrained, as in an ideal
     superscalar machine;
   - [temp_regs]/[home_regs] describe the register-file split used by the
     compiler (Section 3, last paragraph). *)

open Ilp_ir

type unit_spec = {
  unit_name : string;
  classes : Iclass.t list;
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
      (** ablation switch: a taken-or-not branch closes the cycle's
          issue group (the paper's model assumes it does not) *)
}

let default_temp_regs = 16
let default_home_regs = 26

let latency t c = t.latencies.(Iclass.to_index c)

(* Build a latency table from an association list; classes not mentioned
   take 1 cycle. *)
let latency_table assoc =
  let table = Array.make Iclass.count 1 in
  List.iter (fun (c, l) -> table.(Iclass.to_index c) <- l) assoc;
  table

let make ?(issue_width = 1) ?(pipe_degree = 1) ?(units = [])
    ?(temp_regs = default_temp_regs) ?(home_regs = default_home_regs)
    ?(latencies = latency_table []) ?(branch_ends_packet = false) name =
  if issue_width < 1 then invalid_arg "Config.make: issue_width < 1";
  if pipe_degree < 1 then invalid_arg "Config.make: pipe_degree < 1";
  (* a unit with no copies, or one that accepts no issue, can never
     issue its classes: timing and scheduling would wait forever *)
  List.iter
    (fun u ->
      if u.multiplicity < 1 then
        invalid_arg
          (Printf.sprintf "Config.make: unit %s: multiplicity < 1" u.unit_name);
      if u.issue_latency < 1 then
        invalid_arg
          (Printf.sprintf "Config.make: unit %s: issue_latency < 1"
             u.unit_name))
    units;
  { name; issue_width; pipe_degree; latencies; units; temp_regs; home_regs;
    branch_ends_packet }

(* Scale every latency by the superpipelining degree: an operation that
   takes one base cycle takes [m] minor cycles on a degree-[m] machine. *)
let scale_latencies table m = Array.map (fun l -> l * m) table

let units_for t c =
  List.filter (fun u -> List.mem c u.classes) t.units

let has_unit_constraint t c = units_for t c <> []

(* Highest operation latency across all classes, used to bound scheduler
   lookahead. *)
let max_latency t = Array.fold_left max 1 t.latencies

let pp ppf t =
  Fmt.pf ppf "@[<v>machine %s: issue=%d degree=%d temps=%d homes=%d@," t.name
    t.issue_width t.pipe_degree t.temp_regs t.home_regs;
  List.iter
    (fun c ->
      Fmt.pf ppf "  %-8s latency %d@," (Iclass.name c)
        t.latencies.(Iclass.to_index c))
    Iclass.all;
  List.iter
    (fun u ->
      Fmt.pf ppf "  unit %s x%d issue-latency %d: %a@," u.unit_name
        u.multiplicity u.issue_latency
        Fmt.(list ~sep:comma Iclass.pp)
        u.classes)
    t.units;
  Fmt.pf ppf "@]"
