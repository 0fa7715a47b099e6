(* Capture-once/replay-many dynamic traces.

   A sweep like Figure 4-1 measures the same workload on many machine
   configurations.  The dynamic instruction stream is almost entirely
   shared between those measurements: compilation depends on the
   configuration only through the register split (regalloc) and the
   final per-block scheduling pass, and the scheduler permutes
   instructions *within* basic blocks only, never across calls or past
   the terminator (see Ddg).

   So the trace is kept per issue segment.  An *issue segment* is a run
   of a basic block that ends at a call, at another control transfer or
   at the block's end ([Exec.layout] numbers them).  A segment holds the
   same instructions in every schedule of one pre-scheduled program,
   only their order changes, and the sequence of segments control
   visits, and the addresses each visit's loads and stores touch, are
   the same in every schedule.

   [capture] runs the executor once with its recorder: the loop itself
   appends the number of every segment it enters and the effective
   address of every load and store to off-heap chunks, which end up as
   two exact-size arrays outside the OCaml heap.  That is the whole
   trace, plus the run summary (dynamic count, checksum, class mix,
   per-function counts).  The visit sequence also yields each loop's
   back-edge traversals and entries ([loop_counts]).

   [bind] lays one scheduled binary over the trace: it checks that
   every instruction stays in its segment, once, and that control
   leaves every segment the same way, then decodes the binary in its
   own order for [Timing.replay_flat], the loop that times it, and
   lists the registers the binary names once.  Without a cache that
   loop steps each distinct (machine state, segment) pair once and
   counts the repeats; its state key holds only those named registers.
   That loop lives in [Timing] because the dev profile compiles with
   [-opaque], under which a loop here would reach the issue step
   through a generic application per instruction.  Any mismatch
   between the trace and the binary raises [Divergence] rather than
   producing wrong timings. *)

open Ilp_ir

exception Divergence of string

let divergence fmt = Printf.ksprintf (fun s -> raise (Divergence s)) fmt

module Int_table = Hashtbl.Make (Int)

type summary = {
  s_dyn_instrs : int;
  s_sink : Value.t;
  s_class_counts : int array;
  s_per_function : (string * int) list;
}

(* How control leaves an issue segment: the kind of its last
   instruction, or [Fall] when the segment ends at its block's end. *)
type kind = Fall | Branch | Jump | Call | Ret | Halt

(* A program's issue segments with the control flow between them. *)
type shape = {
  sh_layout : Exec.layout;
  sh_kind : kind array;
  sh_next : int array;
      (** per segment: the segment that follows it in its function, or -1 *)
  sh_target : int array;
      (** per segment: the segment its final branch, jump or call
          reaches, or -1 *)
  sh_entry : int;  (** the segment [main] starts with, or -1 *)
}

let kind_of (i : Instr.t) =
  match i.Instr.op with
  | Opcode.Beq | Opcode.Bne | Opcode.Blt | Opcode.Ble | Opcode.Bgt
  | Opcode.Bge ->
      Branch
  | Opcode.Jmp -> Jump
  | Opcode.Call -> Call
  | Opcode.Ret -> Ret
  | Opcode.Halt -> Halt
  | _ -> Fall

(* A target slot that does not start a segment is an end slot: control
   that reaches it falls off its function, which is only an error if a
   run gets there (Exec faults lazily the same way). *)
let shape_of_layout (l : Exec.layout) =
  let last s = l.Exec.seg_first.(s) + l.Exec.seg_len.(s) - 1 in
  let seg_at slot = if slot < 0 then -1 else l.Exec.seg.(slot) in
  let n_segs = Array.length l.Exec.seg_first in
  { sh_layout = l;
    sh_kind = Array.init n_segs (fun s -> kind_of l.Exec.code.(last s));
    sh_next = Array.init n_segs (fun s -> l.Exec.seg.(last s + 1));
    sh_target = Array.init n_segs (fun s -> seg_at l.Exec.target.(last s));
    sh_entry = seg_at l.Exec.entry;
  }

let shape p =
  match Exec.layout p with
  | l -> shape_of_layout l
  | exception Exec.Fault msg -> raise (Divergence msg)

(* A captured trace over its program's segments: each instruction's
   segment and memory rank, and the dynamic visits and addresses off the
   OCaml heap. *)
type t = {
  summary : summary;
  shape : shape;
  pos_of_id : int Int_table.t;  (** [Instr.id] -> slot *)
  seg_of_slot : int array;  (** -1 for end slots *)
  rank : int array;
      (** per slot: its entry within a visit's addresses, or -1 *)
  seg_mem : int array;  (** per segment: address entries per visit *)
  visit_seq : Timing.visits;
  addr_seq : Timing.addresses;
}

let make summary sh visits addrs =
  let l = sh.sh_layout in
  let n = Array.length l.Exec.code in
  let pos_of_id = Int_table.create (max 16 n) in
  let seg_of_slot = Array.make n (-1) and rank = Array.make n (-1) in
  let seg_mem = Array.make (Array.length sh.sh_kind) 0 in
  Array.iteri
    (fun s first ->
      for k = first to first + l.Exec.seg_len.(s) - 1 do
        let i = l.Exec.code.(k) in
        Int_table.replace pos_of_id i.Instr.id k;
        seg_of_slot.(k) <- s;
        if Instr.is_memory i then begin
          rank.(k) <- seg_mem.(s);
          seg_mem.(s) <- seg_mem.(s) + 1
        end
      done)
    l.Exec.seg_first;
  { summary;
    shape = sh;
    pos_of_id;
    seg_of_slot;
    rank;
    seg_mem;
    visit_seq = visits;
    addr_seq = addrs;
  }

let capture ?options (p : Program.t) =
  let outcome, rc = Exec.record ?options p in
  make
    { s_dyn_instrs = outcome.Exec.dyn_instrs;
      s_sink = outcome.Exec.sink;
      s_class_counts = outcome.Exec.class_counts;
      s_per_function = outcome.Exec.per_function;
    }
    (shape_of_layout rc.Exec.layout)
    rc.Exec.visits rc.Exec.addresses

let dyn_instrs t = t.summary.s_dyn_instrs
let sink t = t.summary.s_sink
let per_function t = t.summary.s_per_function

type stats = { visits : int; addresses : int; dyn : int; bytes : int }

(* 4 bytes per visit and per address: the payload *)
let stats t =
  let visits = Bigarray.Array1.dim t.visit_seq in
  let addresses = Bigarray.Array1.dim t.addr_seq in
  { visits; addresses; dyn = t.summary.s_dyn_instrs;
    bytes = 4 * (visits + addresses) }

let byte_size t = (stats t).bytes

(* ---- loop counts ------------------------------------------------------ *)

(* A loop is given by instruction ids: its header's first instruction
   and each latch's last one.  The first always starts a segment and the
   last always ends one, in every schedule, so the dynamic instruction
   before a visit of the header's segment is a latch's last exactly when
   the visit before it is of that latch's segment.  One pass over the
   visits counts, per loop, the header visits that follow a latch visit
   (back-edge traversals) and the others (entries).  When two loops
   share a header instruction, the later one in [loops] gets its
   visits. *)
let loop_counts t loops =
  let seg id =
    match Int_table.find_opt t.pos_of_id id with
    | Some k -> t.seg_of_slot.(k)
    | None -> -1
  in
  let loops = Array.of_list loops in
  let head_of = Array.make (Array.length t.seg_mem) (-1) in
  let latches =
    Array.mapi
      (fun k (header_first, latch_lasts) ->
        let s = seg header_first in
        if s >= 0 then head_of.(s) <- k;
        List.map seg latch_lasts)
      loops
  in
  let traversals = Array.make (Array.length loops) 0 in
  let entries = Array.make (Array.length loops) 0 in
  let prev = ref (-1) in
  for v = 0 to Bigarray.Array1.dim t.visit_seq - 1 do
    let s = Int32.to_int t.visit_seq.{v} in
    let k = head_of.(s) in
    if k >= 0 then
      if List.mem !prev latches.(k) then traversals.(k) <- traversals.(k) + 1
      else entries.(k) <- entries.(k) + 1;
    prev := s
  done;
  List.init (Array.length loops) (fun k -> (traversals.(k), entries.(k)))

(* ---- binding --------------------------------------------------------- *)

(* A trace bound to one concrete binary.  Immutable after construction;
   it may be replayed any number of times, from any domain. *)
type prepared = { pr_trace : t; pr_code : Timing.flat_code }

let summary pr = pr.pr_trace.summary

(* Lay [binary] over the trace.  Every instruction must belong to the
   captured program and stay in its issue segment, each exactly once;
   every segment must be present; and control must leave every segment
   the same way (same kind, same fall-through successor, same target)
   and enter at the same segment.  Then each instruction is decoded, in
   the binary's order, into the slots [Timing.replay_flat] reads. *)
let bind (t : t) (binary : Program.t) =
  let fsh = t.shape and sh = shape binary in
  let bl = sh.sh_layout and fl = fsh.sh_layout in
  let n = Array.length bl.Exec.code in
  let n_segs = Array.length fsh.sh_kind in
  let seg_map = Array.make (Array.length sh.sh_kind) (-1) in
  let seg_first = Array.make n_segs (-1) in
  let seen = Array.make (Array.length fl.Exec.code) false in
  (* each instruction's slot in the captured program; -1 at end slots *)
  let pos = Array.make n (-1) in
  Array.iteri
    (fun b first ->
      let len = bl.Exec.seg_len.(b) in
      for k = first to first + len - 1 do
        let i = bl.Exec.code.(k) in
        match Int_table.find_opt t.pos_of_id i.Instr.id with
        | Some p -> pos.(k) <- p
        | None ->
            divergence "instruction [%s] of the replayed binary is not traced"
              (Instr.to_string i)
      done;
      let s = t.seg_of_slot.(pos.(first)) in
      for k = first to first + len - 1 do
        if t.seg_of_slot.(pos.(k)) <> s then
          divergence
            "instruction [%s] left its issue segment (moved across a call, a \
             control transfer or a block boundary)"
            (Instr.to_string bl.Exec.code.(k));
        if seen.(pos.(k)) then
          divergence "instruction [%s] appears twice in the replayed binary"
            (Instr.to_string bl.Exec.code.(k));
        seen.(pos.(k)) <- true
      done;
      if len <> fl.Exec.seg_len.(s) then
        divergence
          "the issue segment starting at [%s] has %d instruction(s) in the \
           replayed binary, %d in the trace"
          (Instr.to_string bl.Exec.code.(first))
          len fl.Exec.seg_len.(s);
      seg_map.(b) <- s;
      seg_first.(s) <- first)
    bl.Exec.seg_first;
  Array.iteri
    (fun s first ->
      if first < 0 then
        divergence
          "the replayed binary lacks the issue segment starting at [%s]"
          (Instr.to_string fl.Exec.code.(fl.Exec.seg_first.(s))))
    seg_first;
  let mapped b = if b < 0 then -1 else seg_map.(b) in
  Array.iteri
    (fun b s ->
      if
        sh.sh_kind.(b) <> fsh.sh_kind.(s)
        || mapped sh.sh_next.(b) <> fsh.sh_next.(s)
        || mapped sh.sh_target.(b) <> fsh.sh_target.(s)
      then
        divergence
          "control leaves the issue segment ending at [%s] differently in \
           the replayed binary"
          (Instr.to_string
             bl.Exec.code.(bl.Exec.seg_first.(b) + bl.Exec.seg_len.(b) - 1)))
    seg_map;
  if mapped sh.sh_entry <> fsh.sh_entry then
    divergence "the replayed binary enters at a different issue segment";
  let cls = Array.make n 0 and flags = Array.make n 0 in
  let mrank = Array.make n (-1) and ndefs = Array.make n 0 in
  let reg_first = Array.make (n + 1) 0 in
  let regs = ref (Array.make (max 16 (2 * n)) 0) and n_regs = ref 0 in
  let push_reg r =
    if !n_regs = Array.length !regs then begin
      let bigger = Array.make (2 * !n_regs) 0 in
      Array.blit !regs 0 bigger 0 !n_regs;
      regs := bigger
    end;
    !regs.(!n_regs) <- Reg.index r;
    incr n_regs
  in
  Array.iteri
    (fun k (i : Instr.t) ->
      if pos.(k) >= 0 then begin
        let c = Instr.iclass i in
        cls.(k) <- Iclass.to_index c;
        flags.(k) <-
          (if Instr.is_load i then Timing.flag_load else 0)
          lor if Iclass.is_control c then Timing.flag_control else 0;
        mrank.(k) <- t.rank.(pos.(k));
        let defs = Instr.defs i in
        ndefs.(k) <- List.length defs;
        List.iter push_reg defs;
        List.iter push_reg (Instr.uses i)
      end;
      reg_first.(k + 1) <- !n_regs)
    bl.Exec.code;
  let regs = Array.sub !regs 0 !n_regs in
  { pr_trace = t;
    pr_code =
      { Timing.fc_seg_first = seg_first;
        fc_seg_len = fl.Exec.seg_len;
        fc_seg_mem = t.seg_mem;
        fc_cls = cls;
        fc_flags = flags;
        fc_mrank = mrank;
        fc_reg_first = reg_first;
        fc_ndefs = ndefs;
        fc_regs = regs;
        fc_named = Array.of_list (List.sort_uniq Int.compare (Array.to_list regs));
      };
  }

(* ---- running ---------------------------------------------------------- *)

(* Capture and [bind] have already checked the whole trace against the
   binary, so replay never raises [Divergence]. *)
let run pr (timing : Timing.t) =
  Timing.replay_flat timing pr.pr_code pr.pr_trace.visit_seq
    pr.pr_trace.addr_seq

let replay t (p : Program.t) (timing : Timing.t) = run (bind t p) timing
