(* Reference interpreter of IR programs, for checking [Ilp_sim.Exec].

   This is the executor as it stood before [Exec] was pre-decoded: it
   walks the program's own blocks, keeps a record per code position,
   reads operands with [List.nth], looks every taken branch and call up
   by label string, and renames a function's virtual registers into
   per-call frames.  It shares no code with [Exec] beyond [Value] and
   the IR, so a property comparing the two (sinks, counts, observer and
   branch streams, store streams, final memory and registers, fault
   messages) checks the fast interpreter against the naive one, the way
   [timing_ref.ml] checks [Timing].

   Memory is paged like [Exec]'s: 256-word pages that start as one
   shared page of zeros, so [touched_pages] lists exactly the pages a
   run stored into. *)

open Ilp_ir
open Ilp_sim

exception Fault of string

type observer = Instr.t -> int -> unit
(** [observer instr addr]: [addr] is the effective address of a load or
    store, or [-1] for other instructions. *)

type options = Exec.options = {
  mem_words : int;
  max_steps : int;
  registers : int;  (** size of the physical register file *)
}

let default_options = Exec.default_options

(* 256 words is the largest block the minor heap takes. *)
let page_bits = 8
let page_words = 1 lsl page_bits
let page_mask = page_words - 1

type memory = { words : int; pages : Value.t array array }
(** [pages.(k)] holds words [k * page_words ..]. *)

(* Every page of a fresh memory is this one, shared and never written:
   a store to it first gives the memory a page of its own. *)
let zero_page = Array.make page_words Value.zero

let create_memory words =
  { words; pages = Array.make ((words + page_mask) lsr page_bits) zero_page }

(* Unchecked against [words]: callers have bounds-checked [addr]. *)
let read m addr = m.pages.(addr lsr page_bits).(addr land page_mask)

let write m addr v =
  let k = addr lsr page_bits in
  let page = m.pages.(k) in
  let page =
    if page != zero_page then page
    else begin
      let fresh = Array.make page_words Value.zero in
      m.pages.(k) <- fresh;
      fresh
    end
  in
  page.(addr land page_mask) <- v

(* Every page the run stored into, as (first address, words). *)
let touched_pages m =
  let acc = ref [] in
  Array.iteri
    (fun k page ->
      if page != zero_page then acc := (k lsl page_bits, page) :: !acc)
    m.pages;
  List.rev !acc

type outcome = {
  dyn_instrs : int;  (** dynamically executed instructions *)
  sink : Value.t;  (** final value of the checksum cell *)
  class_counts : int array;  (** dynamic count per instruction class *)
  per_function : (string * int) list;
      (** dynamic instructions per function, heaviest first *)
  memory : memory;  (** final memory *)
  regs : Value.t array;  (** final register file *)
}

(* Resolved code addresses: function index, block index, instruction
   index within the block. *)
type code_pos = { fn : int; blk : int; ins : int }

type resolved = {
  prog_code : Instr.t array array array;
      (** [fn].(blk).(ins), what the loop executes: virtual register
          [k] of a function is renamed to [Reg.of_index (lnot k)] *)
  source : Instr.t array array array;
      (** the program's own instructions, handed to observers *)
  frame_slots : int array;  (** virtual registers per function *)
  block_of_label : (string, code_pos) Hashtbl.t;
  entry : code_pos;
}

(* Number a function's virtual registers 0, 1, ... in order of
   appearance and rename its code so that slot [k] reads as index
   [lnot k]; instructions without virtual registers are kept as they
   are. *)
let rename_virtuals (blocks : Instr.t array array) =
  let slots = Reg.Table.create 64 in
  let slot r =
    if Reg.is_physical r then r
    else
      match Reg.Table.find_opt slots r with
      | Some k -> Reg.of_index (lnot k)
      | None ->
          let k = Reg.Table.length slots in
          Reg.Table.add slots r k;
          Reg.of_index (lnot k)
  in
  let mentions_virtual (i : Instr.t) =
    List.exists Reg.is_virtual (Instr.src_regs i)
    || Option.fold ~none:false ~some:Reg.is_virtual i.Instr.dst
  in
  let renamed =
    Array.map
      (Array.map (fun i ->
           if mentions_virtual i then
             Instr.map_dst slot (Instr.map_src_regs slot i)
           else i))
      blocks
  in
  (renamed, Reg.Table.length slots)

let resolve (p : Program.t) =
  let functions = Array.of_list p.Program.functions in
  let block_of_label = Hashtbl.create 256 in
  let source =
    Array.mapi
      (fun fn f ->
        let blocks = Array.of_list f.Func.blocks in
        Array.mapi
          (fun blk b ->
            Hashtbl.replace block_of_label
              (Label.to_string b.Block.label)
              { fn; blk; ins = 0 };
            Array.of_list b.Block.instrs)
          blocks)
      functions
  in
  let renamed = Array.map rename_virtuals source in
  (* the entry block of every function is also reachable by function
     name.  A basic block elsewhere carrying the same label would be
     silently shadowed here, redirecting branches to the function entry
     (or calls into the block): refuse to run such a program.  The
     benign case is a function whose entry block is labelled with its
     own name, which codegen always emits. *)
  Array.iteri
    (fun fn f ->
      match f.Func.blocks with
      | [] -> ()
      | _ :: _ ->
          (match Hashtbl.find_opt block_of_label f.Func.name with
          | Some pos when pos.fn <> fn || pos.blk <> 0 ->
              raise
                (Fault
                   (Printf.sprintf
                      "function name %s collides with a basic-block label"
                      f.Func.name))
          | Some _ | None -> ());
          Hashtbl.replace block_of_label f.Func.name
            { fn; blk = 0; ins = 0 })
    functions;
  let entry =
    match Hashtbl.find_opt block_of_label "main" with
    | Some pos -> pos
    | None -> raise (Fault "program has no main function")
  in
  { prog_code = Array.map fst renamed;
    source;
    frame_slots = Array.map snd renamed;
    block_of_label;
    entry }

let init_memory (p : Program.t) mem_words =
  let memory = create_memory mem_words in
  let addr = ref Program.globals_base in
  List.iter
    (fun g ->
      (match g.Program.init with
      | Program.Zero -> ()
      | Program.Ints ns ->
          List.iteri (fun i n -> write memory (!addr + i) (Value.Int n)) ns
      | Program.Floats fs ->
          List.iteri (fun i f -> write memory (!addr + i) (Value.Float f)) fs);
      addr := !addr + g.Program.words)
    p.Program.globals;
  memory

let nothing_observer : observer = fun _ _ -> ()

let run ?(options = default_options) ?observer ?(observers = []) ?on_branch
    ?on_store (p : Program.t) : outcome =
  (* fan every executed instruction out to all observers in this one
     functional pass *)
  let observer =
    match (Option.to_list observer @ observers : observer list) with
    | [] -> nothing_observer
    | [ f ] -> f
    | fs -> fun i addr -> List.iter (fun f -> f i addr) fs
  in
  let r = resolve p in
  let memory = init_memory p options.mem_words in
  let regs = Array.make options.registers Value.zero in
  let new_frame fn = Array.make r.frame_slots.(fn) Value.zero in
  let frame = ref (new_frame r.entry.fn) in
  let class_counts = Array.make Iclass.count 0 in
  let fn_counts = Array.make (Array.length r.prog_code) 0 in
  let fn_names =
    Array.of_list (List.map (fun f -> f.Func.name) p.Program.functions)
  in
  regs.(Reg.index Reg.sp) <- Value.Int (options.mem_words - 8);
  let call_stack = ref [] in
  let steps = ref 0 in
  let pos = ref r.entry in
  let running = ref true in
  let sink_addr = Program.globals_base in
  (* optimization may leave empty blocks behind; execution falls through
     them to the next block with instructions *)
  let rec normalize ({ fn; blk; ins } as p) =
    if blk >= Array.length r.prog_code.(fn) then
      raise (Fault "fell off the end of a function")
    else if ins < Array.length r.prog_code.(fn).(blk) then p
    else normalize { fn; blk = blk + 1; ins = 0 }
  in
  let find_label l =
    match Hashtbl.find_opt r.block_of_label (Label.to_string l) with
    | Some p -> normalize p
    | None -> raise (Fault ("jump to unknown label " ^ Label.to_string l))
  in
  let reg_value reg =
    let k = Reg.index reg in
    if k >= 0 then regs.(k) else !frame.(lnot k)
  in
  let operand_value = function
    | Instr.Oreg reg -> reg_value reg
    | Instr.Oimm n -> Value.Int n
    | Instr.Ofimm f -> Value.Float f
  in
  (* the program's own text of the executing instruction, for messages *)
  let current () =
    let { fn; blk; ins } = !pos in
    Instr.to_string r.source.(fn).(blk).(ins)
  in
  let set_dst (i : Instr.t) v =
    match i.Instr.dst with
    | Some d ->
        let k = Reg.index d in
        if k >= 0 then regs.(k) <- v else !frame.(lnot k) <- v
    | None -> raise (Fault ("instruction without destination: " ^ current ()))
  in
  let src (i : Instr.t) n = operand_value (List.nth i.Instr.srcs n) in
  let int_binop i f =
    set_dst i
      (Value.Int (f (Value.to_int (src i 0)) (Value.to_int (src i 1))))
  in
  let float_binop i f =
    set_dst i
      (Value.Float (f (Value.to_float (src i 0)) (Value.to_float (src i 1))))
  in
  let bool_of b = Value.Int (if b then 1 else 0) in
  let cmp_values a b =
    (* branches and seq/sne compare whatever is in the registers; mixed
       comparisons indicate a compiler bug *)
    match (a, b) with
    | Value.Int x, Value.Int y -> compare x y
    | Value.Float x, Value.Float y -> compare x y
    | Value.Int x, Value.Float y -> compare (float_of_int x) y
    | Value.Float x, Value.Int y -> compare x (float_of_int y)
  in
  let effective_address (i : Instr.t) base_operand =
    let base = Value.to_int (operand_value base_operand) in
    let addr = base + i.Instr.offset in
    if addr < 0 || addr >= options.mem_words then
      raise
        (Fault
           (Printf.sprintf "memory access out of range: %d (%s)" addr
              (current ())));
    addr
  in
  (* advance to the next instruction in straight-line order *)
  let advance () =
    let { fn; blk; ins } = !pos in
    pos := normalize { fn; blk; ins = ins + 1 }
  in
  while !running do
    incr steps;
    if !steps > options.max_steps then
      raise (Fault (Printf.sprintf "exceeded %d steps" options.max_steps));
    let { fn; blk; ins } = !pos in
    let i = r.prog_code.(fn).(blk).(ins) in
    let own = r.source.(fn).(blk).(ins) in
    class_counts.(Iclass.to_index (Instr.iclass i)) <-
      class_counts.(Iclass.to_index (Instr.iclass i)) + 1;
    fn_counts.(fn) <- fn_counts.(fn) + 1;
    let addr_for_observer = ref (-1) in
    (match i.Instr.op with
    | Opcode.Add -> int_binop i ( + )
    | Opcode.Sub -> int_binop i ( - )
    | Opcode.Mul -> int_binop i ( * )
    | Opcode.Div ->
        let b = Value.to_int (src i 1) in
        if b = 0 then raise (Fault "integer division by zero");
        int_binop i ( / )
    | Opcode.Rem ->
        let b = Value.to_int (src i 1) in
        if b = 0 then raise (Fault "integer modulo by zero");
        int_binop i (fun x y -> x mod y)
    | Opcode.Neg -> set_dst i (Value.Int (-Value.to_int (src i 0)))
    | Opcode.And -> int_binop i ( land )
    | Opcode.Or -> int_binop i ( lor )
    | Opcode.Xor -> int_binop i ( lxor )
    | Opcode.Not -> set_dst i (Value.Int (lnot (Value.to_int (src i 0))))
    | Opcode.Shl -> int_binop i (fun x y -> x lsl y)
    | Opcode.Shr -> int_binop i (fun x y -> x lsr y)
    | Opcode.Sra -> int_binop i (fun x y -> x asr y)
    | Opcode.Slt -> set_dst i (bool_of (cmp_values (src i 0) (src i 1) < 0))
    | Opcode.Sle -> set_dst i (bool_of (cmp_values (src i 0) (src i 1) <= 0))
    | Opcode.Seq -> set_dst i (bool_of (cmp_values (src i 0) (src i 1) = 0))
    | Opcode.Sne -> set_dst i (bool_of (cmp_values (src i 0) (src i 1) <> 0))
    | Opcode.Mov -> set_dst i (src i 0)
    | Opcode.Li -> set_dst i (src i 0)
    | Opcode.Fli -> set_dst i (src i 0)
    | Opcode.Nop -> ()
    | Opcode.Fadd -> float_binop i ( +. )
    | Opcode.Fsub -> float_binop i ( -. )
    | Opcode.Fmul -> float_binop i ( *. )
    | Opcode.Fdiv -> float_binop i ( /. )
    | Opcode.Fneg -> set_dst i (Value.Float (-.Value.to_float (src i 0)))
    | Opcode.Feq ->
        set_dst i (bool_of (Value.to_float (src i 0) = Value.to_float (src i 1)))
    | Opcode.Flt ->
        set_dst i (bool_of (Value.to_float (src i 0) < Value.to_float (src i 1)))
    | Opcode.Fle ->
        set_dst i (bool_of (Value.to_float (src i 0) <= Value.to_float (src i 1)))
    | Opcode.Itof -> set_dst i (Value.Float (float_of_int (Value.to_int (src i 0))))
    | Opcode.Ftoi ->
        set_dst i (Value.Int (int_of_float (Value.to_float (src i 0))))
    | Opcode.Ld -> (
        match i.Instr.srcs with
        | [ base ] ->
            let addr = effective_address i base in
            addr_for_observer := addr;
            set_dst i (read memory addr)
        | _ -> raise (Fault ("malformed load: " ^ Instr.to_string own)))
    | Opcode.St -> (
        match i.Instr.srcs with
        | [ v; base ] ->
            let addr = effective_address i base in
            addr_for_observer := addr;
            let value = operand_value v in
            write memory addr value;
            (match on_store with Some f -> f own addr value | None -> ())
        | _ -> raise (Fault ("malformed store: " ^ Instr.to_string own)))
    | Opcode.Beq | Opcode.Bne | Opcode.Blt | Opcode.Ble | Opcode.Bgt
    | Opcode.Bge ->
        ()
    | Opcode.Jmp | Opcode.Call | Opcode.Ret | Opcode.Halt -> ());
    observer own !addr_for_observer;
    (* control flow *)
    (match i.Instr.op with
    | Opcode.Beq | Opcode.Bne | Opcode.Blt | Opcode.Ble | Opcode.Bgt
    | Opcode.Bge ->
        let c = cmp_values (src i 0) (src i 1) in
        let taken =
          match i.Instr.op with
          | Opcode.Beq -> c = 0
          | Opcode.Bne -> c <> 0
          | Opcode.Blt -> c < 0
          | Opcode.Ble -> c <= 0
          | Opcode.Bgt -> c > 0
          | Opcode.Bge -> c >= 0
          | _ -> assert false
        in
        (match on_branch with Some f -> f own taken | None -> ());
        if taken then
          match i.Instr.target with
          | Some l -> pos := find_label l
          | None -> raise (Fault "branch without target")
        else advance ()
    | Opcode.Jmp -> (
        match i.Instr.target with
        | Some l -> pos := find_label l
        | None -> raise (Fault "jump without target"))
    | Opcode.Call -> (
        match i.Instr.target with
        | Some l ->
            let callee = find_label l in
            call_stack := (!pos, !frame) :: !call_stack;
            frame := new_frame callee.fn;
            pos := callee
        | None -> raise (Fault "call without target"))
    | Opcode.Ret -> (
        match !call_stack with
        | (ra, caller_frame) :: rest ->
            call_stack := rest;
            frame := caller_frame;
            pos := ra;
            advance ()
        | [] -> running := false)
    | Opcode.Halt -> running := false
    | _ -> advance ());
    ()
  done;
  let per_function =
    Array.to_list (Array.mapi (fun k c -> (fn_names.(k), c)) fn_counts)
    |> List.filter (fun (_, c) -> c > 0)
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  { dyn_instrs = !steps;
    sink = read memory sink_addr;
    class_counts;
    per_function;
    memory;
    regs;
  }
