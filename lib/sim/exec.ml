(* Functional execution of IR programs.

   The executor interprets any validated program — still in virtual
   registers or fully register-allocated — and can drive an observer
   callback with every executed instruction, in program order.  Timing
   is not one of its observers: measurements record the run's flat
   trace (below) and replay it.  The differential oracle runs every
   pass snapshot through the same loop without allocating it first.

   Machine state: a physical register file, a word-addressed memory
   (globals low, stack high), and a return-address stack managed by
   call/ret — return addresses never touch simulated memory, which keeps
   the calling convention out of the measured instruction stream, as on
   the MultiTitan with its dedicated PSW return-PC.

   Each run first lowers the program into flat arrays ([layout], then
   [resolve]).  Every instruction gets a slot: functions in program
   order, blocks in layout order, instructions in block order, and one
   end slot after each function's last block.  Empty blocks get no
   slot, so a label resolves to the slot where its block's instructions
   would start, which is the fall-through the executor wants, and
   falling through a function's last instruction lands on its end slot,
   which faults.  Per slot the loop reads an opcode, a destination,
   operand slots, an offset and a resolved target; it allocates nothing
   per step but the [Value.t] it stores, and never looks a label up.

   Operands index one of two arrays.  The globals hold the physical
   registers followed by the program's immediates, one slot per
   immediate operand; non-negative slots read there.  Virtual registers
   live in per-activation frames: [resolve] numbers each function's
   virtual registers densely, virtual slot [k] is encoded as [lnot k],
   a call gives the callee a fresh zeroed frame and a return restores
   the caller's.  Observers and hooks receive the program's own
   instructions.

   The slot layout also cuts the program into issue segments (see
   Trace_buffer): runs of a block that end at a control instruction or
   at the block's end.  A run with a recorder appends the segment
   number of every segment it enters, and the effective address of
   every load and store, to off-heap chunks; that is the whole flat
   trace, captured by the same loop.

   Memory is paged: a table of 256-word pages that all start as one
   shared page of zeros, and a page of its own is allocated on the
   first store into it.  A run pays for the pages it touches, not for
   [mem_words]. *)

open Ilp_ir

exception Fault of string

type observer = Instr.t -> int -> unit
(** [observer instr addr]: [addr] is the effective address of a load or
    store, or [-1] for other instructions. *)

type options = {
  mem_words : int;
  max_steps : int;
  registers : int;  (** size of the physical register file *)
}

let default_options =
  { mem_words = 1 lsl 20; max_steps = 400_000_000; registers = 256 }

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

let load m addr =
  if addr < 0 || addr >= m.words then invalid_arg "Exec.load: out of range";
  read m addr

let first_difference a b =
  let page m k = if k < Array.length m.pages then m.pages.(k) else zero_page in
  let n = max (Array.length a.pages) (Array.length b.pages) in
  let rec scan k =
    if k >= n then None
    else
      let pa = page a k and pb = page b k in
      if pa == pb then scan (k + 1)
      else
        let rec find j =
          if j = page_words then scan (k + 1)
          else if Value.equal pa.(j) pb.(j) then find (j + 1)
          else Some ((k lsl page_bits) + j)
        in
        find 0
  in
  scan 0

type outcome = {
  dyn_instrs : int;  (** dynamically executed instructions *)
  sink : Value.t;  (** final value of the checksum cell *)
  class_counts : int array;  (** dynamic count per instruction class *)
  per_function : (string * int) list;
      (** dynamic instructions per function, heaviest first *)
  memory : memory;  (** final memory *)
  regs : Value.t array;  (** final register file *)
}

(* ---- slots and issue segments ---------------------------------------- *)

type layout = {
  code : Instr.t array;
  fn_first : int array;
  seg : int array;
  seg_first : int array;
  seg_len : int array;
  target : int array;
  entry : int;
}

(* What an end slot holds; it never executes. *)
let end_marker = Instr.make Opcode.Halt

let is_control (op : Opcode.t) =
  match op with
  | Opcode.Beq | Opcode.Bne | Opcode.Blt | Opcode.Ble | Opcode.Bgt
  | Opcode.Bge | Opcode.Jmp | Opcode.Call | Opcode.Ret | Opcode.Halt ->
      true
  | _ -> false

let layout (p : Program.t) =
  let functions = Array.of_list p.Program.functions in
  let n_fns = Array.length functions in
  let fn_first = Array.make (n_fns + 1) 0 in
  let n = ref 0 in
  Array.iteri
    (fun f (fn : Func.t) ->
      fn_first.(f) <- !n;
      List.iter
        (fun (b : Block.t) -> n := !n + List.length b.Block.instrs)
        fn.Func.blocks;
      incr n)
    functions;
  let n = !n in
  fn_first.(n_fns) <- n;
  let code = Array.make n end_marker and seg = Array.make n (-1) in
  (* label -> (slot, function, block); a later block with the same label
     replaces an earlier one *)
  let labels = Hashtbl.create 64 in
  let n_segs = ref 0 in
  Array.iteri
    (fun f (fn : Func.t) ->
      let slot = ref fn_first.(f) in
      List.iteri
        (fun blk (b : Block.t) ->
          Hashtbl.replace labels
            (Label.to_string b.Block.label)
            (!slot, f, blk);
          let cut = ref true in
          List.iter
            (fun (i : Instr.t) ->
              code.(!slot) <- i;
              if !cut then begin
                seg.(!slot) <- !n_segs;
                incr n_segs
              end;
              cut := is_control i.Instr.op;
              incr slot)
            b.Block.instrs)
        fn.Func.blocks)
    functions;
  (* the entry block of every function is also reachable by function
     name.  A basic block elsewhere carrying the same label would be
     silently shadowed here, redirecting branches to the function entry
     (or calls into the block): refuse to run such a program.  The
     benign case is a function whose entry block is labelled with its
     own name, which codegen always emits. *)
  Array.iteri
    (fun f (fn : Func.t) ->
      if fn.Func.blocks <> [] then begin
        (match Hashtbl.find_opt labels fn.Func.name with
        | Some (_, f', blk) when f' <> f || blk <> 0 ->
            raise
              (Fault
                 (Printf.sprintf
                    "function name %s collides with a basic-block label"
                    fn.Func.name))
        | Some _ | None -> ());
        Hashtbl.replace labels fn.Func.name (fn_first.(f), f, 0)
      end)
    functions;
  let seg_first = Array.make !n_segs 0 and seg_len = Array.make !n_segs 0 in
  let open_seg = ref (-1) in
  let close s =
    if !open_seg >= 0 then seg_len.(!open_seg) <- s - seg_first.(!open_seg)
  in
  let target = Array.make n (-1) in
  for s = 0 to n - 1 do
    let k = seg.(s) in
    if k >= 0 then begin
      close s;
      seg_first.(k) <- s;
      open_seg := k
    end
    else if code.(s) == end_marker then begin
      close s;
      open_seg := -1
    end;
    let i = code.(s) in
    if is_control i.Instr.op then
      match i.Instr.target with
      | Some l -> (
          match Hashtbl.find_opt labels (Label.to_string l) with
          | Some (slot, _, _) -> target.(s) <- slot
          | None -> ())
      | None -> ()
  done;
  let entry =
    match Hashtbl.find_opt labels "main" with
    | Some (slot, _, _) -> slot
    | None -> raise (Fault "program has no main function")
  in
  { code; fn_first; seg; seg_first; seg_len; target; entry }

(* The function whose slots include [slot]. *)
let fn_at l slot =
  let lo = ref 0 and hi = ref (Array.length l.fn_first - 2) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if l.fn_first.(mid) <= slot then lo := mid else hi := mid - 1
  done;
  !lo

(* ---- decoding --------------------------------------------------------- *)

(* What the loop dispatches on.  [Mov] also covers [li] and [fli], whose
   immediate is a constant slot; [End] is a function's end slot, [Bad]
   an instruction that faults when it executes (see [malformed]). *)
type op =
  | Add | Sub | Mul | Div | Rem | Neg | And | Or | Xor | Not | Shl | Shr
  | Sra | Slt | Sle | Seq | Sne | Mov | Nop | Fadd | Fsub | Fmul | Fdiv
  | Fneg | Feq | Flt | Fle | Itof | Ftoi | Ld | St | Beq | Bne | Blt | Ble
  | Bgt | Bge | Jmp | Call | Ret | Halt | End | Bad

let op_of : Opcode.t -> op = function
  | Opcode.Add -> Add
  | Opcode.Sub -> Sub
  | Opcode.Mul -> Mul
  | Opcode.Div -> Div
  | Opcode.Rem -> Rem
  | Opcode.Neg -> Neg
  | Opcode.And -> And
  | Opcode.Or -> Or
  | Opcode.Xor -> Xor
  | Opcode.Not -> Not
  | Opcode.Shl -> Shl
  | Opcode.Shr -> Shr
  | Opcode.Sra -> Sra
  | Opcode.Slt -> Slt
  | Opcode.Sle -> Sle
  | Opcode.Seq -> Seq
  | Opcode.Sne -> Sne
  | Opcode.Mov | Opcode.Li | Opcode.Fli -> Mov
  | Opcode.Nop -> Nop
  | Opcode.Fadd -> Fadd
  | Opcode.Fsub -> Fsub
  | Opcode.Fmul -> Fmul
  | Opcode.Fdiv -> Fdiv
  | Opcode.Fneg -> Fneg
  | Opcode.Feq -> Feq
  | Opcode.Flt -> Flt
  | Opcode.Fle -> Fle
  | Opcode.Itof -> Itof
  | Opcode.Ftoi -> Ftoi
  | Opcode.Ld -> Ld
  | Opcode.St -> St
  | Opcode.Beq -> Beq
  | Opcode.Bne -> Bne
  | Opcode.Blt -> Blt
  | Opcode.Ble -> Ble
  | Opcode.Bgt -> Bgt
  | Opcode.Bge -> Bge
  | Opcode.Jmp -> Jmp
  | Opcode.Call -> Call
  | Opcode.Ret -> Ret
  | Opcode.Halt -> Halt

type resolved = {
  lay : layout;
  ops : op array;
  dst : int array;  (** per slot: destination slot *)
  x : int array;  (** per slot: first operand slot *)
  y : int array;  (** per slot: second operand slot *)
  imm : int array;
      (** per slot: the offset of a load or store, the callee's function
          index of a call *)
  consts : Value.t array;  (** the immediates, after the registers *)
  frame_slots : int array;  (** virtual registers per function *)
}

(* virtual register index -> frame slot, for one function at a time *)
module Vtable = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

exception Malformed

let resolve ~registers (p : Program.t) =
  let lay = layout p in
  let n = Array.length lay.code in
  let ops = Array.make n End in
  let dst = Array.make n 0 and x = Array.make n 0 and y = Array.make n 0 in
  let imm = Array.make n 0 in
  let n_fns = Array.length lay.fn_first - 1 in
  let frame_slots = Array.make n_fns 0 in
  let consts = ref (Array.make 16 Value.zero) and n_consts = ref 0 in
  let const v =
    if !n_consts = Array.length !consts then begin
      let bigger = Array.make (2 * !n_consts) Value.zero in
      Array.blit !consts 0 bigger 0 !n_consts;
      consts := bigger
    end;
    !consts.(!n_consts) <- v;
    incr n_consts;
    registers + !n_consts - 1
  in
  let virt = Vtable.create 64 in
  let reg r =
    let k = Reg.index r in
    if k >= 0 then if k < registers then k else raise Malformed
    else
      match Vtable.find_opt virt k with
      | Some v -> lnot v
      | None ->
          let v = Vtable.length virt in
          Vtable.add virt k v;
          lnot v
  in
  let operand = function
    | Instr.Oreg r -> reg r
    | Instr.Oimm k -> const (Value.Int k)
    | Instr.Ofimm f -> const (Value.Float f)
  in
  let decode s (i : Instr.t) =
    let op = op_of i.Instr.op in
    (match (op, i.Instr.srcs, i.Instr.dst) with
    | ( ( Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | Sra | Slt
        | Sle | Seq | Sne | Fadd | Fsub | Fmul | Fdiv | Feq | Flt | Fle ),
        a :: b :: _,
        Some d ) ->
        dst.(s) <- reg d;
        x.(s) <- operand a;
        y.(s) <- operand b
    | (Neg | Not | Mov | Fneg | Itof | Ftoi), a :: _, Some d ->
        dst.(s) <- reg d;
        x.(s) <- operand a
    | Ld, [ base ], Some d ->
        dst.(s) <- reg d;
        x.(s) <- operand base;
        imm.(s) <- i.Instr.offset
    | St, [ v; base ], _ ->
        x.(s) <- operand v;
        y.(s) <- operand base;
        imm.(s) <- i.Instr.offset
    | (Beq | Bne | Blt | Ble | Bgt | Bge), a :: b :: _, _ ->
        x.(s) <- operand a;
        y.(s) <- operand b
    | Call, _, _ ->
        let t = lay.target.(s) in
        if t >= 0 then imm.(s) <- fn_at lay t
    | (Nop | Jmp | Ret | Halt), _, _ -> ()
    | _ -> raise Malformed);
    op
  in
  for f = 0 to n_fns - 1 do
    Vtable.clear virt;
    for s = lay.fn_first.(f) to lay.fn_first.(f + 1) - 2 do
      ops.(s) <- (try decode s lay.code.(s) with Malformed -> Bad)
    done;
    frame_slots.(f) <- Vtable.length virt
  done;
  { lay; ops; dst; x; y; imm; consts = Array.sub !consts 0 !n_consts;
    frame_slots }

(* The fault of an instruction decoded as [Bad], raised when it
   executes. *)
let malformed ~registers (i : Instr.t) =
  let regs = Option.to_list i.Instr.dst @ Instr.src_regs i in
  if List.exists (fun r -> Reg.index r >= registers) regs then
    invalid_arg "index out of bounds";
  let fault what = raise (Fault (what ^ ": " ^ Instr.to_string i)) in
  match (i.Instr.op, i.Instr.srcs) with
  | Opcode.Ld, [ _ ] -> fault "instruction without destination"
  | Opcode.Ld, _ -> fault "malformed load"
  | Opcode.St, _ -> fault "malformed store"
  | op, _ when Opcode.is_branch op || Option.is_some i.Instr.dst ->
      fault "malformed instruction"
  | _ -> fault "instruction without destination"

(* A taken branch, jump or call whose target did not resolve. *)
let bad_target (i : Instr.t) =
  match (i.Instr.target, i.Instr.op) with
  | Some l, _ -> raise (Fault ("jump to unknown label " ^ Label.to_string l))
  | None, Opcode.Jmp -> raise (Fault "jump without target")
  | None, Opcode.Call -> raise (Fault "call without target")
  | None, _ -> raise (Fault "branch without target")

(* ---- recording -------------------------------------------------------- *)

type visits = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
type addresses = visits

(* A sequence growing outside the OCaml heap: the chunk being filled
   and the full ones before it, newest first. *)
type chunks = {
  mutable last : visits;
  mutable used : int;  (** entries used in [last] *)
  mutable full : visits list;
}

(* Entries per chunk. *)
let chunk = 1 lsl 16

let new_chunks size =
  { last = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout size;
    used = 0;
    full = [];
  }

let push c x =
  if c.used = chunk then begin
    c.full <- c.last :: c.full;
    c.last <- Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout chunk;
    c.used <- 0
  end;
  Bigarray.Array1.unsafe_set c.last c.used (Int32.of_int x);
  c.used <- c.used + 1

(* The chunks laid end to end in one exact-size array. *)
let contents c =
  let total = (chunk * List.length c.full) + c.used in
  let out = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout total in
  let put pos a len =
    Bigarray.Array1.blit (Bigarray.Array1.sub a 0 len)
      (Bigarray.Array1.sub out pos len)
  in
  put (total - c.used) c.last c.used;
  List.iteri
    (fun k a -> put (total - c.used - ((k + 1) * chunk)) a chunk)
    c.full;
  out

(* Segment visits and addresses.  Runs without a recorder share
   [no_recorder] and never write it: they test [recording] first. *)
type recorder = { vis : chunks; adr : chunks }

let no_recorder = { vis = new_chunks 0; adr = new_chunks 0 }

type recording = { layout : layout; visits : visits; addresses : addresses }

(* ---- the loop --------------------------------------------------------- *)

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

let[@inline] get (g : Value.t array) (frame : Value.t array) o =
  if o >= 0 then g.(o) else frame.(lnot o)

let[@inline] set (g : Value.t array) (frame : Value.t array) o v =
  if o >= 0 then g.(o) <- v else frame.(lnot o) <- v

let[@inline] int_of v =
  match v with Value.Int n -> n | Value.Float _ -> Value.to_int v

let[@inline] float_of v =
  match v with Value.Float f -> f | Value.Int _ -> Value.to_float v

let[@inline] bool_of b = Value.Int (if b then 1 else 0)

(* branches and seq/sne compare whatever is in the registers; mixed
   comparisons indicate a compiler bug *)
let[@inline] cmp_values a b =
  match (a, b) with
  | Value.Int x, Value.Int y -> compare x y
  | Value.Float x, Value.Float y -> compare x y
  | Value.Int x, Value.Float y -> compare (float_of_int x) y
  | Value.Float x, Value.Int y -> compare x (float_of_int y)

(* [next] values besides a slot *)
let stop = -1
let unresolved = -2

let execute ~options ~observer ~on_branch ~on_store ~recorder (p : Program.t)
    =
  let registers = options.registers in
  let r = resolve ~registers p in
  let lay = r.lay in
  let code = lay.code and ops = r.ops and dsts = r.dst in
  let xs = r.x and ys = r.y and imms = r.imm and targets = lay.target in
  let segs = lay.seg in
  let memory = init_memory p options.mem_words in
  let mem_words = options.mem_words and max_steps = options.max_steps in
  let g = Array.make (registers + Array.length r.consts) Value.zero in
  Array.blit r.consts 0 g registers (Array.length r.consts);
  g.(Reg.index Reg.sp) <- Value.Int (mem_words - 8);
  let recording, rc =
    match recorder with Some rc -> (true, rc) | None -> (false, no_recorder)
  in
  let observe = observer != nothing_observer in
  let hooks = observe || Option.is_some on_branch in
  let counts = Array.make (Array.length code) 0 in
  let frame = ref (Array.make r.frame_slots.(fn_at lay lay.entry) Value.zero) in
  (* the return stack: slots to resume at and the frames to restore *)
  let ret_slots = ref (Array.make 16 0) in
  let ret_frames = ref (Array.make 16 [||]) in
  let depth = ref 0 in
  let steps = ref 0 in
  let pc = ref lay.entry in
  while !pc >= 0 do
    let at = !pc in
    let op = ops.(at) in
    incr steps;
    if !steps > max_steps then begin
      match op with
      | End -> raise (Fault "fell off the end of a function")
      | _ -> raise (Fault (Printf.sprintf "exceeded %d steps" max_steps))
    end;
    counts.(at) <- counts.(at) + 1;
    if recording then begin
      let s = segs.(at) in
      if s >= 0 then push rc.vis s
    end;
    let f = !frame and d = dsts.(at) and x = xs.(at) and y = ys.(at) in
    let next = ref (at + 1) and addr = ref (-1) and taken = ref false in
    (* two-operand instructions read their second operand first, as the
       reference interpreter's curried helpers do, so that a type error
       reports the same value *)
    (match op with
    | Add ->
        let b = int_of (get g f y) in
        set g f d (Value.Int (int_of (get g f x) + b))
    | Sub ->
        let b = int_of (get g f y) in
        set g f d (Value.Int (int_of (get g f x) - b))
    | Mul ->
        let b = int_of (get g f y) in
        set g f d (Value.Int (int_of (get g f x) * b))
    | Div ->
        let b = int_of (get g f y) in
        if b = 0 then raise (Fault "integer division by zero");
        set g f d (Value.Int (int_of (get g f x) / b))
    | Rem ->
        let b = int_of (get g f y) in
        if b = 0 then raise (Fault "integer modulo by zero");
        set g f d (Value.Int (int_of (get g f x) mod b))
    | Neg -> set g f d (Value.Int (-int_of (get g f x)))
    | And ->
        let b = int_of (get g f y) in
        set g f d (Value.Int (int_of (get g f x) land b))
    | Or ->
        let b = int_of (get g f y) in
        set g f d (Value.Int (int_of (get g f x) lor b))
    | Xor ->
        let b = int_of (get g f y) in
        set g f d (Value.Int (int_of (get g f x) lxor b))
    | Not -> set g f d (Value.Int (lnot (int_of (get g f x))))
    | Shl ->
        let b = int_of (get g f y) in
        set g f d (Value.Int (int_of (get g f x) lsl b))
    | Shr ->
        let b = int_of (get g f y) in
        set g f d (Value.Int (int_of (get g f x) lsr b))
    | Sra ->
        let b = int_of (get g f y) in
        set g f d (Value.Int (int_of (get g f x) asr b))
    | Slt -> set g f d (bool_of (cmp_values (get g f x) (get g f y) < 0))
    | Sle -> set g f d (bool_of (cmp_values (get g f x) (get g f y) <= 0))
    | Seq -> set g f d (bool_of (cmp_values (get g f x) (get g f y) = 0))
    | Sne -> set g f d (bool_of (cmp_values (get g f x) (get g f y) <> 0))
    | Mov -> set g f d (get g f x)
    | Nop -> ()
    | Fadd ->
        let b = float_of (get g f y) in
        set g f d (Value.Float (float_of (get g f x) +. b))
    | Fsub ->
        let b = float_of (get g f y) in
        set g f d (Value.Float (float_of (get g f x) -. b))
    | Fmul ->
        let b = float_of (get g f y) in
        set g f d (Value.Float (float_of (get g f x) *. b))
    | Fdiv ->
        let b = float_of (get g f y) in
        set g f d (Value.Float (float_of (get g f x) /. b))
    | Fneg -> set g f d (Value.Float (-.float_of (get g f x)))
    | Feq ->
        let b = float_of (get g f y) in
        set g f d (bool_of (float_of (get g f x) = b))
    | Flt ->
        let b = float_of (get g f y) in
        set g f d (bool_of (float_of (get g f x) < b))
    | Fle ->
        let b = float_of (get g f y) in
        set g f d (bool_of (float_of (get g f x) <= b))
    | Itof -> set g f d (Value.Float (float_of_int (int_of (get g f x))))
    | Ftoi -> set g f d (Value.Int (int_of_float (float_of (get g f x))))
    | Ld ->
        let a = int_of (get g f x) + imms.(at) in
        if a < 0 || a >= mem_words then
          raise
            (Fault
               (Printf.sprintf "memory access out of range: %d (%s)" a
                  (Instr.to_string code.(at))));
        addr := a;
        if recording then push rc.adr a;
        set g f d (read memory a)
    | St ->
        let a = int_of (get g f y) + imms.(at) in
        if a < 0 || a >= mem_words then
          raise
            (Fault
               (Printf.sprintf "memory access out of range: %d (%s)" a
                  (Instr.to_string code.(at))));
        addr := a;
        if recording then push rc.adr a;
        let v = get g f x in
        write memory a v;
        (match on_store with Some h -> h code.(at) a v | None -> ())
    | Beq | Bne | Blt | Ble | Bgt | Bge ->
        let c = cmp_values (get g f x) (get g f y) in
        let t =
          match op with
          | Beq -> c = 0
          | Bne -> c <> 0
          | Blt -> c < 0
          | Ble -> c <= 0
          | Bgt -> c > 0
          | _ -> c >= 0
        in
        taken := t;
        if t then begin
          let dest = targets.(at) in
          next := if dest >= 0 then dest else unresolved
        end
    | Jmp ->
        let dest = targets.(at) in
        next := if dest >= 0 then dest else unresolved
    | Call ->
        let dest = targets.(at) in
        if dest < 0 then next := unresolved
        else begin
          let top = !depth in
          if top = Array.length !ret_slots then begin
            let slots = Array.make (2 * top) 0 in
            let frames = Array.make (2 * top) [||] in
            Array.blit !ret_slots 0 slots 0 top;
            Array.blit !ret_frames 0 frames 0 top;
            ret_slots := slots;
            ret_frames := frames
          end;
          !ret_slots.(top) <- at + 1;
          !ret_frames.(top) <- f;
          depth := top + 1;
          frame := Array.make r.frame_slots.(imms.(at)) Value.zero;
          next := dest
        end
    | Ret ->
        let top = !depth - 1 in
        if top < 0 then next := stop
        else begin
          depth := top;
          next := !ret_slots.(top);
          frame := !ret_frames.(top);
          !ret_frames.(top) <- [||]
        end
    | Halt -> next := stop
    | End -> raise (Fault "fell off the end of a function")
    | Bad -> malformed ~registers code.(at));
    if hooks then begin
      let own = code.(at) in
      observer own !addr;
      match (on_branch, op) with
      | Some h, (Beq | Bne | Blt | Ble | Bgt | Bge) -> h own !taken
      | _ -> ()
    end;
    if !next = unresolved then bad_target code.(at);
    pc := !next
  done;
  let n_fns = Array.length lay.fn_first - 1 in
  let class_counts = Array.make Iclass.count 0 in
  let fn_counts = Array.make n_fns 0 in
  for fn = 0 to n_fns - 1 do
    for s = lay.fn_first.(fn) to lay.fn_first.(fn + 1) - 2 do
      let c = counts.(s) in
      if c > 0 then begin
        fn_counts.(fn) <- fn_counts.(fn) + c;
        let k = Iclass.to_index (Instr.iclass code.(s)) in
        class_counts.(k) <- class_counts.(k) + c
      end
    done
  done;
  let fn_names =
    Array.of_list (List.map (fun f -> f.Func.name) p.Program.functions)
  in
  let per_function =
    Array.to_list (Array.mapi (fun k c -> (fn_names.(k), c)) fn_counts)
    |> List.filter (fun (_, c) -> c > 0)
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  ( { dyn_instrs = !steps;
      sink = read memory Program.globals_base;
      class_counts;
      per_function;
      memory;
      regs = Array.sub g 0 registers;
    },
    lay )

let run ?(options = default_options) ?(observer = nothing_observer)
    ?on_branch ?on_store (p : Program.t) : outcome =
  fst (execute ~options ~observer ~on_branch ~on_store ~recorder:None p)

let record ?(options = default_options) (p : Program.t) =
  if options.mem_words > 1 lsl 31 then
    invalid_arg "Exec.record: addresses beyond 2^31 words";
  let rc = { vis = new_chunks chunk; adr = new_chunks chunk } in
  let outcome, layout =
    execute ~options ~observer:nothing_observer ~on_branch:None
      ~on_store:None ~recorder:(Some rc) p
  in
  ( outcome,
    { layout; visits = contents rc.vis; addresses = contents rc.adr } )
