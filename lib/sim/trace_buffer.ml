(* Capture-once/replay-many dynamic traces.

   A sweep like Figure 4-1 measures the same workload on many machine
   configurations.  The dynamic instruction stream is almost entirely
   shared between those measurements: compilation depends on the
   configuration only through the register split (regalloc) and the
   final per-block scheduling pass, and the scheduler permutes
   instructions *within* basic blocks only, never across calls or past
   the terminator (see Ddg).  So the branch decisions, the per-static-
   instruction effective-address sequences, and each instruction's
   dynamic execution count are invariant across every schedule of one
   pre-scheduled program.

   [capture] runs the functional interpreter once over a pre-scheduled
   program and records, per static instruction (keyed by [Instr.id]):

   - for loads and stores, the sequence of effective addresses, packed
     into growable int arrays;
   - for conditional branches, the sequence of taken bits, packed 62
     per word;

   plus the run summary (dynamic count, checksum, class mix).  Unlike
   [Trace.capture]'s list of records, this representation holds 10^7+
   entries in a few megabytes.

   Replay works on a flat form of the trace.  An *issue segment* is a
   run of a basic block that ends at a call, at another control
   transfer or at the block's end.  Ddg makes calls barriers and keeps
   terminators last, so a segment holds the same instructions in every
   schedule, only their order changes.  [flatten] walks the captured
   program once, following the recorded taken bits, checking every
   stream as it goes, and keeps two arrays, both exact-size and off the
   OCaml heap: the dynamic sequence of segment visits, and each visit's
   memory addresses (one entry per load or store of the segment, in the
   captured order).  The per-instruction streams can then be dropped.

   [bind] lays one scheduled binary over the flat form: it checks that
   every instruction stays in its segment, once, and that control
   leaves every segment the same way, then decodes the binary in its
   own order for [Timing.replay_flat], the loop that issues it.  That
   loop lives in [Timing] because the dev profile compiles with
   [-opaque], under which a loop here would reach the issue step
   through a generic application per instruction.  Any mismatch
   between the trace and the binary raises [Divergence] rather than
   producing wrong timings. *)

open Ilp_ir

exception Divergence of string

let divergence fmt = Printf.ksprintf (fun s -> raise (Divergence s)) fmt

(* growable packed int vector *)
module Ivec = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 8 0; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let d = Array.make (2 * v.len) 0 in
      Array.blit v.data 0 d 0 v.len;
      v.data <- d
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1
end

(* growable bit vector: 62 taken-bits per word *)
module Bitvec = struct
  type t = { mutable data : int array; mutable len : int }

  let bits_per_word = 62

  let create () = { data = Array.make 4 0; len = 0 }

  let push v b =
    let w = v.len / bits_per_word and k = v.len mod bits_per_word in
    if w = Array.length v.data then begin
      let d = Array.make (2 * w) 0 in
      Array.blit v.data 0 d 0 w;
      v.data <- d
    end;
    if b then v.data.(w) <- v.data.(w) lor (1 lsl k);
    v.len <- v.len + 1

  let get v i =
    (v.data.(i / bits_per_word) lsr (i mod bits_per_word)) land 1 = 1
end

module Int_table = Hashtbl.Make (Int)

type summary = {
  s_dyn_instrs : int;
  s_sink : Value.t;
  s_class_counts : int array;
}

(* How control leaves an issue segment: the kind of its last
   instruction, or [Fall] when the segment ends at its block's end. *)
type kind = Fall | Branch | Jump | Call | Ret | Halt

(* The issue segments of one program, numbered in layout order
   (functions in program order, blocks in layout order, each block cut
   after every control instruction), with the control flow between
   them. *)
type shape = {
  sh_code : Instr.t array;  (** every instruction, in flat static order *)
  sh_seg_first : int array;  (** per segment: flat position of its first *)
  sh_seg_len : int array;
  sh_kind : kind array;
  sh_next : int array;
      (** per segment: the segment that follows it in its function, or -1 *)
  sh_target : int array;
      (** per segment: the segment its final branch, jump or call
          reaches, or -1 *)
  sh_entry : int;  (** the segment [main] starts with, or -1 *)
}

(* A trace flattened over its captured program: the segment table, each
   instruction's segment and memory rank, and the dynamic visits and
   addresses off the OCaml heap. *)
type flat = {
  f_summary : summary;
  f_shape : shape;
  f_pos_of_id : int Int_table.t;  (** [Instr.id] -> flat position *)
  f_seg_of_pos : int array;
  f_rank : int array;
      (** per position: its entry within a visit's addresses, or -1 *)
  f_seg_mem : int array;  (** per segment: address entries per visit *)
  f_visits : Timing.visits;
  f_addrs : Timing.addresses;
}

type t = {
  dyn_instrs : int;
  sink : Value.t;
  class_counts : int array;
  addrs : (int, Ivec.t) Hashtbl.t;
      (** [Instr.id] -> effective addresses, in execution order *)
  branches : (int, Bitvec.t) Hashtbl.t;
      (** [Instr.id] -> taken bits, in execution order *)
  program : Program.t;  (** the program the streams belong to *)
  flat : flat option Atomic.t;  (** [flatten]'s result, once computed *)
}

let dyn_instrs t = t.dyn_instrs
let sink t = t.sink
let class_counts t = t.class_counts

(* Approximate buffer size: one word per stored address, 1/62 word per
   branch outcome, plus per-stream bookkeeping. *)
let footprint_words t =
  let stream _ (v : Ivec.t) acc = acc + Array.length v.data + 2 in
  let bits _ (v : Bitvec.t) acc = acc + Array.length v.data + 2 in
  Hashtbl.fold stream t.addrs 0 + Hashtbl.fold bits t.branches 0

(* used words of a bit vector: 62 bits per word, rounded up *)
let bitvec_words len = (len + Bitvec.bits_per_word - 1) / Bitvec.bits_per_word

type stats = {
  mem_streams : int;
  branch_streams : int;
  addr_entries : int;
  taken_bits : int;
  dyn : int;
  packed_bytes : int;
}

(* Exact cost of the capture: stream counts, recorded entries, and the
   bytes the packed payload occupies (8 bytes per address, 8 bytes per
   62 taken bits — capacity slack in the growable vectors excluded). *)
let stats t =
  let addr_entries =
    Hashtbl.fold (fun _ (v : Ivec.t) acc -> acc + v.Ivec.len) t.addrs 0
  in
  let taken_bits =
    Hashtbl.fold (fun _ (v : Bitvec.t) acc -> acc + v.Bitvec.len) t.branches 0
  in
  let bit_words =
    Hashtbl.fold
      (fun _ (v : Bitvec.t) acc -> acc + bitvec_words v.Bitvec.len)
      t.branches 0
  in
  { mem_streams = Hashtbl.length t.addrs;
    branch_streams = Hashtbl.length t.branches;
    addr_entries;
    taken_bits;
    dyn = t.dyn_instrs;
    packed_bytes = 8 * (addr_entries + bit_words);
  }

let byte_size t = (stats t).packed_bytes

(* Logical equality: same run summary and, per traced instruction, the
   same recorded streams.  Capacity slack in the growable vectors is
   ignored, so a capture and its packed/unpacked image compare equal. *)
let equal a b =
  let ivec_eq (x : Ivec.t) (y : Ivec.t) =
    x.Ivec.len = y.Ivec.len
    &&
    let rec go i = i >= x.Ivec.len || (x.Ivec.data.(i) = y.Ivec.data.(i) && go (i + 1)) in
    go 0
  in
  let bitvec_eq (x : Bitvec.t) (y : Bitvec.t) =
    x.Bitvec.len = y.Bitvec.len
    &&
    let rec go i =
      i >= x.Bitvec.len || (Bitvec.get x i = Bitvec.get y i && go (i + 1))
    in
    go 0
  in
  let table_eq eq ta tb =
    Hashtbl.length ta = Hashtbl.length tb
    && Hashtbl.fold
         (fun id va acc ->
           acc
           && match Hashtbl.find_opt tb id with
              | Some vb -> eq va vb
              | None -> false)
         ta true
  in
  a.dyn_instrs = b.dyn_instrs
  && Value.equal a.sink b.sink
  && a.class_counts = b.class_counts
  && table_eq ivec_eq a.addrs b.addrs
  && table_eq bitvec_eq a.branches b.branches

(* ---- packing: a position-keyed external representation ------------- *)

(* The in-memory buffer keys its streams by [Instr.id] — a process-local
   atomic counter, worthless outside this run.  The packed form re-keys
   every stream by the instruction's flat static position (functions in
   program order, blocks in layout order, instructions in block order),
   which is a pure function of the compiled program.  Compilation is
   deterministic, so a packed trace written by one process re-attaches
   exactly in another, provided both hold the same program — the trace
   store guards that with a canonical program fingerprint. *)

(* flat enumeration shared by [pack] and [unpack]; must visit
   instructions in the same order as [prepare]'s numbering *)
let iter_flat (p : Program.t) f =
  let pos = ref 0 in
  List.iter
    (fun (fn : Func.t) ->
      List.iter
        (fun (b : Block.t) ->
          List.iter
            (fun (i : Instr.t) ->
              f !pos i;
              incr pos)
            b.Block.instrs)
        fn.Func.blocks)
    p.Program.functions

type packed = {
  p_dyn_instrs : int;
  p_sink : Value.t;
  p_class_counts : int array;
  p_addrs : (int * int array) array;
  p_branches : (int * int * int array) array;
}

let pack t (p : Program.t) =
  let pos_of_id = Hashtbl.create 1024 in
  let n = ref 0 in
  iter_flat p (fun pos (i : Instr.t) ->
      Hashtbl.replace pos_of_id i.Instr.id pos;
      n := pos + 1);
  let position id =
    match Hashtbl.find_opt pos_of_id id with
    | Some pos -> pos
    | None ->
        divergence
          "pack: traced instruction %d is not in the packed program" id
  in
  let addrs =
    Hashtbl.fold
      (fun id (v : Ivec.t) acc ->
        (position id, Array.sub v.Ivec.data 0 v.Ivec.len) :: acc)
      t.addrs []
  in
  let branches =
    Hashtbl.fold
      (fun id (v : Bitvec.t) acc ->
        ( position id,
          v.Bitvec.len,
          Array.sub v.Bitvec.data 0 (bitvec_words v.Bitvec.len) )
        :: acc)
      t.branches []
  in
  let by_pos x y = compare (fst x) (fst y) in
  let by_pos3 (x, _, _) (y, _, _) = compare x y in
  { p_dyn_instrs = t.dyn_instrs;
    p_sink = t.sink;
    p_class_counts = Array.copy t.class_counts;
    p_addrs = Array.of_list (List.sort by_pos addrs);
    p_branches = Array.of_list (List.sort by_pos3 branches);
  }

let unpack pk (p : Program.t) =
  let n = ref 0 in
  let ids = ref [||] in
  (* first pass sizes the table, second fills it *)
  iter_flat p (fun pos _ -> n := pos + 1);
  ids := Array.make (max 1 !n) (-1);
  iter_flat p (fun pos (i : Instr.t) -> !ids.(pos) <- i.Instr.id);
  let id_at what pos =
    if pos < 0 || pos >= !n then
      divergence
        "unpack: %s stream at static position %d, but the program has \
         only %d instructions"
        what pos !n
    else !ids.(pos)
  in
  let addrs = Hashtbl.create (Array.length pk.p_addrs) in
  Array.iter
    (fun (pos, data) ->
      let id = id_at "address" pos in
      if Hashtbl.mem addrs id then
        divergence "unpack: duplicate address stream at position %d" pos;
      Hashtbl.add addrs id
        { Ivec.data = Array.copy data; len = Array.length data })
    pk.p_addrs;
  let branches = Hashtbl.create (Array.length pk.p_branches) in
  Array.iter
    (fun (pos, len, words) ->
      let id = id_at "branch" pos in
      if Hashtbl.mem branches id then
        divergence "unpack: duplicate branch stream at position %d" pos;
      if Array.length words <> bitvec_words len then
        divergence
          "unpack: branch stream at position %d has %d words for %d bits"
          pos (Array.length words) len;
      Hashtbl.add branches id
        { Bitvec.data = Array.copy words; len })
    pk.p_branches;
  { dyn_instrs = pk.p_dyn_instrs;
    sink = pk.p_sink;
    class_counts = Array.copy pk.p_class_counts;
    addrs;
    branches;
    program = p;
    flat = Atomic.make None;
  }

let capture ?options ?(observers = []) (p : Program.t) =
  let addrs = Hashtbl.create 1024 in
  let branches = Hashtbl.create 256 in
  let record (i : Instr.t) addr =
    if addr >= 0 then
      let v =
        match Hashtbl.find_opt addrs i.Instr.id with
        | Some v -> v
        | None ->
            let v = Ivec.create () in
            Hashtbl.add addrs i.Instr.id v;
            v
      in
      Ivec.push v addr
  in
  let on_branch (i : Instr.t) taken =
    let v =
      match Hashtbl.find_opt branches i.Instr.id with
      | Some v -> v
      | None ->
          let v = Bitvec.create () in
          Hashtbl.add branches i.Instr.id v;
          v
    in
    Bitvec.push v taken
  in
  let outcome =
    Exec.run ?options ~observers:(record :: observers) ~on_branch p
  in
  { dyn_instrs = outcome.Exec.dyn_instrs;
    sink = outcome.Exec.sink;
    class_counts = Array.copy outcome.Exec.class_counts;
    addrs;
    branches;
    program = p;
    flat = Atomic.make None;
  }


(* ---- issue segments ------------------------------------------------- *)

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

(* Cut [p] into issue segments and resolve the control flow between
   them the way Exec does: a label names its block, every function name
   aliases its entry block, and control entering an empty block falls
   through to the next block with instructions.  A target that does not
   resolve stays -1; that is only an error if control reaches it (Exec
   faults lazily the same way). *)
let shape (p : Program.t) =
  let functions = Array.of_list p.Program.functions in
  let code =
    Array.map
      (fun (f : Func.t) ->
        Array.of_list
          (List.map (fun b -> Array.of_list b.Block.instrs) f.Func.blocks))
      functions
  in
  (* segments in layout order; [block_seg]: a block's first segment, or
     -1 for an empty block *)
  let block_seg =
    Array.map (fun blocks -> Array.make (Array.length blocks) (-1)) code
  in
  let firsts = Ivec.create () and lens = Ivec.create () in
  let kinds = ref [] and fns = Ivec.create () in
  let pos = ref 0 in
  Array.iteri
    (fun fn blocks ->
      Array.iteri
        (fun blk instrs ->
          let n = Array.length instrs in
          if n > 0 then block_seg.(fn).(blk) <- firsts.Ivec.len;
          let start = ref 0 in
          Array.iteri
            (fun k i ->
              let kind = kind_of i in
              if kind <> Fall || k = n - 1 then begin
                Ivec.push firsts (!pos + !start);
                Ivec.push lens (k + 1 - !start);
                kinds := kind :: !kinds;
                Ivec.push fns fn;
                start := k + 1
              end)
            instrs;
          pos := !pos + n)
        blocks)
    code;
  let contents (v : Ivec.t) = Array.sub v.Ivec.data 0 v.Ivec.len in
  let seg_first = contents firsts and seg_len = contents lens in
  let seg_kind = Array.of_list (List.rev !kinds) and seg_fn = contents fns in
  let n_segs = Array.length seg_first in
  let rec norm fn blk =
    if blk >= Array.length code.(fn) then -1
    else if block_seg.(fn).(blk) >= 0 then block_seg.(fn).(blk)
    else norm fn (blk + 1)
  in
  let label_pos : (string, int * int) Hashtbl.t = Hashtbl.create 256 in
  Array.iteri
    (fun fn (f : Func.t) ->
      List.iteri
        (fun blk (b : Block.t) ->
          Hashtbl.replace label_pos (Label.to_string b.Block.label) (fn, blk))
        f.Func.blocks)
    functions;
  Array.iteri
    (fun fn (f : Func.t) ->
      if f.Func.blocks <> [] then begin
        (match Hashtbl.find_opt label_pos f.Func.name with
        | Some (fn', blk') when fn' <> fn || blk' <> 0 ->
            divergence "function name %s collides with a basic-block label"
              f.Func.name
        | Some _ | None -> ());
        Hashtbl.replace label_pos f.Func.name (fn, 0)
      end)
    functions;
  let entry =
    match Hashtbl.find_opt label_pos "main" with
    | Some (fn, blk) -> norm fn blk
    | None -> divergence "program has no main function"
  in
  let sh_code =
    Array.concat (List.concat_map Array.to_list (Array.to_list code))
  in
  let target s =
    match sh_code.(seg_first.(s) + seg_len.(s) - 1).Instr.target with
    | Some l -> (
        match Hashtbl.find_opt label_pos (Label.to_string l) with
        | Some (fn, blk) -> norm fn blk
        | None -> -1)
    | None -> -1
  in
  { sh_code;
    sh_seg_first = seg_first;
    sh_seg_len = seg_len;
    sh_kind = seg_kind;
    sh_next =
      Array.init n_segs (fun s ->
          if s + 1 < n_segs && seg_fn.(s + 1) = seg_fn.(s) then s + 1 else -1);
    sh_target = Array.init n_segs target;
    sh_entry = entry;
  }

(* ---- flattening ------------------------------------------------------ *)

(* Follow the recorded control flow through [sh] from its entry, segment
   by segment, calling [visit s] for every visit of segment [s] (Exec's
   semantics: a call returns to the segment after it, a return with an
   empty stack or a halt ends the run).  Raises [Divergence] where the
   taken bits or the trace length disagree with the program. *)
let follow t sh (bit_stream : Bitvec.t option array) ~visit =
  let bcur = Array.make (Array.length sh.sh_code) 0 in
  let steps = ref 0 and stack = ref [] and seg = ref sh.sh_entry in
  let running = ref (Array.length sh.sh_code > 0 && t.dyn_instrs > 0) in
  while !running do
    let s = !seg in
    if s < 0 then divergence "replay fell off the end of a function";
    steps := !steps + sh.sh_seg_len.(s);
    if !steps > t.dyn_instrs then
      divergence "replay exceeds the captured trace (%d instructions)"
        t.dyn_instrs;
    visit s;
    match sh.sh_kind.(s) with
    | Fall -> seg := sh.sh_next.(s)
    | Branch -> (
        let last = sh.sh_seg_first.(s) + sh.sh_seg_len.(s) - 1 in
        match bit_stream.(last) with
        | None -> divergence "conditional branch has no recorded outcomes"
        | Some v ->
            let c = bcur.(last) in
            if c >= v.Bitvec.len then
              divergence "branch history exhausted after %d outcomes" c;
            bcur.(last) <- c + 1;
            seg := if Bitvec.get v c then sh.sh_target.(s) else sh.sh_next.(s))
    | Jump -> seg := sh.sh_target.(s)
    | Call ->
        stack := sh.sh_next.(s) :: !stack;
        seg := sh.sh_target.(s)
    | Ret -> (
        match !stack with
        | ra :: rest ->
            stack := rest;
            seg := ra
        | [] -> running := false)
    | Halt -> running := false
  done;
  (* the walk has halted: every recorded outcome must have been used *)
  if !steps <> t.dyn_instrs then
    divergence "replayed %d instructions of a %d-instruction trace" !steps
      t.dyn_instrs;
  Array.iteri
    (fun pos -> function
      | Some (v : Bitvec.t) when bcur.(pos) <> v.Bitvec.len ->
          divergence "branch history consumed partially (%d of %d)" bcur.(pos)
            v.Bitvec.len
      | _ -> ())
    bit_stream

(* The checked walk of the captured program, twice over: once to count
   the segment visits, so that both off-heap arrays are allocated once
   at their exact size, and once to fill them, consuming every address
   stream in execution order. *)
let walk t =
  let sh = shape t.program in
  let n = Array.length sh.sh_code in
  let n_segs = Array.length sh.sh_seg_first in
  let pos_of_id = Int_table.create (max 16 n) in
  Array.iteri
    (fun pos (i : Instr.t) -> Int_table.replace pos_of_id i.Instr.id pos)
    sh.sh_code;
  let addr_stream = Array.make n None and bit_stream = Array.make n None in
  let matched_addrs = ref 0 and matched_bits = ref 0 in
  Array.iteri
    (fun pos (i : Instr.t) ->
      (match Hashtbl.find_opt t.addrs i.Instr.id with
      | Some v ->
          addr_stream.(pos) <- Some v;
          incr matched_addrs
      | None -> ());
      match Hashtbl.find_opt t.branches i.Instr.id with
      | Some v ->
          bit_stream.(pos) <- Some v;
          incr matched_bits
      | None -> ())
    sh.sh_code;
  if !matched_addrs <> Hashtbl.length t.addrs then
    divergence
      "the traced program does not contain every traced memory \
       instruction (%d of %d streams bound)"
      !matched_addrs (Hashtbl.length t.addrs);
  if !matched_bits <> Hashtbl.length t.branches then
    divergence
      "the traced program does not contain every traced branch (%d of %d \
       streams bound)"
      !matched_bits
      (Hashtbl.length t.branches);
  (* a memory instruction's rank: its entry within each visit's block of
     addresses, in the captured order *)
  let seg_of_pos = Array.make n 0 and rank = Array.make n (-1) in
  let seg_mem = Array.make n_segs 0 in
  for s = 0 to n_segs - 1 do
    let first = sh.sh_seg_first.(s) in
    for pos = first to first + sh.sh_seg_len.(s) - 1 do
      seg_of_pos.(pos) <- s;
      if addr_stream.(pos) <> None then begin
        rank.(pos) <- seg_mem.(s);
        seg_mem.(s) <- seg_mem.(s) + 1
      end
    done
  done;
  let n_visits = ref 0 in
  follow t sh bit_stream ~visit:(fun _ -> incr n_visits);
  let visits =
    Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout !n_visits
  in
  let n_addrs =
    Hashtbl.fold (fun _ (v : Ivec.t) acc -> acc + v.Ivec.len) t.addrs 0
  in
  let addrs = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n_addrs in
  let acur = Array.make n 0 and k = ref 0 and apos = ref 0 in
  follow t sh bit_stream ~visit:(fun s ->
      visits.{!k} <- Int32.of_int s;
      incr k;
      let first = sh.sh_seg_first.(s) in
      for pos = first to first + sh.sh_seg_len.(s) - 1 do
        match addr_stream.(pos) with
        | None -> ()
        | Some v ->
            let c = acur.(pos) in
            if c >= v.Ivec.len then
              divergence "address stream exhausted after %d accesses" c;
            acur.(pos) <- c + 1;
            addrs.{!apos + rank.(pos)} <- v.Ivec.data.(c)
      done;
      apos := !apos + seg_mem.(s));
  Array.iteri
    (fun pos -> function
      | Some (v : Ivec.t) when acur.(pos) <> v.Ivec.len ->
          divergence "address stream consumed partially (%d of %d)" acur.(pos)
            v.Ivec.len
      | _ -> ())
    addr_stream;
  { f_summary =
      { s_dyn_instrs = t.dyn_instrs;
        s_sink = t.sink;
        s_class_counts = t.class_counts;
      };
    f_shape = sh;
    f_pos_of_id = pos_of_id;
    f_seg_of_pos = seg_of_pos;
    f_rank = rank;
    f_seg_mem = seg_mem;
    f_visits = visits;
    f_addrs = addrs;
  }

(* Flattened once per trace: the first caller walks, later ones (from
   any domain) share the result. *)
let flatten t =
  match Atomic.get t.flat with
  | Some f -> f
  | None ->
      let f = walk t in
      if Atomic.compare_and_set t.flat None (Some f) then f
      else Option.get (Atomic.get t.flat)

(* ---- binding --------------------------------------------------------- *)

(* A flat trace bound to one concrete binary.  Immutable after
   construction; many cursors may walk one [prepared]. *)
type prepared = { pr_flat : flat; pr_code : Timing.flat_code }

let summary pr = pr.pr_flat.f_summary

(* Lay [binary] over the flat form.  Every instruction must belong to
   the captured program and stay in its issue segment, each exactly
   once; every segment must be present; and control must leave every
   segment the same way (same kind, same fall-through successor, same
   target) and enter at the same segment.  Then each instruction is
   decoded, in the binary's order, into the slots [Timing.replay_flat]
   reads. *)
let bind (f : flat) (binary : Program.t) =
  let fsh = f.f_shape and sh = shape binary in
  let n = Array.length sh.sh_code in
  let n_segs = Array.length fsh.sh_seg_first in
  let seg_map = Array.make (Array.length sh.sh_seg_first) (-1) in
  let seg_first = Array.make n_segs (-1) in
  let seen = Array.make (Array.length fsh.sh_code) false in
  (* each instruction's position in the captured program *)
  let pos =
    Array.map
      (fun (i : Instr.t) ->
        match Int_table.find_opt f.f_pos_of_id i.Instr.id with
        | Some pos -> pos
        | None ->
            divergence "instruction [%s] of the replayed binary is not traced"
              (Instr.to_string i))
      sh.sh_code
  in
  Array.iteri
    (fun b first ->
      let len = sh.sh_seg_len.(b) in
      let s = f.f_seg_of_pos.(pos.(first)) in
      for k = first to first + len - 1 do
        if f.f_seg_of_pos.(pos.(k)) <> s then
          divergence
            "instruction [%s] left its issue segment (moved across a \
             call, a control transfer or a block boundary)"
            (Instr.to_string sh.sh_code.(k));
        if seen.(pos.(k)) then
          divergence "instruction [%s] appears twice in the replayed binary"
            (Instr.to_string sh.sh_code.(k));
        seen.(pos.(k)) <- true
      done;
      if len <> fsh.sh_seg_len.(s) then
        divergence
          "the issue segment starting at [%s] has %d instruction(s) in the \
           replayed binary, %d in the trace"
          (Instr.to_string sh.sh_code.(first))
          len fsh.sh_seg_len.(s);
      seg_map.(b) <- s;
      seg_first.(s) <- first)
    sh.sh_seg_first;
  Array.iteri
    (fun s first ->
      if first < 0 then
        divergence
          "the replayed binary lacks the issue segment starting at [%s]"
          (Instr.to_string fsh.sh_code.(fsh.sh_seg_first.(s))))
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
             sh.sh_code.(sh.sh_seg_first.(b) + sh.sh_seg_len.(b) - 1)))
    seg_map;
  if mapped sh.sh_entry <> fsh.sh_entry then
    divergence "the replayed binary enters at a different issue segment";
  let cls = Array.make n 0 and flags = Array.make n 0 in
  let mrank = Array.make n (-1) and ndefs = Array.make n 0 in
  let reg_first = Array.make (n + 1) 0 and regs = Ivec.create () in
  let push_reg r = Ivec.push regs (Reg.index r) in
  Array.iteri
    (fun k (i : Instr.t) ->
      let c = Instr.iclass i in
      cls.(k) <- Iclass.to_index c;
      flags.(k) <-
        (if Instr.is_load i then Timing.flag_load else 0)
        lor if Iclass.is_control c then Timing.flag_control else 0;
      mrank.(k) <- f.f_rank.(pos.(k));
      let defs = Instr.defs i in
      ndefs.(k) <- List.length defs;
      List.iter push_reg defs;
      List.iter push_reg (Instr.uses i);
      reg_first.(k + 1) <- regs.Ivec.len)
    sh.sh_code;
  { pr_flat = f;
    pr_code =
      { Timing.fc_seg_first = seg_first;
        fc_seg_len = fsh.sh_seg_len;
        fc_seg_mem = f.f_seg_mem;
        fc_cls = cls;
        fc_flags = flags;
        fc_mrank = mrank;
        fc_reg_first = reg_first;
        fc_ndefs = ndefs;
        fc_regs = Array.sub regs.Ivec.data 0 regs.Ivec.len;
      };
  }

let prepare t binary = bind (flatten t) binary

(* ---- running ---------------------------------------------------------- *)

(* Walk state: the position in the visit sequence and the count of
   dynamic instructions replayed so far.  Mutable and single-owner:
   exactly one domain advances a cursor at a time (a work-stealing pool
   hands it between domains with the necessary happens-before
   ordering). *)
type cursor = { cu_walk : Timing.flat_walk; cu_visits : int }

let cursor_done cu = cu.cu_walk.Timing.fw_visit >= cu.cu_visits
let steps cu = cu.cu_walk.Timing.fw_steps

(* A cursor at the entry point with nothing consumed.  The flattening
   walk has already checked the whole trace, so an empty one starts
   done. *)
let start pr =
  { cu_walk =
      { Timing.fw_visit = 0; fw_offset = 0; fw_abase = 0; fw_steps = 0 };
    cu_visits = Bigarray.Array1.dim pr.pr_flat.f_visits;
  }

(* Replay at most [max_steps] dynamic instructions into [timing],
   advancing the cursor.  A cut may fall at any instruction, even inside
   a segment visit: the cursor keeps the offset into the visit, and the
   timing snapshot carries the partially filled packet. *)
let replay_steps pr cu (timing : Timing.t) ~max_steps =
  Timing.replay_flat timing pr.pr_code pr.pr_flat.f_visits pr.pr_flat.f_addrs
    cu.cu_walk ~max_steps

let replay t (p : Program.t) (timing : Timing.t) =
  let pr = prepare t p in
  replay_steps pr (start pr) timing ~max_steps:max_int
