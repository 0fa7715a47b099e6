(* Static memory-dependence analysis: may two memory operations touch
   the same word?

   The scheduler's conservative rule (Ddg, via [Mem_info.disjoint])
   keeps a store->load edge whenever the static region annotations
   cannot prove the accesses apart.  That rule loses exactly the cases
   unrolling creates: the copies of a[i] and a[i+1] compute their
   addresses through *different* virtual registers (and, after LICM,
   through constants hoisted out of the block), so the annotation's
   same-register side condition never fires.

   This module recovers those facts in two tiers:

   1. A flow-sensitive forward dataflow ("Addr_val"): each register maps
      to a symbolic base plus a constant-offset interval —
      [base + [lo, hi]] where the base is an absolute constant, a
      register's value at function entry, or the most recent result of a
      given instruction.  The transfer tracks Li/Mov/Add/Sub exactly;
      every other definition becomes its own base.  [Def] bases stay
      sound around loop back edges (affine induction steps survive as
      "Def(increment) + k") because at a block's entry no register
      holds a result of that block's own instructions.
      [Dataflow.run_worklist]'s first sweep transfers every block in
      reverse postorder, so a block's DFS-tree parent is always a
      non-[Univ] source, and the tree path to it from the entry does
      not run through the block; [Addr_env.join] keeps a register only
      when every source agrees on its base.  So when an instruction
      re-executes, no register still names its previous result.

   2. A per-block symbolic evaluation: every register holds a linear
      combination of hash-consed opaque terms (function-entry values,
      pre-block results seeded from tier 1, deterministic operator
      applications, fresh unknowns), folded with native [int] arithmetic
      — the executor's own arithmetic, so constant folding is exact,
      wrap-around included.  Loads are value-numbered through a small
      memory environment with store-to-load forwarding.

   Classification compares the two symbolic addresses: a difference that
   folds to a non-zero constant is [No_alias], to zero is [Must_alias];
   anything else falls back to the conservative [Mem_info.disjoint].
   The verdict therefore only ever refines the conservative analysis.

   Soundness under reordering: every term denotes a value fixed per
   block execution, computed by instructions whose register (RAW) edges
   the scheduler never removes, and a load's value number is killed by
   any store not provably to a different word — so a [No_alias] verdict
   established on the original instruction order remains valid in any
   DDG-respecting permutation of the block.

   Each tier runs when a verdict first needs it and never otherwise:
   [analyze] only records the function; the first classified pair
   numbers it and solves tier 1, a block's first classified pair
   evaluates that block, and the first address difference that does not
   fold to a constant (with ranges on) solves the value ranges.  The
   state is dense throughout: registers are numbered once per function,
   as [Exec.resolve] numbers a frame, instructions by position, and
   tier 1 keeps each environment in one [int] array.

   [test/memdep_ref.ml] keeps the eager analysis this replaced, and a
   property requires the two to agree on every same-block pair. *)

open Ilp_ir

type alias = Must_alias | No_alias | May_alias

let equal_alias (a : alias) (b : alias) = a = b

let pp_alias ppf = function
  | Must_alias -> Fmt.string ppf "must-alias"
  | No_alias -> Fmt.string ppf "no-alias"
  | May_alias -> Fmt.string ppf "may-alias"

let mem_of (i : Instr.t) =
  match i.Instr.mem with Some m -> m | None -> Mem_info.unknown

(* The refinement floor: what the scheduler already knows without any
   value tracking. *)
let conservative (i : Instr.t) (j : Instr.t) =
  if Mem_info.disjoint (mem_of i) (mem_of j) then No_alias else May_alias

(* ------------------------------------------------------------------ *)
(* The function, numbered once.                                        *)

module Regtable = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

type code = {
  first : int array;
      (** position of each block's first instruction, then the count *)
  instrs : Instr.t array;  (** every instruction, by position *)
  regs : int;  (** registers are numbered [0, regs) *)
  number : Reg.t -> int;
  dst : int array;  (** destination register, or -1 *)
}

(* The stack pointer and the return-value register are numbered first,
   whether or not an instruction names them; every other register in
   order of first appearance. *)
let sp = 0
let ret = 1

let number (cfg : Cfg_info.t) =
  let table = Regtable.create 64 in
  let reg r =
    let k = Reg.index r in
    match Regtable.find_opt table k with
    | Some v -> v
    | None ->
        let v = Regtable.length table in
        Regtable.add table k v;
        v
  in
  ignore (reg Reg.sp);
  ignore (reg Instr.ret_reg);
  let first, instrs = Cfg_info.positions cfg in
  let dst =
    Array.map
      (fun (i : Instr.t) ->
        List.iter
          (function Instr.Oreg r -> ignore (reg r) | Oimm _ | Ofimm _ -> ())
          i.Instr.srcs;
        match i.Instr.dst with Some d -> reg d | None -> -1)
      instrs
  in
  {
    first;
    instrs;
    regs = Regtable.length table;
    number = (fun r -> Regtable.find table (Reg.index r));
    dst;
  }

(* ------------------------------------------------------------------ *)
(* Tier 1: function-wide value tracking ("Addr_val").                  *)

(* Intervals wider than this are dropped at joins and shifts: past a few
   unroll copies apart, a wide interval proves nothing and only delays
   the fixpoint. *)
let width_cap = 16

(* Register [r]'s fact is the three ints at [3r]: a base, then the
   offset interval [lo, hi].  The base is [unknown] (no fact, offsets
   0), [absolute] (an absolute constant), [r'] for the value register
   [r'] held at function entry, or [regs + g] for the most recent result
   of the instruction at position [g]. *)
let unknown = -2
let absolute = -1

let clear e r =
  e.(3 * r) <- unknown;
  e.((3 * r) + 1) <- 0;
  e.((3 * r) + 2) <- 0

let put e r base lo hi =
  e.(3 * r) <- base;
  e.((3 * r) + 1) <- lo;
  e.((3 * r) + 2) <- hi

module Addr_env = struct
  (* [Univ] is the value of paths not yet seen (the join identity of a
     must-analysis). *)
  type t = Univ | Env of int array

  let equal a b =
    match (a, b) with
    | Univ, Univ -> true
    | Env x, Env y ->
        let rec same k = k < 0 || (Int.equal x.(k) y.(k) && same (k - 1)) in
        same (Array.length x - 1)
    | Univ, Env _ | Env _, Univ -> false

  let join a b =
    match (a, b) with
    | Univ, v | v, Univ -> v
    | Env x, Env y ->
        let z = Array.make (Array.length x) 0 in
        for r = 0 to (Array.length x / 3) - 1 do
          let base = x.(3 * r) in
          let lo = min x.((3 * r) + 1) y.((3 * r) + 1)
          and hi = max x.((3 * r) + 2) y.((3 * r) + 2) in
          if base <> unknown && base = y.(3 * r) && hi - lo <= width_cap then
            put z r base lo hi
          else clear z r
        done;
        Env z

  let pp ppf = function
    | Univ -> Fmt.string ppf "<univ>"
    | Env _ -> Fmt.string ppf "<addr-env>"
end

(* What an instruction does to tier 1's environment. *)
type effect =
  | Keep  (** writes no register *)
  | Clobber  (** a call: everything but the stack pointer is lost *)
  | Const of int  (** [li d, n] *)
  | Copy of int  (** [mov d, s] *)
  | Shift of int * int  (** [add d, s, k] or [sub d, s, -k] *)
  | Sum of bool * int * int  (** [add/sub d, s1, s2]; [true] for sub *)
  | Fresh  (** any other result, which becomes its own base *)

let effect code g =
  let i = code.instrs.(g) in
  if Instr.is_call i then Clobber
  else if code.dst.(g) < 0 then Keep
  else
    let reg = code.number in
    match (i.Instr.op, i.Instr.srcs) with
    | Opcode.Li, [ Instr.Oimm n ] -> Const n
    | Opcode.Mov, [ Instr.Oreg s ] -> Copy (reg s)
    | Opcode.Add, [ Instr.Oreg s; Instr.Oimm n ] -> Shift (reg s, n)
    | Opcode.Sub, [ Instr.Oreg s; Instr.Oimm n ] -> Shift (reg s, -n)
    | Opcode.Add, [ Instr.Oreg s1; Instr.Oreg s2 ] ->
        Sum (false, reg s1, reg s2)
    | Opcode.Sub, [ Instr.Oreg s1; Instr.Oreg s2 ] ->
        Sum (true, reg s1, reg s2)
    | _ -> Fresh

(* [d = s + [dlo, dhi]] when that is narrow enough, else [d]'s own
   base [own]. *)
let shifted e d own s dlo dhi =
  let lo = e.((3 * s) + 1) + dlo and hi = e.((3 * s) + 2) + dhi in
  if hi - lo <= width_cap then put e d e.(3 * s) lo hi else put e d own 0 0

(* Push block [b] through a copy of [a]. *)
let tier1_block code effects b a =
  let e = Array.copy a in
  let regs = code.regs in
  for g = code.first.(b) to code.first.(b + 1) - 1 do
    let own = regs + g and d = code.dst.(g) in
    match effects.(g) with
    | Keep -> ()
    | Clobber ->
        (* the callee may clobber anything but restores the stack
           pointer *)
        for r = 0 to regs - 1 do
          if r <> sp then clear e r
        done;
        put e ret own 0 0
    | Fresh -> put e d own 0 0
    | Const n -> put e d absolute n n
    | Copy s ->
        if e.(3 * s) = unknown then put e d own 0 0
        else put e d e.(3 * s) e.((3 * s) + 1) e.((3 * s) + 2)
    | Shift (s, n) ->
        if e.(3 * s) = unknown then put e d own 0 0
        else shifted e d own s n n
    | Sum (sub, s1, s2) ->
        let b1 = e.(3 * s1) and b2 = e.(3 * s2) in
        if b1 = unknown then put e d own 0 0
        else if b2 = absolute then
          let lo2 = e.((3 * s2) + 1) and hi2 = e.((3 * s2) + 2) in
          if sub then shifted e d own s1 (-hi2) (-lo2)
          else shifted e d own s1 lo2 hi2
        else if b1 = absolute && b2 <> unknown && not sub then
          shifted e d own s2 e.((3 * s1) + 1) e.((3 * s1) + 2)
        else put e d own 0 0
  done;
  e

(* The environment at each block's entry. *)
let tier1 code (cfg : Cfg_info.t) =
  let effects = Array.init (Array.length code.instrs) (effect code) in
  let module T = struct
    module L = Addr_env

    type ctx = unit

    let prepare _ = ()
    let init () = Addr_env.Univ

    (* Every register enters the function holding its (unknown but
       fixed) entry value; copies of one entry value disambiguate
       against each other across blocks. *)
    let boundary () =
      let e = Array.make (3 * code.regs) 0 in
      for r = 0 to code.regs - 1 do
        put e r r 0 0
      done;
      Addr_env.Env e

    let transfer () b = function
      | Addr_env.Univ -> Addr_env.Univ
      | Addr_env.Env a -> Addr_env.Env (tier1_block code effects b a)
  end in
  let module Solver = Dataflow.Forward (T) in
  (Solver.solve cfg).Dataflow.inb

(* ------------------------------------------------------------------ *)
(* Tier 2: per-block symbolic addresses as linear combinations of      *)
(* hash-consed terms.                                                  *)

type tnode =
  | TInit of int  (** register [r]'s value at function entry *)
  | TPre of int  (** the last result, before block entry, of position [g] *)
  | TOpaque of int  (** a fresh unknown, fixed at its creation *)
  | TApp of Opcode.t * int list
      (** deterministic integer operator over term ids *)
  | TLin of (int * int) list * int  (** an embedded linear combination *)

type store = {
  tab : (tnode, int) Hashtbl.t;
  rev : (int, tnode) Hashtbl.t;
  mutable next_id : int;
  mutable next_opaque : int;
}

let new_store () =
  {
    tab = Hashtbl.create 64;
    rev = Hashtbl.create 64;
    next_id = 0;
    next_opaque = 0;
  }

let intern st n =
  match Hashtbl.find_opt st.tab n with
  | Some id -> id
  | None ->
      let id = st.next_id in
      st.next_id <- id + 1;
      Hashtbl.add st.tab n id;
      Hashtbl.add st.rev id n;
      id

let opaque st =
  let k = st.next_opaque in
  st.next_opaque <- k + 1;
  intern st (TOpaque k)

(* A value is [off + sum coeff * term]; coefficient lists are sorted by
   term id with no zero coefficients, so values are canonical and the
   folding is ordinary [int] arithmetic — identical to the executor's. *)
type lin = { coeffs : (int * int) list; off : int }

let lconst n = { coeffs = []; off = n }
let lterm t = { coeffs = [ (t, 1) ]; off = 0 }

let rec merge_coeffs xs ys =
  match (xs, ys) with
  | [], l | l, [] -> l
  | (t1, c1) :: r1, (t2, c2) :: r2 ->
      if t1 < t2 then (t1, c1) :: merge_coeffs r1 ys
      else if t1 > t2 then (t2, c2) :: merge_coeffs xs r2
      else
        let c = c1 + c2 in
        if c = 0 then merge_coeffs r1 r2 else (t1, c) :: merge_coeffs r1 r2

let ladd a b = { coeffs = merge_coeffs a.coeffs b.coeffs; off = a.off + b.off }

let lscale k a =
  if k = 0 then lconst 0
  else { coeffs = List.map (fun (t, c) -> (t, k * c)) a.coeffs; off = k * a.off }

let lsub a b = ladd a (lscale (-1) b)

let embed st l =
  match (l.coeffs, l.off) with
  | [ (t, 1) ], 0 -> t
  | coeffs, off -> intern st (TLin (coeffs, off))

(* The environment's "not yet read" mark: no arithmetic result is
   structurally equal to it (canonical coefficients are never 0), so the
   compiler cannot share it with a constant the evaluation builds. *)
let unbound = { coeffs = [ (-1, 0) ]; off = 0 }

(* Symbolically execute block [b] into its own term store.  [seed]
   pre-populates the register environment from tier-1 facts; any other
   register read lazily binds a fresh opaque (memoized through the
   environment, so re-reads agree and redefinitions forget it).  Returns
   the symbolic address of every memory instruction, keyed by
   instruction id. *)
let exec_block code st ~seed b =
  let env = Array.make code.regs unbound in
  seed env;
  (* value-numbered memory: embedded address term -> (address, value) *)
  let memenv : (int, lin * lin) Hashtbl.t = Hashtbl.create 16 in
  let addrs : (int, lin) Hashtbl.t = Hashtbl.create 16 in
  let read_reg r =
    let v = env.(r) in
    if v != unbound then v
    else
      let v = lterm (opaque st) in
      env.(r) <- v;
      v
  in
  let operand = function
    | Instr.Oreg r -> read_reg (code.number r)
    | Instr.Oimm n -> lconst n
    | Instr.Ofimm _ -> lterm (opaque st)
  in
  let node op args =
    let args = List.map (embed st) args in
    let args =
      if Opcode.is_assoc_commutative op then List.sort compare args else args
    in
    lterm (intern st (TApp (op, args)))
  in
  for g = code.first.(b) to code.first.(b + 1) - 1 do
    let i = code.instrs.(g) in
    if Instr.is_call i then begin
      (* the callee may read and write any register except the
         restored stack pointer, and any memory word *)
      let sp_v = read_reg sp in
      Array.fill env 0 code.regs unbound;
      env.(sp) <- sp_v;
      Hashtbl.reset memenv;
      env.(ret) <- lterm (opaque st)
    end
    else
      match (i.Instr.op, i.Instr.srcs) with
      | Opcode.Ld, [ base ] ->
          let addr = ladd (operand base) (lconst i.Instr.offset) in
          Hashtbl.replace addrs i.Instr.id addr;
          let key = embed st addr in
          let v =
            match Hashtbl.find_opt memenv key with
            | Some (_, v) -> v
            | None ->
                let v = lterm (opaque st) in
                Hashtbl.replace memenv key (addr, v);
                v
          in
          if code.dst.(g) >= 0 then env.(code.dst.(g)) <- v
      | Opcode.St, [ value; base ] ->
          let v = operand value in
          let addr = ladd (operand base) (lconst i.Instr.offset) in
          Hashtbl.replace addrs i.Instr.id addr;
          (* provably different words survive, the same word is
             forwarded, everything else is killed *)
          Hashtbl.filter_map_inplace
            (fun _ ((ka, _) as e) ->
              let d = lsub addr ka in
              if d.coeffs = [] && d.off <> 0 then Some e else None)
            memenv;
          Hashtbl.replace memenv (embed st addr) (addr, v)
      | op, srcs ->
          let d = code.dst.(g) in
          (* branches and the like only read registers *)
          if d >= 0 then
            env.(d) <-
              (match (op, srcs) with
              | Opcode.Li, [ Instr.Oimm n ] -> lconst n
              | Opcode.Mov, [ s ] -> operand s
              | Opcode.Add, [ a; b ] -> ladd (operand a) (operand b)
              | Opcode.Sub, [ a; b ] -> lsub (operand a) (operand b)
              | Opcode.Neg, [ a ] -> lscale (-1) (operand a)
              | Opcode.Mul, [ a; b ] ->
                  let va = operand a and vb = operand b in
                  if va.coeffs = [] then lscale va.off vb
                  else if vb.coeffs = [] then lscale vb.off va
                  else node Opcode.Mul [ va; vb ]
              | ( ( Opcode.And | Opcode.Or | Opcode.Xor | Opcode.Not
                  | Opcode.Shl | Opcode.Shr | Opcode.Sra | Opcode.Slt
                  | Opcode.Sle | Opcode.Seq | Opcode.Sne ),
                  args ) ->
                  (* pure deterministic integer functions: identical
                     applications yield identical values *)
                  node op (List.map operand args)
              | _ ->
                  (* Div/Rem, floating point, conversions: opaque *)
                  lterm (opaque st))
  done;
  addrs

(* ------------------------------------------------------------------ *)
(* Tier 3: value ranges over the symbolic terms.                       *)

(* When the symbolic difference of two addresses does not fold to a
   constant, its residual terms often still have provably small or
   strided footprints: a masked index (i & 7) lies in [0,7] whatever i
   is, a scaled one (2*i) is even.  Evaluating the difference over the
   {!Range.V} reduced product turns those facts into no-alias verdicts
   the purely symbolic tiers cannot reach — disjoint windows
   (base+8+[0,7] vs base+[0,7] differ by [1,15]) and incompatible
   strides (2i vs 2j+1 differ by an odd number) both exclude zero.

   Soundness: every term denotes one fixed value per block execution,
   and its range over-approximates that value across *all* executions,
   so the evaluated difference range contains the concrete difference
   of any single execution; if zero is excluded, the two accesses can
   never coincide. *)

(* One block's tier-2 result, with the ranges of its terms as far as a
   verdict has needed them. *)
type block = {
  st : store;
  addrs : (int, lin) Hashtbl.t;
  memo : (int, Range.V.t) Hashtbl.t;  (** term id -> range *)
}

let rec term_range ranges blk tid =
  match Hashtbl.find_opt blk.memo tid with
  | Some v -> v
  | None ->
      Hashtbl.replace blk.memo tid Range.V.top;
      let v =
        match Hashtbl.find_opt blk.st.rev tid with
        | None | Some (TOpaque _) -> Range.V.top
        | Some (TInit r) -> Range.Ir.entry_range ranges r
        | Some (TPre g) -> Range.Ir.def_range ranges g
        | Some (TApp (op, args)) -> (
            let rs = List.map (term_range ranges blk) args in
            match (op, rs) with
            | Opcode.And, [ a; b ] -> Range.V.band a b
            | Opcode.Or, [ a; b ] -> Range.V.bor a b
            | Opcode.Xor, [ a; b ] -> Range.V.bxor a b
            | Opcode.Not, [ a ] -> Range.V.sub (Range.V.of_const (-1)) a
            | Opcode.Shl, [ a; b ] -> Range.V.shl a b
            | (Opcode.Shr | Opcode.Sra), [ a; b ] -> Range.V.shr a b
            | Opcode.Mul, [ a; b ] -> Range.V.mul a b
            | (Opcode.Slt | Opcode.Sle | Opcode.Seq | Opcode.Sne), _ ->
                Range.V.bool_result
            | _ -> Range.V.top)
        | Some (TLin (coeffs, off)) -> lin_range ranges blk coeffs off
      in
      Hashtbl.replace blk.memo tid v;
      v

and lin_range ranges blk coeffs off =
  List.fold_left
    (fun acc (t, c) ->
      Range.V.add acc
        (Range.V.mul (Range.V.of_const c) (term_range ranges blk t)))
    (Range.V.of_const off) coeffs

(* [ranges] is forced only for a difference that does not fold. *)
let classify_in ?ranges blk (i : Instr.t) (j : Instr.t) =
  match
    ( Hashtbl.find_opt blk.addrs i.Instr.id,
      Hashtbl.find_opt blk.addrs j.Instr.id )
  with
  | Some a, Some b -> (
      let d = lsub a b in
      if d.coeffs = [] then if d.off = 0 then Must_alias else No_alias
      else
        match ranges with
        | Some r
          when Range.V.excludes_zero
                 (lin_range (Lazy.force r) blk d.coeffs d.off) ->
            No_alias
        | _ -> conservative i j)
  | _ -> conservative i j

(* ------------------------------------------------------------------ *)
(* Per-function analysis, on demand.                                   *)

type facts = {
  cfg : Cfg_info.t;
  blocks : block Lazy.t array;  (** tier 2, per block *)
  ranges : Range.Ir.t Lazy.t option;  (** tier 3, when enabled *)
}

type t = facts Lazy.t

let function_facts ~ranges (f : Func.t) =
  let cfg = Cfg_info.build f in
  let code = number cfg in
  let entry = tier1 code cfg in
  let regs = code.regs in
  let block b =
    let st = new_store () in
    let seed env =
      match entry.(b) with
      | Addr_env.Univ -> ()
      | Addr_env.Env a ->
          for r = 0 to regs - 1 do
            let base = a.(3 * r) and lo = a.((3 * r) + 1) in
            if base <> unknown && lo = a.((3 * r) + 2) then
              env.(r) <-
                (if base = absolute then lconst lo
                 else
                   let t =
                     if base < regs then TInit base else TPre (base - regs)
                   in
                   ladd (lterm (intern st t)) (lconst lo))
          done
    in
    { st; addrs = exec_block code st ~seed b; memo = Hashtbl.create 16 }
  in
  {
    cfg;
    blocks =
      Array.init (Array.length cfg.Cfg_info.blocks) (fun b -> lazy (block b));
    ranges =
      (if ranges then
         Some (lazy (Range.Ir.analyze ~regs ~reg:code.number cfg))
       else None);
  }

let analyze ?(ranges = true) (f : Func.t) : t = lazy (function_facts ~ranges f)

let classifier (t : t) (label : Label.t) =
  let blk =
    lazy
      (let facts = Lazy.force t in
       Hashtbl.find_opt facts.cfg.Cfg_info.index_of (Label.to_string label)
       |> Option.map (fun b -> (facts.ranges, Lazy.force facts.blocks.(b))))
  in
  fun i j ->
    match Lazy.force blk with
    | Some (ranges, blk) -> classify_in ?ranges blk i j
    | None -> conservative i j

(* A block on its own, with no cross-block facts: for tests and callers
   holding an instruction list rather than a function. *)
let classify_block instrs =
  let code =
    number
      (Cfg_info.build
         (Func.make ~name:"block" ~frame_size:0 ~n_params:0
            [ Block.make (Label.of_string "block") instrs ]))
  in
  let st = new_store () in
  classify_in
    { st; addrs = exec_block code st ~seed:ignore 0; memo = Hashtbl.create 1 }

(* ------------------------------------------------------------------ *)
(* Disambiguation statistics (surfaced by [ilp lint]).                 *)

type stats = {
  pairs : int;  (** ordered same-block pairs with at least one store *)
  no_alias : int;  (** pairs proven independent *)
  must_alias : int;  (** pairs proven to touch the same word *)
  pruned : int;
      (** no-alias pairs the conservative rule would have serialized —
          the DDG edges disambiguation removes *)
}

let func_stats t (f : Func.t) =
  let pairs = ref 0
  and no_alias = ref 0
  and must_alias = ref 0
  and pruned = ref 0 in
  List.iter
    (fun (b : Block.t) ->
      let classify = classifier t b.Block.label in
      let mem_instrs =
        List.filter (fun i -> Instr.is_memory i) b.Block.instrs
      in
      let rec pair_up = function
        | [] -> []
        | i :: rest ->
            List.iter
              (fun j ->
                if Instr.is_store i || Instr.is_store j then begin
                  incr pairs;
                  match classify i j with
                  | No_alias ->
                      incr no_alias;
                      if not (Mem_info.disjoint (mem_of i) (mem_of j)) then
                        incr pruned
                  | Must_alias -> incr must_alias
                  | May_alias -> ()
                end)
              rest;
            pair_up rest
      in
      ignore (pair_up mem_instrs))
    f.Func.blocks;
  { pairs = !pairs; no_alias = !no_alias; must_alias = !must_alias;
    pruned = !pruned }
