(* Reference memory-dependence analysis, for checking
   [Ilp_analysis.Memdep].

   This is the analysis as it stood before it ran on demand: [analyze]
   solves the function-wide [Addr_val] dataflow over maps keyed by raw
   register index (its stale-definition filter sweeps the whole
   environment at every instruction), evaluates every block
   symbolically into one function-wide term store, and, with ranges
   on, solves the value-range dataflow over [Map.Make] environments and
   walks every block a second time to record each definition's range.
   It shares no code with [Memdep] beyond the [Range.V] value domain,
   [Cfg_info] and the [Dataflow] solvers, so a property comparing the
   two verdict by verdict checks the lazy dense analysis against the
   eager naive one, the way [exec_ref.ml] checks [Exec]. *)

open Ilp_ir
module Cfg_info = Ilp_analysis.Cfg_info
module Dataflow = Ilp_analysis.Dataflow
module V = Ilp_analysis.Range.V

(* ------------------------------------------------------------------ *)
(* Register and scalar-cell ranges ([Range.Ir] as it stood).          *)

module Range_ir = struct
  module Key = struct
    type t =
      | Kreg of int  (** raw register index (negative = virtual) *)
      | Kglobal of string  (** named global scalar cell *)
      | Kslot of string * int  (** stack-slot scalar cell: function, slot *)

    let compare = Stdlib.compare
  end

  module M = Map.Make (Key)

  (* Absent keys mean top, so the empty map is the "know nothing"
     state and joins drop any key the two sides disagree on to top for
     free. *)
  type env = Unreachable | Env of V.t M.t

  let unreachable = Unreachable
  let is_unreachable = function Unreachable -> true | Env _ -> false

  let find k m = match M.find_opt k m with Some v -> v | None -> V.top
  let set k v m = if V.equal v V.top then M.remove k m else M.add k v m

  let env_equal a b =
    match (a, b) with
    | Unreachable, Unreachable -> true
    | Env x, Env y -> M.equal V.equal x y
    | (Unreachable | Env _), _ -> false

  let merge_with f a b =
    match (a, b) with
    | Unreachable, v | v, Unreachable -> v
    | Env x, Env y ->
        Env
          (M.merge
             (fun _ l r ->
               match (l, r) with
               | Some l, Some r ->
                   let v = f l r in
                   if V.equal v V.top then None else Some v
               | _ -> None)
             x y)

  let env_join = merge_with V.join
  let env_widen = merge_with V.widen

  let reg env r =
    match env with
    | Unreachable -> V.bot
    | Env m -> find (Key.Kreg (Reg.index r)) m

  let operand env = function
    | Instr.Oimm n -> V.of_const n
    | Instr.Ofimm _ -> V.top
    | Instr.Oreg r -> reg env r

  (* The scalar memory cell a load/store touches, when it is uniquely
     named.  Scalar regions are one word, so the region itself
     identifies the cell. *)
  let cell_of (i : Instr.t) =
    match i.Instr.mem with
    | None -> None
    | Some mi -> (
        match mi.Mem_info.region with
        | Mem_info.Global name -> Some (Key.Kglobal name)
        | Mem_info.Stack_slot (f, slot) -> Some (Key.Kslot (f, slot))
        | Mem_info.Global_array _ | Mem_info.Global_array_view _
        | Mem_info.Stack_array _ | Mem_info.Arg_slot _ | Mem_info.Unknown ->
            None)

  (* A store we cannot attribute to a disjoint named region may hit any
     tracked cell. *)
  let clobber_cells m =
    M.filter (fun k _ -> match k with Key.Kreg _ -> true | _ -> false) m

  let clobber_globals m =
    M.filter
      (fun k _ -> match k with Key.Kglobal _ -> false | _ -> true)
      m

  let store_may_escape (i : Instr.t) =
    match i.Instr.mem with
    | None -> true
    | Some mi -> (
        match mi.Mem_info.region with Mem_info.Unknown -> true | _ -> false)

  let eval_op env (i : Instr.t) =
    let src n = operand env (List.nth i.Instr.srcs n) in
    match i.Instr.op with
    | Opcode.Add -> V.add (src 0) (src 1)
    | Opcode.Sub -> V.sub (src 0) (src 1)
    | Opcode.Mul -> V.mul (src 0) (src 1)
    | Opcode.Div -> V.div (src 0) (src 1)
    | Opcode.Rem -> V.rem (src 0) (src 1)
    | Opcode.Neg -> V.neg (src 0)
    | Opcode.Not ->
        (* lnot x = -1 - x, exactly *)
        V.sub (V.of_const (-1)) (src 0)
    | Opcode.And -> V.band (src 0) (src 1)
    | Opcode.Or -> V.bor (src 0) (src 1)
    | Opcode.Xor -> V.bxor (src 0) (src 1)
    | Opcode.Shl -> V.shl (src 0) (src 1)
    | Opcode.Shr | Opcode.Sra ->
        (* Sra coincides with Shr on the nonnegative ranges Shr can
           bound; both fall to top otherwise. *)
        V.shr (src 0) (src 1)
    | Opcode.Slt | Opcode.Sle | Opcode.Seq | Opcode.Sne | Opcode.Feq
    | Opcode.Flt | Opcode.Fle ->
        V.bool_result
    | Opcode.Mov | Opcode.Li -> src 0
    | Opcode.Fli | Opcode.Fadd | Opcode.Fsub | Opcode.Fneg | Opcode.Fmul
    | Opcode.Fdiv | Opcode.Itof | Opcode.Ftoi ->
        V.top
    | Opcode.Ld | Opcode.St | Opcode.Beq | Opcode.Bne | Opcode.Blt
    | Opcode.Ble | Opcode.Bgt | Opcode.Bge | Opcode.Jmp | Opcode.Call
    | Opcode.Ret | Opcode.Halt | Opcode.Nop ->
        V.top

  let step env (i : Instr.t) =
    match env with
    | Unreachable -> Unreachable
    | Env m -> (
        match i.Instr.op with
        | Opcode.St ->
            let m =
              if store_may_escape i then clobber_cells m
              else
                match cell_of i with
                | Some key -> set key (operand env (List.nth i.Instr.srcs 0)) m
                | None -> m
            in
            Env m
        | Opcode.Ld ->
            let v =
              match cell_of i with Some key -> find key m | None -> V.top
            in
            let m =
              match i.Instr.dst with
              | Some d -> set (Key.Kreg (Reg.index d)) v m
              | None -> m
            in
            Env m
        | Opcode.Call ->
            (* The callee may write any global; stack slots are
               per-activation and survive (regions_disjoint treats
               distinct functions' slots as disjoint, and a recursive
               activation writes its own frame). *)
            let m = clobber_globals m in
            let m =
              List.fold_left
                (fun m d -> M.remove (Key.Kreg (Reg.index d)) m)
                m (Instr.defs i)
            in
            Env m
        | _ -> (
            match i.Instr.dst with
            | None -> env
            | Some d ->
                let v = eval_op env i in
                Env (set (Key.Kreg (Reg.index d)) v m)))

  (* Refine the taken/fallthrough environments of a conditional branch
     on its two register operands. *)
  let refine_branch (i : Instr.t) ~taken env =
    match env with
    | Unreachable -> Unreachable
    | Env m -> (
        match (i.Instr.op, i.Instr.srcs) with
        | ( (Opcode.Beq | Opcode.Bne | Opcode.Blt | Opcode.Ble | Opcode.Bgt | Opcode.Bge),
            [ Instr.Oreg r1; o2 ] ) -> (
            let a = find (Key.Kreg (Reg.index r1)) m in
            let b = operand env o2 in
            let refined =
              match (i.Instr.op, taken) with
              | Opcode.Beq, true | Opcode.Bne, false -> Some (V.assume_eq a b)
              | Opcode.Beq, false | Opcode.Bne, true -> Some (V.assume_ne a b)
              | Opcode.Blt, true | Opcode.Bge, false -> Some (V.assume_lt a b)
              | Opcode.Ble, true | Opcode.Bgt, false -> Some (V.assume_le a b)
              | Opcode.Bge, true | Opcode.Blt, false ->
                  let b', a' = V.assume_le b a in
                  Some (a', b')
              | Opcode.Bgt, true | Opcode.Ble, false ->
                  let b', a' = V.assume_lt b a in
                  Some (a', b')
              | _ -> None
            in
            match refined with
            | None -> env
            | Some (a', b') ->
                if V.is_bot a' || V.is_bot b' then Unreachable
                else
                  let m = set (Key.Kreg (Reg.index r1)) a' m in
                  let m =
                    match o2 with
                    | Instr.Oreg r2 -> set (Key.Kreg (Reg.index r2)) b' m
                    | _ -> m
                  in
                  Env m)
        | _ -> env)

  (* Single-predecessor blocks inherit the outcome of the
     predecessor's conditional branch: the taken target (when it is
     not also the fallthrough) sees the condition hold, the
     fallthrough sees it fail.  This is what recovers a loop body's
     [i < limit] bound after widening blows the header interval to
     +inf — the descending sweeps then pull the header back down
     through the latch. *)
  let entry_refine (cfg : Cfg_info.t) b v =
    match cfg.Cfg_info.preds.(b) with
    | [ p ] -> (
        match List.rev cfg.Cfg_info.blocks.(p).Block.instrs with
        | term :: _ when Instr.is_branch term -> (
            match term.Instr.target with
            | Some tgt ->
                let lbl = cfg.Cfg_info.blocks.(b).Block.label in
                let is_target = Label.equal tgt lbl in
                let is_fallthrough = b = p + 1 in
                if is_target && not is_fallthrough then
                  refine_branch term ~taken:true v
                else if is_fallthrough && not is_target then
                  refine_branch term ~taken:false v
                else v
            | None -> v)
        | _ -> v)
    | _ -> v

  type t = { entries : (string, env) Hashtbl.t }

  module Env_lattice = struct
    type t = env

    let equal = env_equal
    let join = env_join
    let widen = env_widen
    let pp ppf _ = Fmt.string ppf "<range-env>"
  end

  module T = struct
    module L = Env_lattice

    type ctx = Cfg_info.t

    let prepare cfg = cfg
    let init _ = Unreachable
    let boundary _ = Env M.empty

    let transfer cfg b v =
      let v = entry_refine cfg b v in
      List.fold_left step v cfg.Cfg_info.blocks.(b).Block.instrs
  end

  module Solver = Dataflow.Forward_widen (T)

  let analyze (f : Func.t) =
    let cfg = Cfg_info.build f in
    let sol = Solver.solve cfg in
    let entries = Hashtbl.create 17 in
    Array.iteri
      (fun idx (blk : Block.t) ->
        Hashtbl.replace entries (Label.to_string blk.Block.label)
          (entry_refine cfg idx sol.Dataflow.inb.(idx)))
      cfg.Cfg_info.blocks;
    { entries }

  let block_entry t lbl =
    match Hashtbl.find_opt t.entries (Label.to_string lbl) with
    | Some e -> e
    | None -> Unreachable
end

(* ------------------------------------------------------------------ *)
(* The analysis.                                                      *)

type alias = Ilp_analysis.Memdep.alias = Must_alias | No_alias | May_alias

let mem_of (i : Instr.t) =
  match i.Instr.mem with Some m -> m | None -> Mem_info.unknown

(* The refinement floor: what the scheduler already knows without any
   value tracking. *)
let conservative (i : Instr.t) (j : Instr.t) =
  if Mem_info.disjoint (mem_of i) (mem_of j) then No_alias else May_alias

(* ------------------------------------------------------------------ *)
(* Tier 1: interprocedural-block value tracking ("Addr_val").          *)

(* Intervals wider than this are dropped at joins and shifts: past a few
   unroll copies apart, a wide interval proves nothing and only delays
   the fixpoint. *)
let width_cap = 16

module Av = struct
  type base =
    | Abs  (** an absolute constant *)
    | Init of int  (** the value register [index] held at function entry *)
    | Def of int  (** the most recent result of instruction [id] *)

  type t = { base : base; lo : int; hi : int }

  let equal a b = a.base = b.base && a.lo = b.lo && a.hi = b.hi

  let pp_base ppf = function
    | Abs -> ()
    | Init r -> Fmt.pf ppf "%a@entry" Reg.pp (Reg.of_index r)
    | Def id -> Fmt.pf ppf "#%d" id

  let pp ppf { base; lo; hi } =
    if lo = hi then Fmt.pf ppf "%a%+d" pp_base base lo
    else Fmt.pf ppf "%a+[%d,%d]" pp_base base lo hi
end

module IntMap = Map.Make (Int)

module Lattice = struct
  (* [Univ] is the value of paths not yet seen (the join identity of a
     must-analysis); a map entry is a proven fact, an absent key is
     "unknown". *)
  type t = Univ | Env of Av.t IntMap.t

  let equal a b =
    match (a, b) with
    | Univ, Univ -> true
    | Env m1, Env m2 -> IntMap.equal Av.equal m1 m2
    | Univ, Env _ | Env _, Univ -> false

  let join a b =
    match (a, b) with
    | Univ, v | v, Univ -> v
    | Env m1, Env m2 ->
        Env
          (IntMap.merge
             (fun _ a b ->
               match (a, b) with
               | Some (a : Av.t), Some (b : Av.t) when a.base = b.base ->
                   let lo = min a.lo b.lo and hi = max a.hi b.hi in
                   if hi - lo <= width_cap then Some { a with lo; hi }
                   else None
               | _ -> None)
             m1 m2)

  let pp ppf = function
    | Univ -> Fmt.string ppf "<univ>"
    | Env m ->
        Fmt.pf ppf "{%a}"
          (Fmt.iter_bindings ~sep:Fmt.comma IntMap.iter (fun ppf (k, v) ->
               Fmt.pf ppf "%a=%a" Reg.pp (Reg.of_index k) Av.pp v))
          m
end

module Transfer = struct
  module L = Lattice

  type ctx = Cfg_info.t

  let prepare cfg = cfg
  let init _ = Lattice.Univ

  (* Every register enters the function holding its (unknown but fixed)
     entry value; copies of one entry value disambiguate against each
     other across blocks. *)
  let boundary (cfg : Cfg_info.t) =
    let m = ref IntMap.empty in
    List.iter
      (fun (b : Block.t) ->
        List.iter
          (fun (i : Instr.t) ->
            List.iter
              (fun r ->
                let k = Reg.index r in
                m :=
                  IntMap.add k
                    { Av.base = Av.Init k; lo = 0; hi = 0 }
                    !m)
              (Instr.uses i @ Instr.defs i))
          b.Block.instrs)
      cfg.Cfg_info.func.Func.blocks;
    Lattice.Env !m

  let shifted (v : Av.t) lo hi =
    let lo' = v.lo + lo and hi' = v.hi + hi in
    if hi' - lo' <= width_cap then Some { v with lo = lo'; hi = hi' }
    else None

  let step m (i : Instr.t) =
    (* references to instruction [i]'s previous result go stale the
       moment it executes again *)
    let m =
      IntMap.filter (fun _ (v : Av.t) -> v.base <> Av.Def i.Instr.id) m
    in
    let find r = IntMap.find_opt (Reg.index r) m in
    let set r v m = IntMap.add (Reg.index r) v m in
    let own_def () = { Av.base = Av.Def i.Instr.id; lo = 0; hi = 0 } in
    if Instr.is_call i then
      (* the callee may clobber anything but restores the stack
         pointer *)
      let m = IntMap.filter (fun k _ -> k = Reg.index Reg.sp) m in
      set Instr.ret_reg (own_def ()) m
    else
      match (i.Instr.op, i.Instr.dst, i.Instr.srcs) with
      | Opcode.Li, Some d, [ Instr.Oimm n ] ->
          set d { Av.base = Av.Abs; lo = n; hi = n } m
      | Opcode.Mov, Some d, [ Instr.Oreg s ] -> (
          match find s with
          | Some v -> set d v m
          | None -> set d (own_def ()) m)
      | (Opcode.Add | Opcode.Sub), Some d, [ Instr.Oreg s1; op2 ] ->
          let sub = i.Instr.op = Opcode.Sub in
          let v =
            match (find s1, op2) with
            | Some v1, Instr.Oimm n ->
                if sub then shifted v1 (-n) (-n) else shifted v1 n n
            | Some v1, Instr.Oreg s2 -> (
                match (v1, find s2) with
                | v1, Some { Av.base = Av.Abs; lo; hi } ->
                    if sub then shifted v1 (-hi) (-lo) else shifted v1 lo hi
                | { Av.base = Av.Abs; lo; hi; _ }, Some v2 when not sub ->
                    shifted v2 lo hi
                | _ -> None)
            | None, _ -> None
            | Some _, Instr.Ofimm _ -> None
          in
          set d (Option.value v ~default:(own_def ())) m
      | _, Some d, _ -> set d (own_def ()) m
      | _, None, _ -> m

  let transfer (cfg : ctx) bi v =
    match v with
    | Lattice.Univ -> Lattice.Univ
    | Lattice.Env m ->
        Lattice.Env
          (List.fold_left step m cfg.Cfg_info.blocks.(bi).Block.instrs)
end

module Solver = Dataflow.Forward (Transfer)

(* ------------------------------------------------------------------ *)
(* Tier 2: per-block symbolic addresses as linear combinations of      *)
(* hash-consed terms.                                                  *)

type tnode =
  | TInit of int  (** register [index]'s value at function entry *)
  | TPre of int  (** instruction [id]'s last result before block entry *)
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

(* Symbolically execute one straight-line block.  [seed] pre-populates
   the register environment from tier-1 facts; any other register read
   lazily binds a fresh opaque (memoized through the environment, so
   re-reads agree and redefinitions forget it).  Returns the symbolic
   address of every memory instruction, keyed by instruction id. *)
let exec_block st ~seed instrs =
  let env : (int, lin) Hashtbl.t = Hashtbl.create 64 in
  seed env;
  (* value-numbered memory: embedded address term -> (address, value) *)
  let memenv : (int, lin * lin) Hashtbl.t = Hashtbl.create 16 in
  let addrs : (int, lin) Hashtbl.t = Hashtbl.create 16 in
  let read_reg r =
    let k = Reg.index r in
    match Hashtbl.find_opt env k with
    | Some v -> v
    | None ->
        let v = lterm (opaque st) in
        Hashtbl.replace env k v;
        v
  in
  let operand = function
    | Instr.Oreg r -> read_reg r
    | Instr.Oimm n -> lconst n
    | Instr.Ofimm _ -> lterm (opaque st)
  in
  let set d v = Hashtbl.replace env (Reg.index d) v in
  let node op args =
    let args = List.map (embed st) args in
    let args =
      if Opcode.is_assoc_commutative op then List.sort compare args else args
    in
    lterm (intern st (TApp (op, args)))
  in
  List.iter
    (fun (i : Instr.t) ->
      if Instr.is_call i then begin
        (* the callee may read and write any register except the
           restored stack pointer, and any memory word *)
        let sp_v = read_reg Reg.sp in
        Hashtbl.reset env;
        Hashtbl.replace env (Reg.index Reg.sp) sp_v;
        Hashtbl.reset memenv;
        set Instr.ret_reg (lterm (opaque st))
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
            Option.iter (fun d -> set d v) i.Instr.dst
        | Opcode.St, [ value; base ] ->
            let v = operand value in
            let addr = ladd (operand base) (lconst i.Instr.offset) in
            Hashtbl.replace addrs i.Instr.id addr;
            (* provably different words survive, the same word is
               forwarded, everything else is killed *)
            let keep =
              Hashtbl.fold
                (fun k ((ka, _) as e) acc ->
                  let d = lsub addr ka in
                  if d.coeffs = [] && d.off <> 0 then (k, e) :: acc else acc)
                memenv []
            in
            Hashtbl.reset memenv;
            List.iter (fun (k, e) -> Hashtbl.replace memenv k e) keep;
            Hashtbl.replace memenv (embed st addr) (addr, v)
        | op, srcs -> (
            match i.Instr.dst with
            | None -> ()  (* branches and the like only read registers *)
            | Some d ->
                let v =
                  match (op, srcs) with
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
                      lterm (opaque st)
                in
                set d v))
    instrs;
  addrs

(* ------------------------------------------------------------------ *)
(* Tier 3: value ranges over the symbolic terms.                       *)

(* When the symbolic difference of two addresses does not fold to a
   constant, its residual terms often still have provably small or
   strided footprints: a masked index (i & 7) lies in [0,7] whatever i
   is, a scaled one (2*i) is even.  Evaluating the difference over the
   {!V} reduced product turns those facts into no-alias verdicts
   the purely symbolic tiers cannot reach — disjoint windows
   (base+8+[0,7] vs base+[0,7] differ by [1,15]) and incompatible
   strides (2i vs 2j+1 differ by an odd number) both exclude zero.

   Soundness: every term denotes one fixed value per block execution,
   and its range over-approximates that value across *all* executions,
   so the evaluated difference range contains the concrete difference
   of any single execution; if zero is excluded, the two accesses can
   never coincide. *)

type rangectx = {
  rstore : store;
  def_range : (int, V.t) Hashtbl.t;
      (** instruction id -> range of its result over all executions *)
  init_range : int -> V.t;  (** register index -> entry range *)
  memo : (int, V.t) Hashtbl.t;
}

let rec term_range ctx tid =
  match Hashtbl.find_opt ctx.memo tid with
  | Some v -> v
  | None ->
      Hashtbl.replace ctx.memo tid V.top;
      let v =
        match Hashtbl.find_opt ctx.rstore.rev tid with
        | None | Some (TOpaque _) -> V.top
        | Some (TInit r) -> ctx.init_range r
        | Some (TPre id) ->
            Option.value
              (Hashtbl.find_opt ctx.def_range id)
              ~default:V.top
        | Some (TApp (op, args)) -> (
            let rs = List.map (term_range ctx) args in
            match (op, rs) with
            | Opcode.And, [ a; b ] -> V.band a b
            | Opcode.Or, [ a; b ] -> V.bor a b
            | Opcode.Xor, [ a; b ] -> V.bxor a b
            | Opcode.Not, [ a ] -> V.sub (V.of_const (-1)) a
            | Opcode.Shl, [ a; b ] -> V.shl a b
            | (Opcode.Shr | Opcode.Sra), [ a; b ] -> V.shr a b
            | Opcode.Mul, [ a; b ] -> V.mul a b
            | (Opcode.Slt | Opcode.Sle | Opcode.Seq | Opcode.Sne), _ ->
                V.bool_result
            | _ -> V.top)
        | Some (TLin (coeffs, off)) -> lin_range_parts ctx coeffs off
      in
      Hashtbl.replace ctx.memo tid v;
      v

and lin_range_parts ctx coeffs off =
  List.fold_left
    (fun acc (t, c) ->
      V.add acc (V.mul (V.of_const c) (term_range ctx t)))
    (V.of_const off) coeffs

let lin_range ctx (l : lin) = lin_range_parts ctx l.coeffs l.off

let classify_with ?sharpen addrs (i : Instr.t) (j : Instr.t) =
  match
    (Hashtbl.find_opt addrs i.Instr.id, Hashtbl.find_opt addrs j.Instr.id)
  with
  | Some a, Some b -> (
      let d = lsub a b in
      if d.coeffs = [] then if d.off = 0 then Must_alias else No_alias
      else
        match sharpen with
        | Some ctx when V.excludes_zero (lin_range ctx d) -> No_alias
        | _ -> conservative i j)
  | _ -> conservative i j

(* ------------------------------------------------------------------ *)
(* Per-function analysis.                                              *)

type t = {
  by_label : (string, (int, lin) Hashtbl.t) Hashtbl.t;
  sharpen : rangectx option;
}

let range_ctx st (f : Func.t) =
  let ir = Range_ir.analyze f in
  let def_range = Hashtbl.create 64 in
  List.iter
    (fun (b : Block.t) ->
      let env = ref (Range_ir.block_entry ir b.Block.label) in
      if not (Range_ir.is_unreachable !env) then
        List.iter
          (fun (i : Instr.t) ->
            let env' = Range_ir.step !env i in
            Option.iter
              (fun d ->
                Hashtbl.replace def_range i.Instr.id (Range_ir.reg env' d))
              i.Instr.dst;
            env := env')
          b.Block.instrs)
    f.Func.blocks;
  let entry_env =
    match f.Func.blocks with
    | b :: _ -> Range_ir.block_entry ir b.Block.label
    | [] -> Range_ir.unreachable
  in
  let init_range k =
    if Range_ir.is_unreachable entry_env then V.top
    else Range_ir.reg entry_env (Reg.of_index k)
  in
  { rstore = st; def_range; init_range; memo = Hashtbl.create 64 }

let analyze ?(ranges = true) (f : Func.t) =
  let cfg = Cfg_info.build f in
  let sol = Solver.solve cfg in
  let st = new_store () in
  let by_label = Hashtbl.create (Array.length cfg.Cfg_info.blocks) in
  Array.iteri
    (fun bi (b : Block.t) ->
      let facts =
        if Cfg_info.reachable cfg bi then sol.Dataflow.inb.(bi)
        else Lattice.Univ
      in
      let seed env =
        match facts with
        | Lattice.Univ -> ()
        | Lattice.Env m ->
            IntMap.iter
              (fun k (v : Av.t) ->
                if v.lo = v.hi then
                  let value =
                    match v.base with
                    | Av.Abs -> lconst v.lo
                    | Av.Init r -> ladd (lterm (intern st (TInit r))) (lconst v.lo)
                    | Av.Def id -> ladd (lterm (intern st (TPre id))) (lconst v.lo)
                  in
                  Hashtbl.replace env k value)
              m
      in
      let addrs = exec_block st ~seed b.Block.instrs in
      Hashtbl.replace by_label (Label.to_string b.Block.label) addrs)
    cfg.Cfg_info.blocks;
  { by_label; sharpen = (if ranges then Some (range_ctx st f) else None) }

let classifier t (label : Label.t) =
  match Hashtbl.find_opt t.by_label (Label.to_string label) with
  | Some addrs -> classify_with ?sharpen:t.sharpen addrs
  | None -> conservative

(* A block on its own, with no cross-block facts: for tests and callers
   holding an instruction list rather than a function. *)
let classify_block instrs =
  let st = new_store () in
  classify_with (exec_block st ~seed:(fun _ -> ()) instrs)

(* ------------------------------------------------------------------ *)
(* Disambiguation statistics (surfaced by [ilp lint]).                 *)

type stats = Ilp_analysis.Memdep.stats = {
  pairs : int;
  no_alias : int;
  must_alias : int;
  pruned : int;
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
