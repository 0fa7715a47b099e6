(* Generic iterative dataflow over a Cfg_info.

   An analysis is a LATTICE (the per-block abstract value) plus a
   TRANSFER (per-function precomputed context, boundary/initial values,
   and the block transfer function).  The two solvers run the classic
   worklist iteration to a fixpoint, sweeping the reverse postorder
   (forward) or the postorder (backward) so that acyclic flow converges
   in one pass and loops in a handful.

   Conventions shared by every instance:

   - [init] is the solver's starting value everywhere — the lattice
     bottom for may-analyses (union join, e.g. liveness) and the
     "universe" top for must-analyses (intersection join, e.g.
     definite assignment, available expressions), where it doubles as
     the identity of [join];
   - [boundary] enters at the entry block (forward) or at blocks
     without successors (backward);
   - blocks unreachable from the entry are never processed and keep
     [init]; instances that report per-instruction facts must skip
     them (execution cannot reach those blocks). *)

module type LATTICE = sig
  type t

  val equal : t -> t -> bool
  val join : t -> t -> t
  val pp : t Fmt.t
end

module type TRANSFER = sig
  module L : LATTICE

  type ctx
  (** Whatever the transfer function precomputes per function
      (use/def sets, gen/kill sets, ...). *)

  val prepare : Cfg_info.t -> ctx
  val init : ctx -> L.t
  val boundary : ctx -> L.t

  val transfer : ctx -> int -> L.t -> L.t
  (** [transfer ctx b v] pushes [v] through block [b] — input value to
      output value (forward), output value to input value (backward). *)
end

type 'a solution = { inb : 'a array; outb : 'a array }

(* One worklist iteration shared by both directions.  [order] is the
   sweep order; [sources b] are the blocks whose solved values feed
   [b]'s input side; [dependents b] must be re-examined when [b]'s
   output side changes.  [at_boundary b] marks blocks that additionally
   join the boundary value. *)
let run_worklist (type a) (module L : LATTICE with type t = a) cfg ~order
    ~sources ~dependents ~at_boundary ~(boundary : a) ~(init : a)
    ~(transfer : int -> a -> a) =
  let n = Cfg_info.n_blocks cfg in
  let input = Array.make n init in
  let output = Array.make n init in
  let pending = Array.make n false in
  Array.iter (fun b -> pending.(b) <- true) order;
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun b ->
        if pending.(b) then begin
          pending.(b) <- false;
          let from_sources =
            List.fold_left
              (fun acc s -> L.join acc output.(s))
              init (sources b)
          in
          let in_v =
            if at_boundary b then L.join boundary from_sources
            else from_sources
          in
          let out_v = transfer b in_v in
          input.(b) <- in_v;
          if not (L.equal out_v output.(b)) then begin
            output.(b) <- out_v;
            List.iter
              (fun d -> pending.(d) <- true)
              (dependents b);
            changed := true
          end
        end)
      order
  done;
  (input, output)

module Forward (T : TRANSFER) = struct
  let solve (cfg : Cfg_info.t) : T.L.t solution =
    let ctx = T.prepare cfg in
    let input, output =
      run_worklist
        (module T.L)
        cfg ~order:cfg.Cfg_info.rpo
        ~sources:(fun b -> cfg.Cfg_info.preds.(b))
        ~dependents:(fun b -> cfg.Cfg_info.succs.(b))
        ~at_boundary:(fun b -> b = 0)
        ~boundary:(T.boundary ctx) ~init:(T.init ctx)
        ~transfer:(T.transfer ctx)
    in
    { inb = input; outb = output }
end

module Backward (T : TRANSFER) = struct
  let solve (cfg : Cfg_info.t) : T.L.t solution =
    let ctx = T.prepare cfg in
    let postorder =
      let rpo = cfg.Cfg_info.rpo in
      let n = Array.length rpo in
      Array.init n (fun k -> rpo.(n - 1 - k))
    in
    (* the backward "input" is the block's live-out side *)
    let output_side, input_side =
      run_worklist
        (module T.L)
        cfg ~order:postorder
        ~sources:(fun b -> cfg.Cfg_info.succs.(b))
        ~dependents:(fun b -> cfg.Cfg_info.preds.(b))
        ~at_boundary:(fun b -> cfg.Cfg_info.succs.(b) = [])
        ~boundary:(T.boundary ctx) ~init:(T.init ctx)
        ~transfer:(T.transfer ctx)
    in
    { inb = input_side; outb = output_side }
end

module type LATTICE_W = sig
  include LATTICE

  val widen : t -> t -> t
end

module type TRANSFER_W = sig
  module L : LATTICE_W

  type ctx

  val prepare : Cfg_info.t -> ctx
  val init : ctx -> L.t
  val boundary : ctx -> L.t
  val transfer : ctx -> int -> L.t -> L.t
end

(* Forward solver with widening at retreating-edge targets.  The
   ascending phase is the classic worklist iteration, except that a
   block whose input flows in over a retreating edge (a predecessor at
   an equal or later reverse-postorder position — every natural loop
   head qualifies) replaces plain join with [widen old incoming], so
   lattices of infinite height (intervals) still stabilise.  The result
   is a post-fixpoint; two descending sweeps then recompute each block
   from its predecessors without widening.  Starting from a
   post-fixpoint, every recomputation stays above the least fixpoint,
   so stopping after a fixed number of sweeps is sound — this is the
   standard narrowing truncation. *)
module Forward_widen (T : TRANSFER_W) = struct
  module L = T.L

  let solve (cfg : Cfg_info.t) : L.t solution =
    let ctx = T.prepare cfg in
    let n = Cfg_info.n_blocks cfg in
    let init = T.init ctx and boundary = T.boundary ctx in
    let order = cfg.Cfg_info.rpo in
    let pos = Array.make n max_int in
    Array.iteri (fun k b -> pos.(b) <- k) order;
    let widen_point b =
      List.exists (fun p -> pos.(p) >= pos.(b)) cfg.Cfg_info.preds.(b)
    in
    let input = Array.make n init in
    let output = Array.make n init in
    let joined b =
      let from_preds =
        List.fold_left
          (fun acc p -> L.join acc output.(p))
          init cfg.Cfg_info.preds.(b)
      in
      if b = 0 then L.join boundary from_preds else from_preds
    in
    (* ascending, widened *)
    let pending = Array.make n false in
    Array.iter (fun b -> pending.(b) <- true) order;
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (fun b ->
          if pending.(b) then begin
            pending.(b) <- false;
            let incoming = joined b in
            let in_v =
              if widen_point b then L.widen input.(b) incoming else incoming
            in
            let out_v = T.transfer ctx b in_v in
            input.(b) <- in_v;
            if not (L.equal out_v output.(b)) then begin
              output.(b) <- out_v;
              List.iter (fun s -> pending.(s) <- true) cfg.Cfg_info.succs.(b);
              changed := true
            end
          end)
        order
    done;
    (* descending (narrowing), two truncated sweeps *)
    for _ = 1 to 2 do
      Array.iter
        (fun b ->
          let in_v = joined b in
          input.(b) <- in_v;
          output.(b) <- T.transfer ctx b in_v)
        order
    done;
    { inb = input; outb = output }
end

(* The two workhorse lattices. *)

module Reg_set_lattice = struct
  type t = Ilp_ir.Reg.Set.t

  let equal = Ilp_ir.Reg.Set.equal
  let join = Ilp_ir.Reg.Set.union

  let pp ppf s =
    Fmt.pf ppf "{%a}"
      (Fmt.list ~sep:Fmt.comma Ilp_ir.Reg.pp)
      (Ilp_ir.Reg.Set.elements s)
end

(* A set-with-top lattice for must-analyses: [Univ] is the value of
   paths not yet seen (the identity of intersection), so the entry
   boundary — typically [Known empty] — dominates as soon as it
   arrives. *)
module Must_set (S : Set.S) = struct
  type t = Univ | Known of S.t

  let equal a b =
    match (a, b) with
    | Univ, Univ -> true
    | Known x, Known y -> S.equal x y
    | Univ, Known _ | Known _, Univ -> false

  let join a b =
    match (a, b) with
    | Univ, v | v, Univ -> v
    | Known x, Known y -> Known (S.inter x y)

  let pp pp_elt ppf = function
    | Univ -> Fmt.string ppf "<univ>"
    | Known s ->
        Fmt.pf ppf "{%a}" (Fmt.list ~sep:Fmt.comma pp_elt) (S.elements s)
end

(* The flat (constant-propagation) lattice over an arbitrary value
   domain: Bot — no path has produced a value yet (the identity of
   join) — is refined to [Known v] by the first value seen, and two
   disagreeing values collapse to Top.  This is the per-variable
   lattice of every constant-style analysis; `Ilp_lang.Bounds` uses it
   to merge scalar environments at control-flow joins when deriving
   loop trip counts. *)
module Flat (V : sig
  type t

  val equal : t -> t -> bool
  val pp : t Fmt.t
end) =
struct
  type t = Bot | Known of V.t | Top

  let equal a b =
    match (a, b) with
    | Bot, Bot | Top, Top -> true
    | Known x, Known y -> V.equal x y
    | (Bot | Known _ | Top), _ -> false

  let join a b =
    match (a, b) with
    | Bot, v | v, Bot -> v
    | Top, _ | _, Top -> Top
    | Known x, Known y -> if V.equal x y then a else Top

  let pp ppf = function
    | Bot -> Fmt.string ppf "<bot>"
    | Top -> Fmt.string ppf "<top>"
    | Known v -> V.pp ppf v
end
