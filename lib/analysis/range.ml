(* Value-range abstract interpretation: reduced product of intervals
   and congruences.

   Every transfer function obeys one contract: for any concrete values
   x in gamma(a) and y in gamma(b), the concrete result of the
   operation is in gamma(op a b).  Operations that cannot be bounded
   cheaply return top — always sound, never precise.  Arithmetic on
   interval endpoints deliberately mirrors OCaml's boxed-int semantics
   because both Exec and the MiniMod evaluator compute with native
   ints; the generators keep values far from [max_int], so endpoint
   arithmetic does not overflow in practice, and where it could
   (multiplication of huge constants) we saturate to infinity. *)

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* Saturation guard: endpoint magnitudes beyond this collapse to an
   infinite bound, keeping products of wide ranges overflow-free. *)
let big = 1 lsl 40

module Interval = struct
  type bound = Ninf | Fin of int | Pinf
  type t = Bot | Iv of bound * bound

  let top = Iv (Ninf, Pinf)
  let of_const n = Iv (Fin n, Fin n)

  let cmp_bound a b =
    match (a, b) with
    | Ninf, Ninf | Pinf, Pinf -> 0
    | Ninf, _ -> -1
    | _, Ninf -> 1
    | Pinf, _ -> 1
    | _, Pinf -> -1
    | Fin x, Fin y -> compare x y

  let min_bound a b = if cmp_bound a b <= 0 then a else b
  let max_bound a b = if cmp_bound a b >= 0 then a else b

  let sat = function
    | Fin n when n > big -> Pinf
    | Fin n when n < -big -> Ninf
    | b -> b

  let of_bounds lo hi =
    let lo = sat lo and hi = sat hi in
    if cmp_bound lo hi > 0 then Bot else Iv (lo, hi)

  let equal a b =
    match (a, b) with
    | Bot, Bot -> true
    | Iv (l1, h1), Iv (l2, h2) -> l1 = l2 && h1 = h2
    | (Bot | Iv _), _ -> false

  let join a b =
    match (a, b) with
    | Bot, v | v, Bot -> v
    | Iv (l1, h1), Iv (l2, h2) -> Iv (min_bound l1 l2, max_bound h1 h2)

  let meet a b =
    match (a, b) with
    | Bot, _ | _, Bot -> Bot
    | Iv (l1, h1), Iv (l2, h2) ->
        let lo = max_bound l1 l2 and hi = min_bound h1 h2 in
        if cmp_bound lo hi > 0 then Bot else Iv (lo, hi)

  (* [widen old incoming]: any endpoint the incoming value pushes past
     the old one jumps straight to infinity, so ascending chains have
     length at most 2 per side. *)
  let widen old inc =
    match (old, inc) with
    | Bot, v | v, Bot -> v
    | Iv (l1, h1), Iv (l2, h2) ->
        let lo = if cmp_bound l2 l1 < 0 then Ninf else l1 in
        let hi = if cmp_bound h2 h1 > 0 then Pinf else h1 in
        Iv (lo, hi)

  (* [narrow old finer]: recover infinite endpoints from the finer
     value; finite endpoints of [old] are kept (sound as long as
     [finer] is itself an over-approximation, which descending
     iteration guarantees). *)
  let narrow old finer =
    match (old, finer) with
    | Bot, _ | _, Bot -> Bot
    | Iv (l1, h1), Iv (l2, h2) ->
        let lo = if l1 = Ninf then l2 else l1 in
        let hi = if h1 = Pinf then h2 else h1 in
        if cmp_bound lo hi > 0 then Bot else Iv (lo, hi)

  let mem n = function
    | Bot -> false
    | Iv (lo, hi) -> cmp_bound lo (Fin n) <= 0 && cmp_bound (Fin n) hi <= 0

  let pp_bound ppf = function
    | Ninf -> Fmt.string ppf "-inf"
    | Pinf -> Fmt.string ppf "+inf"
    | Fin n -> Fmt.int ppf n

  let pp ppf = function
    | Bot -> Fmt.string ppf "_|_"
    | Iv (lo, hi) -> Fmt.pf ppf "[%a,%a]" pp_bound lo pp_bound hi
end

module Congruence = struct
  (* Cg (r, m): the set { r + k*m }.  m = 0 is the constant r; m = 1 is
     top.  Normalised so 0 <= r < m whenever m > 0. *)
  type t = Bot | Cg of int * int

  let top = Cg (0, 1)
  let of_const n = Cg (n, 0)

  let make r m =
    let m = abs m in
    if m = 0 then Cg (r, 0) else Cg (((r mod m) + m) mod m, m)

  let equal a b =
    match (a, b) with
    | Bot, Bot -> true
    | Cg (r1, m1), Cg (r2, m2) -> r1 = r2 && m1 = m2
    | (Bot | Cg _), _ -> false

  let join a b =
    match (a, b) with
    | Bot, v | v, Bot -> v
    | Cg (r1, m1), Cg (r2, m2) -> make r1 (gcd (gcd m1 m2) (r1 - r2))

  let mem n = function
    | Bot -> false
    | Cg (r, 0) -> n = r
    | Cg (r, m) -> (((n - r) mod m) + m) mod m = 0

  (* Extended gcd: returns (g, x) with a*x = g (mod b), both a,b > 0. *)
  let ext_gcd a b =
    let rec go r0 r1 s0 s1 = if r1 = 0 then (r0, s0) else go r1 (r0 mod r1) s1 (s0 - (r0 / r1 * s1)) in
    go a b 1 0

  let meet a b =
    match (a, b) with
    | Bot, _ | _, Bot -> Bot
    | Cg (r1, 0), other | other, Cg (r1, 0) ->
        if mem r1 other then Cg (r1, 0) else Bot
    | Cg (_, 1), other | other, Cg (_, 1) -> other
    | Cg (r1, m1), Cg (r2, m2) ->
        let g = gcd m1 m2 in
        if (r1 - r2) mod g <> 0 then Bot
        else
          let l = m1 / g * m2 in
          if l > big then if m1 >= m2 then a else b
          else
            (* CRT: x = r1 (mod m1), x = r2 (mod m2) has the unique
               solution r1 + m1 * t (mod lcm) with
               t = (r2 - r1)/g * inv(m1/g) (mod m2/g). *)
            let _, inv = ext_gcd (m1 / g) (m2 / g) in
            let t = (r2 - r1) / g * inv mod (m2 / g) in
            make (r1 + (m1 * t)) l

  let pp ppf = function
    | Bot -> Fmt.string ppf "_|_"
    | Cg (r, 0) -> Fmt.pf ppf "=%d" r
    | Cg (_, 1) -> Fmt.string ppf "T"
    | Cg (r, m) -> Fmt.pf ppf "%d(mod %d)" r m
end

module V = struct
  type t = { iv : Interval.t; cg : Congruence.t }

  let top = { iv = Interval.top; cg = Congruence.top }
  let bot = { iv = Interval.Bot; cg = Congruence.Bot }

  let is_bot v =
    match (v.iv, v.cg) with Interval.Bot, _ | _, Congruence.Bot -> true | _ -> false

  let of_const n = { iv = Interval.of_const n; cg = Congruence.of_const n }

  (* Round a finite endpoint inward to the nearest member of Cg(r,m). *)
  let round_up_to r m = function
    | Interval.Fin l -> Interval.Fin (l + ((((r - l) mod m) + m) mod m))
    | b -> b

  let round_down_to r m = function
    | Interval.Fin h -> Interval.Fin (h - ((((h - r) mod m) + m) mod m))
    | b -> b

  let make iv cg =
    match (iv, cg) with
    | Interval.Bot, _ | _, Congruence.Bot -> bot
    | Interval.Iv (Fin a, Fin b), _ when a = b -> (
        (* singleton interval: the congruence must contain the constant *)
        if Congruence.mem a cg then of_const a else bot)
    | _, Congruence.Cg (r, 0) -> (
        match Interval.meet iv (Interval.of_const r) with
        | Interval.Bot -> bot
        | _ -> of_const r)
    | _, Congruence.Cg (_, 1) -> { iv; cg }
    | Interval.Iv (lo, hi), Congruence.Cg (r, m) -> (
        let lo = round_up_to r m lo and hi = round_down_to r m hi in
        match Interval.of_bounds lo hi with
        | Interval.Bot -> bot
        | Interval.Iv (Fin a, Fin b) when a = b -> of_const a
        | iv -> { iv; cg })

  let of_interval iv = make iv Congruence.top

  let is_const v =
    match v.iv with
    | Interval.Iv (Fin a, Fin b) when a = b && not (is_bot v) -> Some a
    | _ -> None

  let equal a b = Interval.equal a.iv b.iv && Congruence.equal a.cg b.cg
  let join a b = if is_bot a then b else if is_bot b then a
    else make (Interval.join a.iv b.iv) (Congruence.join a.cg b.cg)
  let meet a b = make (Interval.meet a.iv b.iv) (Congruence.meet a.cg b.cg)

  (* No reduction after widening: rounding endpoints inward could undo
     the jump to infinity and break termination. *)
  let widen old inc =
    if is_bot old then inc
    else if is_bot inc then old
    else { iv = Interval.widen old.iv inc.iv; cg = Congruence.join old.cg inc.cg }

  let narrow old finer =
    if is_bot finer then finer
    else make (Interval.narrow old.iv finer.iv) finer.cg

  let mem n v = Interval.mem n v.iv && Congruence.mem n v.cg

  let of_counted ~start ~step ~trips =
    if trips <= 0 then bot
    else
      let last = start + ((trips - 1) * step) in
      make
        (Interval.of_bounds (Fin (min start last)) (Fin (max start last)))
        (Congruence.make start step)

  (* --- transfer functions --- *)

  let lift2_const f a b =
    match (is_const a, is_const b) with
    | Some x, Some y -> f x y
    | _ -> None

  let bounds v =
    match v.iv with
    | Interval.Iv (lo, hi) -> (lo, hi)
    | Interval.Bot -> (Interval.Pinf, Interval.Ninf)

  let nonneg v = match bounds v with Fin l, _ -> l >= 0 | _ -> false

  (* Endpoint sums: on a lo side Ninf dominates, on a hi side Pinf
     dominates; valid intervals never pair Ninf with Pinf on the same
     side. *)
  let add_lo a b =
    match (a, b) with
    | Interval.Ninf, _ | _, Interval.Ninf -> Interval.Ninf
    | Interval.Pinf, _ | _, Interval.Pinf -> Interval.Pinf
    | Interval.Fin x, Interval.Fin y -> Interval.sat (Fin (x + y))

  let add_hi a b =
    match (a, b) with
    | Interval.Pinf, _ | _, Interval.Pinf -> Interval.Pinf
    | Interval.Ninf, _ | _, Interval.Ninf -> Interval.Ninf
    | Interval.Fin x, Interval.Fin y -> Interval.sat (Fin (x + y))

  let neg_bound = function
    | Interval.Ninf -> Interval.Pinf
    | Interval.Pinf -> Interval.Ninf
    | Interval.Fin n -> Interval.Fin (-n)

  let cg_add a b =
    match (a, b) with
    | Congruence.Bot, _ | _, Congruence.Bot -> Congruence.Bot
    | Congruence.Cg (r1, m1), Congruence.Cg (r2, m2) ->
        Congruence.make (r1 + r2) (gcd m1 m2)

  let cg_sub a b =
    match (a, b) with
    | Congruence.Bot, _ | _, Congruence.Bot -> Congruence.Bot
    | Congruence.Cg (r1, m1), Congruence.Cg (r2, m2) ->
        Congruence.make (r1 - r2) (gcd m1 m2)

  let cg_mul a b =
    match (a, b) with
    | Congruence.Bot, _ | _, Congruence.Bot -> Congruence.Bot
    | Congruence.Cg (r1, m1), Congruence.Cg (r2, m2) ->
        (* (r1 + k m1)(r2 + l m2) = r1 r2 + multiples of gcd-determined
           stride *)
        Congruence.make (r1 * r2) (gcd (gcd (m1 * r2) (m2 * r1)) (m1 * m2))

  let cg_neg = function
    | Congruence.Bot -> Congruence.Bot
    | Congruence.Cg (r, m) -> Congruence.make (-r) m

  let add a b =
    if is_bot a || is_bot b then bot
    else
      let l1, h1 = bounds a and l2, h2 = bounds b in
      make (Interval.of_bounds (add_lo l1 l2) (add_hi h1 h2)) (cg_add a.cg b.cg)

  let neg a =
    if is_bot a then bot
    else
      let lo, hi = bounds a in
      make (Interval.of_bounds (neg_bound hi) (neg_bound lo)) (cg_neg a.cg)

  let sub a b =
    if is_bot a || is_bot b then bot
    else
      let l1, h1 = bounds a and l2, h2 = bounds b in
      make
        (Interval.of_bounds (add_lo l1 (neg_bound h2)) (add_hi h1 (neg_bound l2)))
        (cg_sub a.cg b.cg)

  let mul_bound a b =
    match (a, b) with
    | Interval.Fin 0, _ | _, Interval.Fin 0 -> Interval.Fin 0
    | Interval.Fin x, Interval.Fin y -> Interval.sat (Fin (x * y))
    | Interval.Fin x, inf | inf, Interval.Fin x ->
        if x > 0 then inf else neg_bound inf
    | Interval.Ninf, Interval.Ninf | Interval.Pinf, Interval.Pinf ->
        Interval.Pinf
    | Interval.Ninf, Interval.Pinf | Interval.Pinf, Interval.Ninf ->
        Interval.Ninf

  let corners f a b =
    let l1, h1 = bounds a and l2, h2 = bounds b in
    let c1 = f l1 l2 and c2 = f l1 h2 and c3 = f h1 l2 and c4 = f h1 h2 in
    Interval.of_bounds
      (Interval.min_bound (Interval.min_bound c1 c2) (Interval.min_bound c3 c4))
      (Interval.max_bound (Interval.max_bound c1 c2) (Interval.max_bound c3 c4))

  let mul a b =
    if is_bot a || is_bot b then bot
    else make (corners mul_bound a b) (cg_mul a.cg b.cg)

  (* Truncated division, OCaml semantics.  Division by zero faults
     concretely; abstractly the faulting executions contribute no
     result, so ignoring the zero divisor is sound. *)
  let div a b =
    if is_bot a || is_bot b then bot
    else
      match is_const b with
      | Some 0 -> top
      | Some c ->
          let q x = match x with
            | Interval.Fin v -> Interval.Fin (v / c)
            | inf -> if c > 0 then inf else neg_bound inf
          in
          let l, h = bounds a in
          let c1 = q l and c2 = q h in
          make
            (Interval.of_bounds (Interval.min_bound c1 c2)
               (Interval.max_bound c1 c2))
            Congruence.top
      | None ->
          (* x / y with y >= 1 and x >= 0 shrinks: 0 <= x/y <= x *)
          if nonneg a && Interval.mem 0 b.iv = false && nonneg b then
            let _, h = bounds a in
            make (Interval.of_bounds (Fin 0) h) Congruence.top
          else top

  let rem a b =
    if is_bot a || is_bot b then bot
    else
      match lift2_const (fun x y -> if y = 0 then None else Some (x mod y)) a b with
      | Some r -> of_const r
      | None -> (
          match is_const b with
          | Some 0 -> top
          | Some c ->
              let c = abs c in
              if nonneg a then
                let _, h = bounds a in
                let hi =
                  Interval.min_bound h (Fin (c - 1))
                in
                let cg =
                  match a.cg with
                  | Congruence.Cg (r, m) when m > 0 && m mod c = 0 ->
                      (* every member is r (mod c) and nonnegative, so
                         truncated rem equals mathematical mod *)
                      Congruence.of_const (r mod c)
                  | _ -> Congruence.top
                in
                make (Interval.of_bounds (Fin 0) hi) cg
              else make (Interval.of_bounds (Fin (-(c - 1))) (Fin (c - 1))) Congruence.top
          | None ->
              (* non-constant divisor: |x mod y| < |y| and sign follows x *)
              let _, hb = bounds b in
              let lb_abs, _ = bounds b in
              let mag =
                match (lb_abs, hb) with
                | Interval.Fin l, Interval.Fin h ->
                    Some (max (abs l) (abs h) - 1)
                | _ -> None
              in
              match mag with
              | None -> top
              | Some m ->
                  let m = max m 0 in
                  if nonneg a then
                    let _, ha = bounds a in
                    make
                      (Interval.of_bounds (Fin 0)
                         (Interval.min_bound ha (Fin m)))
                      Congruence.top
                  else make (Interval.of_bounds (Fin (-m)) (Fin m)) Congruence.top)

  let is_pow2_mask c = c >= 0 && c land (c + 1) = 0

  (* x land mask with mask = 2^k - 1 is the mathematical residue
     x mod 2^k for *any* x (two's complement), hence always in
     [0, mask]; a congruence whose modulus is a multiple of 2^k pins
     the result exactly.  When the operand already lies in [0, mask]
     the mask is the identity, so the whole product — congruence
     included — passes through untouched (this is what keeps even/odd
     stride information alive across a subscript's safety mask). *)
  let band_mask a mask =
    (match bounds a with
    | Interval.Fin lo, Interval.Fin hi when lo >= 0 && hi <= mask -> a
    | _ ->
    let p = mask + 1 in
    let cg =
      match a.cg with
      | Congruence.Cg (r, m) when m > 0 && m mod p = 0 ->
          Congruence.of_const (((r mod p) + p) mod p)
      | _ -> Congruence.top
    in
    let hi =
      if nonneg a then
        let _, h = bounds a in
        Interval.min_bound h (Fin mask)
      else Interval.Fin mask
    in
    make (Interval.of_bounds (Fin 0) hi) cg)

  let band a b =
    if is_bot a || is_bot b then bot
    else
      match lift2_const (fun x y -> Some (x land y)) a b with
      | Some r -> of_const r
      | None -> (
          match (is_const a, is_const b) with
          | _, Some c when is_pow2_mask c -> band_mask a c
          | Some c, _ when is_pow2_mask c -> band_mask b c
          | _ ->
              if nonneg a && nonneg b then
                let _, h1 = bounds a and _, h2 = bounds b in
                make
                  (Interval.of_bounds (Fin 0) (Interval.min_bound h1 h2))
                  Congruence.top
              else if nonneg a then
                let _, h1 = bounds a in
                make (Interval.of_bounds (Fin 0) h1) Congruence.top
              else if nonneg b then
                let _, h2 = bounds b in
                make (Interval.of_bounds (Fin 0) h2) Congruence.top
              else top)

  (* Smallest 2^k - 1 covering n >= 0. *)
  let mask_above n =
    let rec go m = if m >= n then m else go ((2 * m) + 1) in
    go 0

  let bor a b =
    if is_bot a || is_bot b then bot
    else
      match lift2_const (fun x y -> Some (x lor y)) a b with
      | Some r -> of_const r
      | None -> (
          match (bounds a, bounds b) with
          | (Interval.Fin l1, Interval.Fin h1), (Interval.Fin l2, Interval.Fin h2)
            when l1 >= 0 && l2 >= 0 ->
              (* x lor y >= max x y and fits in the union of bit
                 widths *)
              make
                (Interval.of_bounds
                   (Fin (max l1 l2))
                   (Fin (mask_above (max h1 h2))))
                Congruence.top
          | _ -> top)

  let bxor a b =
    if is_bot a || is_bot b then bot
    else
      match lift2_const (fun x y -> Some (x lxor y)) a b with
      | Some r -> of_const r
      | None -> (
          match (bounds a, bounds b) with
          | (Interval.Fin l1, Interval.Fin h1), (Interval.Fin l2, Interval.Fin h2)
            when l1 >= 0 && l2 >= 0 ->
              make
                (Interval.of_bounds (Fin 0) (Fin (mask_above (max h1 h2))))
                Congruence.top
          | _ -> top)

  let shl a b =
    if is_bot a || is_bot b then bot
    else
      match is_const b with
      | Some c when c >= 0 && c < 62 -> mul a (of_const (1 lsl c))
      | _ -> top

  (* Logical right shift: only safe to bound when the operand is known
     nonnegative (where it coincides with arithmetic shift and is
     monotone). *)
  let shr a b =
    if is_bot a || is_bot b then bot
    else
      match is_const b with
      | Some c when c >= 0 && c < 62 && nonneg a -> (
          match bounds a with
          | Interval.Fin l, Interval.Fin h ->
              make
                (Interval.of_bounds (Fin (l lsr c)) (Fin (h lsr c)))
                Congruence.top
          | Interval.Fin l, Interval.Pinf ->
              make (Interval.of_bounds (Fin (l lsr c)) Pinf) Congruence.top
          | _ -> top)
      | _ -> top

  let bool_result = make (Interval.of_bounds (Fin 0) (Fin 1)) Congruence.top

  (* --- comparison refinement --- *)

  let pred_bound = function
    | Interval.Fin n -> Interval.Fin (n - 1)
    | b -> b

  let succ_bound = function
    | Interval.Fin n -> Interval.Fin (n + 1)
    | b -> b

  let clamp_hi v hi = meet v (make (Interval.of_bounds Ninf hi) Congruence.top)
  let clamp_lo v lo = meet v (make (Interval.of_bounds lo Pinf) Congruence.top)

  let assume_lt a b =
    if is_bot a || is_bot b then (bot, bot)
    else
      let _, hb = bounds b and la, _ = bounds a in
      (clamp_hi a (pred_bound hb), clamp_lo b (succ_bound la))

  let assume_le a b =
    if is_bot a || is_bot b then (bot, bot)
    else
      let _, hb = bounds b and la, _ = bounds a in
      (clamp_hi a hb, clamp_lo b la)

  let assume_eq a b =
    let m = meet a b in
    (m, m)

  let assume_ne a b =
    (* only endpoint-vs-constant refinement is available *)
    let shave v other =
      match is_const other with
      | None -> v
      | Some c -> (
          match v.iv with
          | Interval.Iv (Fin l, hi) when l = c ->
              make (Interval.of_bounds (Fin (l + 1)) hi) v.cg
          | Interval.Iv (lo, Fin h) when h = c ->
              make (Interval.of_bounds lo (Fin (h - 1))) v.cg
          | _ -> v)
    in
    (shave a b, shave b a)

  let separated a b =
    if is_bot a || is_bot b then false
    else
      (match (a.iv, b.iv) with
      | Interval.Iv (_, h1), Interval.Iv (l2, _)
        when Interval.cmp_bound h1 l2 < 0 ->
          true
      | Interval.Iv (l1, _), Interval.Iv (_, h2)
        when Interval.cmp_bound h2 l1 < 0 ->
          true
      | _ -> false)
      || Congruence.meet a.cg b.cg = Congruence.Bot

  let excludes_zero v = (not (is_bot v)) && not (mem 0 v)

  let pp ppf v =
    if is_bot v then Fmt.string ppf "_|_"
    else
      match v.cg with
      | Congruence.Cg (_, 1) -> Interval.pp ppf v.iv
      | _ -> Fmt.pf ppf "%a%a" Interval.pp v.iv Congruence.pp v.cg

  let to_string v = Fmt.str "%a" pp v
end

(* ------------------------------------------------------------------ *)
(* IR-level range analysis on the widening dataflow solver.            *)
(* ------------------------------------------------------------------ *)

module Ir = struct
  open Ilp_ir

  (* Keys are dense: the caller's register numbers [0, regs), then the
     function's named global scalars, then its stack-slot scalars.  A
     key without a fact holds top, as [V.top] itself, so merges skip it
     without calling into the domain. *)
  type env = Unreachable | Env of V.t array

  (* An operand, decoded once: a register key, or the value of a
     constant (top for a float). *)
  type operand = Reg of int | Val of V.t

  type code = {
    first : int array;
        (** position of each block's first instruction, then the count *)
    op : Opcode.t array;
    dst : int array;  (** destination key, or -1 *)
    srcs : operand array array;
    cell : int array;
        (** key of the scalar cell a load or store names, or -1 *)
    escapes : bool array;  (** a store to no named region: may hit any cell *)
    ret : int;  (** {!Instr.ret_reg}'s key *)
    cells : int;  (** first cell key; the globals come first *)
    slots : int;  (** first stack-slot key *)
    width : int;
    refine : int array;
        (** per block, the position of the predecessor's branch whose
            outcome holds on entry, or -1 *)
    taken : bool array;  (** and which outcome *)
  }

  (* The scalar memory cell a load/store touches, when it is uniquely
     named.  Scalar regions are one word, so the region itself
     identifies the cell. *)
  type cell = Global of string | Slot of string * int | No_cell

  let cell_of (i : Instr.t) =
    match i.Instr.mem with
    | None -> No_cell
    | Some mi -> (
        match mi.Mem_info.region with
        | Mem_info.Global name -> Global name
        | Mem_info.Stack_slot (f, slot) -> Slot (f, slot)
        | Mem_info.Global_array _ | Mem_info.Global_array_view _
        | Mem_info.Stack_array _ | Mem_info.Arg_slot _ | Mem_info.Unknown ->
            No_cell)

  let store_may_escape (i : Instr.t) =
    match i.Instr.mem with
    | None -> true
    | Some mi -> (
        match mi.Mem_info.region with Mem_info.Unknown -> true | _ -> false)

  (* Single-predecessor blocks inherit the outcome of the
     predecessor's conditional branch: the taken target (when it is
     not also the fallthrough) sees the condition hold, the
     fallthrough sees it fail.  This is what recovers a loop body's
     [i < limit] bound after widening blows the header interval to
     +inf — the descending sweeps then pull the header back down
     through the latch. *)
  let entry_branches (cfg : Cfg_info.t) first =
    let n = Array.length cfg.Cfg_info.blocks in
    let refine = Array.make n (-1) and taken = Array.make n false in
    for b = 0 to n - 1 do
      match cfg.Cfg_info.preds.(b) with
      | [ p ] -> (
          match List.rev cfg.Cfg_info.blocks.(p).Block.instrs with
          | term :: _ when Instr.is_branch term -> (
              match term.Instr.target with
              | Some tgt ->
                  let lbl = cfg.Cfg_info.blocks.(b).Block.label in
                  let is_target = Label.equal tgt lbl in
                  let is_fallthrough = b = p + 1 in
                  if is_target <> is_fallthrough then begin
                    refine.(b) <- first.(p + 1) - 1;
                    taken.(b) <- is_target
                  end
              | None -> ())
          | _ -> ())
      | _ -> ()
    done;
    (refine, taken)

  let decode ~regs ~reg (cfg : Cfg_info.t) =
    let first, instrs = Cfg_info.positions cfg in
    let globals = Hashtbl.create 8 and slots = Hashtbl.create 8 in
    let number tbl k =
      if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k (Hashtbl.length tbl)
    in
    Array.iter
      (fun i ->
        match cell_of i with
        | Global name -> number globals name
        | Slot (f, slot) -> number slots (f, slot)
        | No_cell -> ())
      instrs;
    let cells = regs in
    let slot_base = cells + Hashtbl.length globals in
    let operand = function
      | Instr.Oreg r -> Reg (reg r)
      | Instr.Oimm n -> Val (V.of_const n)
      | Instr.Ofimm _ -> Val V.top
    in
    let refine, taken = entry_branches cfg first in
    {
      first;
      op = Array.map (fun (i : Instr.t) -> i.Instr.op) instrs;
      dst =
        Array.map
          (fun (i : Instr.t) ->
            match i.Instr.dst with Some d -> reg d | None -> -1)
          instrs;
      srcs =
        Array.map
          (fun (i : Instr.t) -> Array.of_list (List.map operand i.Instr.srcs))
          instrs;
      cell =
        Array.map
          (fun i ->
            match cell_of i with
            | Global name -> cells + Hashtbl.find globals name
            | Slot (f, slot) -> slot_base + Hashtbl.find slots (f, slot)
            | No_cell -> -1)
          instrs;
      escapes = Array.map store_may_escape instrs;
      ret = reg Instr.ret_reg;
      cells;
      slots = slot_base;
      width = slot_base + Hashtbl.length slots;
      refine;
      taken;
    }

  let is_top (v : V.t) =
    match (v.V.iv, v.V.cg) with
    | Interval.Iv (Interval.Ninf, Interval.Pinf), Congruence.Cg (0, 1) -> true
    | _ -> false

  let set e k v = e.(k) <- (if is_top v then V.top else v)
  let operand e = function Reg r -> e.(r) | Val v -> v

  let eval_op code e g =
    let src n = operand e code.srcs.(g).(n) in
    match code.op.(g) with
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

  (* Push the instruction at position [g] through [e], in place. *)
  let step code e g =
    match code.op.(g) with
    | Opcode.St ->
        (* a store we cannot attribute to a disjoint named region may
           hit any tracked cell *)
        if code.escapes.(g) then
          Array.fill e code.cells (code.width - code.cells) V.top
        else if code.cell.(g) >= 0 then
          set e code.cell.(g) (operand e code.srcs.(g).(0))
    | Opcode.Ld ->
        if code.dst.(g) >= 0 then
          set e code.dst.(g)
            (if code.cell.(g) >= 0 then e.(code.cell.(g)) else V.top)
    | Opcode.Call ->
        (* The callee may write any global; stack slots are
           per-activation and survive (regions_disjoint treats
           distinct functions' slots as disjoint, and a recursive
           activation writes its own frame). *)
        Array.fill e code.cells (code.slots - code.cells) V.top;
        (* it defines its destination, or else the return register *)
        e.(if code.dst.(g) >= 0 then code.dst.(g) else code.ret) <- V.top
    | _ -> if code.dst.(g) >= 0 then set e code.dst.(g) (eval_op code e g)

  (* Refine [e] in place by the outcome of the conditional branch at
     position [g]; false when that outcome is impossible. *)
  let refine_branch code g ~taken e =
    match (code.op.(g), code.srcs.(g)) with
    | ( (Opcode.Beq | Opcode.Bne | Opcode.Blt | Opcode.Ble | Opcode.Bgt | Opcode.Bge),
        [| Reg r1; o2 |] ) -> (
        let a = e.(r1) in
        let b = operand e o2 in
        let refined =
          match (code.op.(g), taken) with
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
        | None -> true
        | Some (a', b') ->
            if V.is_bot a' || V.is_bot b' then false
            else begin
              set e r1 a';
              (match o2 with Reg r2 -> set e r2 b' | Val _ -> ());
              true
            end)
    | _ -> true

  (* The block's entry state: [v] refined by the branch that leads
     here, in a fresh array. *)
  let entry code b = function
    | Unreachable -> None
    | Env a ->
        let e = Array.copy a in
        let g = code.refine.(b) in
        if g < 0 || refine_branch code g ~taken:code.taken.(b) e then Some e
        else None

  module Env_lattice = struct
    type t = env

    let equal a b =
      match (a, b) with
      | Unreachable, Unreachable -> true
      | Env x, Env y ->
          let rec same k =
            k < 0 || ((x.(k) == y.(k) || V.equal x.(k) y.(k)) && same (k - 1))
          in
          same (Array.length x - 1)
      | (Unreachable | Env _), _ -> false

    (* [f] is [V.join] or [V.widen], and both give top whenever either
       side is top. *)
    let merge_with f a b =
      match (a, b) with
      | Unreachable, v | v, Unreachable -> v
      | Env x, Env y ->
          Env
            (Array.init (Array.length x) (fun k ->
                 let l = x.(k) and r = y.(k) in
                 if l == V.top || r == V.top then V.top
                 else
                   let v = f l r in
                   if is_top v then V.top else v))

    let join = merge_with V.join
    let widen = merge_with V.widen
    let pp ppf _ = Fmt.string ppf "<range-env>"
  end

  type t = {
    def : V.t array;
        (** position -> range of the instruction's result over all
            executions; top without a result or when unreachable *)
    init : V.t array option;  (** register -> entry range; [None]: top *)
  }

  let analyze ~regs ~reg (cfg : Cfg_info.t) =
    let code = decode ~regs ~reg cfg in
    let def = Array.make code.first.(Array.length code.first - 1) V.top in
    (* Every transfer records its block's results, so after the solver's
       last (descending) sweep [def] holds the ranges of the solution. *)
    let transfer b v =
      let lo = code.first.(b) and hi = code.first.(b + 1) in
      match entry code b v with
      | None ->
          Array.fill def lo (hi - lo) V.top;
          Unreachable
      | Some e ->
          for g = lo to hi - 1 do
            step code e g;
            if code.dst.(g) >= 0 then def.(g) <- e.(code.dst.(g))
          done;
          Env e
    in
    let module T = struct
      module L = Env_lattice

      type ctx = unit

      let prepare _ = ()
      let init () = Unreachable
      let boundary () = Env (Array.make code.width V.top)
      let transfer () b v = transfer b v
    end in
    let module Solver = Dataflow.Forward_widen (T) in
    let sol = Solver.solve cfg in
    let init =
      if Array.length sol.Dataflow.inb = 0 then None
      else entry code 0 sol.Dataflow.inb.(0)
    in
    { def; init }

  let def_range t g = t.def.(g)
  let entry_range t r = match t.init with Some e -> e.(r) | None -> V.top
end
