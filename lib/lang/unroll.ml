(* Loop unrolling at the typed-AST level (Figure 4-6 of the paper).

   The paper unrolled Linpack and Livermore by hand in two ways:

   - *naive*: duplicate the loop body inside the loop and let the normal
     optimizer remove redundant computations — here each copy [j] of the
     body sees the index expression [i + j*step], and the loop steps by
     [factor*step] with a scalar remainder loop after it;

   - *careful*: additionally reassociate long accumulation chains —
     a statement [s = s op e] (op associative and commutative) in copy
     [j > 0] updates a fresh partial accumulator [s_j] instead, and the
     partials fold into [s] after the loop.  Together with the symbolic
     memory disambiguation performed by the scheduler this removes the
     false inter-copy dependences that cap naive unrolling.

   On top of the factor-driven transform sits the bound analysis
   ([Bounds]): loops whose trip count folds to a compile-time constant
   can be *fully unrolled* (small trip counts: no loop, no remainder)
   or *peeled* ([trips mod factor] leading copies emitted straight-line
   so the main loop needs no remainder loop at all).  Both are gated
   behind [~bounds] so the classic curves stay measurable; the
   classification itself always runs, because it is also the correctness
   gate: loops with a degenerate header (zero step, step fighting the
   comparison direction), loops whose body assigns the index, and loops
   whose limit expression is not invariant under the body are skipped
   with a per-reason counter instead of being miscompiled.

   Only innermost counted loops are unrolled; loops containing [return]
   are left alone. *)

type mode = Naive | Careful

type skip_reason =
  | Degenerate_step
  | Direction_mismatch
  | Index_mutated
  | Limit_mutated
  | Has_return
  | Not_innermost

let all_skip_reasons =
  [ Degenerate_step; Direction_mismatch; Index_mutated; Limit_mutated;
    Has_return; Not_innermost ]

let skip_reason_name = function
  | Degenerate_step -> "degenerate_step"
  | Direction_mismatch -> "direction_mismatch"
  | Index_mutated -> "index_mutated"
  | Limit_mutated -> "limit_mutated"
  | Has_return -> "has_return"
  | Not_innermost -> "not_innermost"

type stats = {
  rolled : int;
  peeled : int;
  full : int;
  skipped : (skip_reason * int) list;
}

let no_stats =
  { rolled = 0; peeled = 0; full = 0;
    skipped = List.map (fun r -> (r, 0)) all_skip_reasons }

let skip_count stats reason =
  match List.assoc_opt reason stats.skipped with Some n -> n | None -> 0

(* substitute every occurrence of scalar [var] by expression [repl] *)
let rec subst_expr var repl (e : Tast.texpr) : Tast.texpr =
  match e.Tast.tnode with
  | Tast.Tvar vr when String.equal vr.Tast.vr_name var -> repl
  | Tast.Tvar _ | Tast.Tint_lit _ | Tast.Treal_lit _ -> e
  | Tast.Tindex (vr, idx) ->
      { e with Tast.tnode = Tast.Tindex (vr, subst_expr var repl idx) }
  | Tast.Tunary (op, a) ->
      { e with Tast.tnode = Tast.Tunary (op, subst_expr var repl a) }
  | Tast.Tbinary (op, a, b) ->
      { e with
        Tast.tnode =
          Tast.Tbinary (op, subst_expr var repl a, subst_expr var repl b)
      }
  | Tast.Tcall (n, args) ->
      { e with Tast.tnode = Tast.Tcall (n, List.map (subst_expr var repl) args) }
  | Tast.Tcast (t, a) ->
      { e with Tast.tnode = Tast.Tcast (t, subst_expr var repl a) }

let rec subst_stmt var repl (s : Tast.tstmt) : Tast.tstmt =
  let se = subst_expr var repl in
  match s with
  | Tast.TSdecl (vr, init) -> Tast.TSdecl (vr, Option.map se init)
  | Tast.TSassign (vr, e) -> Tast.TSassign (vr, se e)
  | Tast.TSindex_assign (vr, idx, e) -> Tast.TSindex_assign (vr, se idx, se e)
  | Tast.TSif (c, a, b) ->
      Tast.TSif (se c, List.map (subst_stmt var repl) a,
                 List.map (subst_stmt var repl) b)
  | Tast.TSwhile (c, body) ->
      Tast.TSwhile (se c, List.map (subst_stmt var repl) body)
  | Tast.TSfor (hdr, body) ->
      Tast.TSfor
        ( { hdr with Tast.tf_init = se hdr.Tast.tf_init;
            tf_limit = se hdr.Tast.tf_limit },
          List.map (subst_stmt var repl) body )
  | Tast.TSreturn e -> Tast.TSreturn (Option.map se e)
  | Tast.TSexpr e -> Tast.TSexpr (se e)
  | Tast.TSsink e -> Tast.TSsink (se e)

let rec stmt_has_return = function
  | Tast.TSreturn _ -> true
  | Tast.TSif (_, a, b) ->
      List.exists stmt_has_return a || List.exists stmt_has_return b
  | Tast.TSwhile (_, body) | Tast.TSfor (_, body) ->
      List.exists stmt_has_return body
  | Tast.TSdecl _ | Tast.TSassign _ | Tast.TSindex_assign _ | Tast.TSexpr _
  | Tast.TSsink _ ->
      false

let rec stmt_has_loop = function
  | Tast.TSwhile _ | Tast.TSfor _ -> true
  | Tast.TSif (_, a, b) ->
      List.exists stmt_has_loop a || List.exists stmt_has_loop b
  | Tast.TSdecl _ | Tast.TSassign _ | Tast.TSindex_assign _ | Tast.TSreturn _
  | Tast.TSexpr _ | Tast.TSsink _ ->
      false

(* does expression [e] mention scalar [name]? *)
let rec expr_mentions name (e : Tast.texpr) =
  match e.Tast.tnode with
  | Tast.Tvar vr -> String.equal vr.Tast.vr_name name
  | Tast.Tint_lit _ | Tast.Treal_lit _ -> false
  | Tast.Tindex (vr, idx) ->
      String.equal vr.Tast.vr_name name || expr_mentions name idx
  | Tast.Tunary (_, a) | Tast.Tcast (_, a) -> expr_mentions name a
  | Tast.Tbinary (_, a, b) -> expr_mentions name a || expr_mentions name b
  | Tast.Tcall (_, args) -> List.exists (expr_mentions name) args

(* does statement [s] mention scalar [name] anywhere — as a read in any
   expression, or as an assignment / declaration target? *)
let rec stmt_mentions name (s : Tast.tstmt) =
  let em = expr_mentions name in
  let eq vr = String.equal vr.Tast.vr_name name in
  match s with
  | Tast.TSdecl (vr, init) -> eq vr || Option.fold ~none:false ~some:em init
  | Tast.TSassign (vr, e) -> eq vr || em e
  | Tast.TSindex_assign (vr, idx, e) -> eq vr || em idx || em e
  | Tast.TSif (c, a, b) ->
      em c
      || List.exists (stmt_mentions name) a
      || List.exists (stmt_mentions name) b
  | Tast.TSwhile (c, body) -> em c || List.exists (stmt_mentions name) body
  | Tast.TSfor (hdr, body) ->
      eq hdr.Tast.tf_var || em hdr.Tast.tf_init || em hdr.Tast.tf_limit
      || List.exists (stmt_mentions name) body
  | Tast.TSreturn e -> Option.fold ~none:false ~some:em e
  | Tast.TSexpr e | Tast.TSsink e -> em e

(* accumulation statement [s = s op e] with op associative-commutative
   and e not mentioning s *)
let accumulator_pattern (s : Tast.tstmt) =
  match s with
  | Tast.TSassign
      (vr, { Tast.tnode = Tast.Tbinary ((Ast.Badd | Ast.Bmul) as op, a, b); _ })
    -> (
      let is_self e =
        match e.Tast.tnode with
        | Tast.Tvar v -> String.equal v.Tast.vr_name vr.Tast.vr_name
        | _ -> false
      in
      match (is_self a, is_self b) with
      | true, false when not (expr_mentions vr.Tast.vr_name b) ->
          Some (vr, op, b)
      | false, true when not (expr_mentions vr.Tast.vr_name a) ->
          Some (vr, op, a)
      | _ -> None)
  | _ -> None

let identity_lit (ty : Ast.ty) (op : Ast.binop) : Tast.texpr =
  match (ty, op) with
  | Ast.Tint, Ast.Badd -> { Tast.tnode = Tast.Tint_lit 0; tty = Ast.Tint }
  | Ast.Tint, _ -> { Tast.tnode = Tast.Tint_lit 1; tty = Ast.Tint }
  | Ast.Treal, Ast.Badd -> { Tast.tnode = Tast.Treal_lit 0.0; tty = Ast.Treal }
  | Ast.Treal, _ -> { Tast.tnode = Tast.Treal_lit 1.0; tty = Ast.Treal }

(* --- index canonicalisation (careful mode) -------------------------------

   Careful unrolling reassociates array subscripts so that every copy of
   the body computes the same non-constant base expression with the copy
   offset as a trailing constant: [yoff + (k + 2)] becomes
   [(yoff + k) + 2].  Local CSE then unifies the base across copies and
   the scheduler's symbolic disambiguation proves that stores from early
   copies do not interfere with loads in later copies (Section 4.4). *)

(* Flatten an int expression into a signed sum: a list of
   [(term, sign)] with sign ±1 plus a constant.  Subtraction negates
   the right-hand side's terms, so composite subtrahends ([a - b],
   nested chains like [k - j - 1]) flatten instead of opacifying the
   whole expression. *)
let rec flatten_sum (e : Tast.texpr) : (Tast.texpr * int) list * int =
  if e.Tast.tty <> Ast.Tint then ([ (e, 1) ], 0)
  else
    match e.Tast.tnode with
    | Tast.Tint_lit n -> ([], n)
    | Tast.Tbinary (Ast.Badd, a, b) ->
        let ta, ca = flatten_sum a in
        let tb, cb = flatten_sum b in
        (ta @ tb, ca + cb)
    | Tast.Tbinary (Ast.Bsub, a, b) ->
        let ta, ca = flatten_sum a in
        let tb, cb = flatten_sum b in
        (ta @ List.map (fun (t, s) -> (t, -s)) tb, ca - cb)
    | Tast.Tunary (Ast.Uneg, a) ->
        let ta, ca = flatten_sum a in
        (List.map (fun (t, s) -> (t, -s)) ta, -ca)
    | _ -> ([ (e, 1) ], 0)

(* Rebuild as [((pos_1 + pos_2 + ...) - neg_1 - ...) ± c]: positive
   terms first in source order, then negated terms, constant last — so
   two subscripts differing only by a constant share the whole base
   expression and CSE collapses it. *)
let normalize_index (e : Tast.texpr) : Tast.texpr =
  if e.Tast.tty <> Ast.Tint then e
  else
    let terms, c = flatten_sum e in
    let pos = List.filter_map (fun (t, s) -> if s > 0 then Some t else None) terms in
    let neg = List.filter_map (fun (t, s) -> if s < 0 then Some t else None) terms in
    match (pos, neg) with
    | [], [] -> Tast.int_expr c
    | _ ->
        let base =
          match pos with
          | t :: rest ->
              List.fold_left
                (fun acc t ->
                  { Tast.tnode = Tast.Tbinary (Ast.Badd, acc, t);
                    tty = Ast.Tint })
                t rest
          | [] -> Tast.int_expr 0
        in
        let base =
          List.fold_left
            (fun acc t ->
              { Tast.tnode = Tast.Tbinary (Ast.Bsub, acc, t); tty = Ast.Tint })
            base neg
        in
        if c = 0 then base
        else if c > 0 then
          { Tast.tnode = Tast.Tbinary (Ast.Badd, base, Tast.int_expr c);
            tty = Ast.Tint;
          }
        else
          { Tast.tnode = Tast.Tbinary (Ast.Bsub, base, Tast.int_expr (-c));
            tty = Ast.Tint;
          }

let normalize_expr (e : Tast.texpr) : Tast.texpr =
  Tast.map_expr
    (fun e ->
      match e.Tast.tnode with
      | Tast.Tindex (vr, idx) ->
          { e with Tast.tnode = Tast.Tindex (vr, normalize_index idx) }
      | _ -> e)
    e

let rec normalize_stmt (s : Tast.tstmt) : Tast.tstmt =
  match s with
  | Tast.TSdecl (vr, init) -> Tast.TSdecl (vr, Option.map normalize_expr init)
  | Tast.TSassign (vr, e) -> Tast.TSassign (vr, normalize_expr e)
  | Tast.TSindex_assign (vr, idx, e) ->
      Tast.TSindex_assign (vr, normalize_index idx, normalize_expr e)
  | Tast.TSif (c, a, b) ->
      Tast.TSif (normalize_expr c, List.map normalize_stmt a,
                 List.map normalize_stmt b)
  | Tast.TSwhile (c, body) ->
      Tast.TSwhile (normalize_expr c, List.map normalize_stmt body)
  | Tast.TSfor (hdr, body) ->
      Tast.TSfor
        ( { hdr with Tast.tf_init = normalize_expr hdr.Tast.tf_init;
            tf_limit = normalize_expr hdr.Tast.tf_limit },
          List.map normalize_stmt body )
  | Tast.TSreturn e -> Tast.TSreturn (Option.map normalize_expr e)
  | Tast.TSexpr e -> Tast.TSexpr (normalize_expr e)
  | Tast.TSsink e -> Tast.TSsink (normalize_expr e)

(* fresh partial-accumulator names; '$' cannot appear in source
   identifiers, so no collision is possible *)
let partial_name base j = Printf.sprintf "%s$u%d" base j

type acc_info = {
  acc_var : Tast.var_ref;
  acc_op : Ast.binop;
  partials : Tast.var_ref list;
}

(* Accumulators whose update chain may be split across [ncopies]
   per-copy partials (careful mode).  Splitting is only sound if
   nothing else observes the accumulator inside the loop: every body
   statement must either be an accumulation [vr = vr op e] with this
   same op, or not mention [vr] at all.  A read like [x = acc] (or a
   write with a different op) would see the partial stream, not the
   true running value.  The loop index is never a valid accumulator —
   copies substitute it with offset expressions. *)
let collect_acc_infos mode ncopies var body =
  if mode <> Careful || ncopies < 2 then []
  else
    let candidates =
      List.filter_map accumulator_pattern body
      |> List.map (fun (vr, op, _) -> (vr, op))
      |> List.sort_uniq compare
    in
    List.filter
      (fun ((vr : Tast.var_ref), op) ->
        (not (String.equal vr.Tast.vr_name var))
        && List.for_all
             (fun s ->
               match accumulator_pattern s with
               | Some (vr', op', _)
                 when String.equal vr'.Tast.vr_name vr.Tast.vr_name ->
                   op' = op
               | _ -> not (stmt_mentions vr.Tast.vr_name s))
             body)
      candidates
    |> List.map (fun (vr, op) ->
           let partials =
             List.init (ncopies - 1) (fun j ->
                 { Tast.vr_name = partial_name vr.Tast.vr_name (j + 1);
                   vr_ty = vr.Tast.vr_ty;
                   vr_kind = Tast.Vlocal;
                 })
           in
           { acc_var = vr; acc_op = op; partials })

(* body copy [j]: the index variable becomes [index_expr]; when
   [acc_infos] is non-empty accumulator updates in copy j > 0 target
   the j-th partial *)
let body_copy mode acc_infos var j index_expr body =
  let find_acc vr =
    List.find_opt
      (fun a -> String.equal a.acc_var.Tast.vr_name vr.Tast.vr_name)
      acc_infos
  in
  let redirect stmt =
    if j = 0 || mode <> Careful then stmt
    else
      match (stmt, accumulator_pattern stmt) with
      | Tast.TSassign (_, _), Some (vr, op, operand) -> (
          match find_acc vr with
          | Some info ->
              let p = List.nth info.partials (j - 1) in
              Tast.TSassign
                ( p,
                  { Tast.tnode = Tast.Tbinary (op, Tast.var_expr p, operand);
                    tty = p.Tast.vr_ty;
                  } )
          | None -> stmt)
      | _ -> stmt
  in
  let copied = List.map (fun s -> subst_stmt var index_expr (redirect s)) body in
  if mode = Careful then List.map normalize_stmt copied else copied

(* initialisation of partial accumulators *)
let partial_decls acc_infos =
  List.concat_map
    (fun info ->
      List.map
        (fun p ->
          Tast.TSdecl (p, Some (identity_lit p.Tast.vr_ty info.acc_op)))
        info.partials)
    acc_infos

(* fold partials back into the accumulator *)
let partial_folds acc_infos =
  List.map
    (fun info ->
      let combined =
        List.fold_left
          (fun acc p ->
            { Tast.tnode = Tast.Tbinary (info.acc_op, acc, Tast.var_expr p);
              tty = info.acc_var.Tast.vr_ty;
            })
          (Tast.var_expr info.acc_var) info.partials
      in
      Tast.TSassign (info.acc_var, combined))
    acc_infos

let offset_expr iv j step =
  if j = 0 then Tast.var_expr iv
  else
    { Tast.tnode =
        Tast.Tbinary
          (Ast.Badd, Tast.var_expr iv,
           { Tast.tnode = Tast.Tint_lit (j * step); tty = Ast.Tint });
      tty = Ast.Tint;
    }

(* Classic factor unrolling: [factor] copies inside the main loop, a
   scalar remainder loop after it. *)
let unroll_classic mode factor (hdr : Tast.tfor) body =
  let var = hdr.Tast.tf_var.Tast.vr_name in
  let step = hdr.Tast.tf_step in
  let acc_infos = collect_acc_infos mode factor var body in
  let copy j = body_copy mode acc_infos var j (offset_expr hdr.Tast.tf_var j step) body in
  let unrolled_body = List.concat (List.init factor copy) in
  (* main-loop limit shrinks so that all copies stay in range:
     i cmp limit && i+(factor-1)*step cmp limit *)
  let adjust = (factor - 1) * step in
  let new_limit =
    { Tast.tnode =
        Tast.Tbinary
          (Ast.Bsub, hdr.Tast.tf_limit,
           { Tast.tnode = Tast.Tint_lit adjust; tty = Ast.Tint });
      tty = Ast.Tint;
    }
  in
  let main_hdr =
    { hdr with Tast.tf_limit = new_limit; tf_step = factor * step }
  in
  (* remainder loop continues from the current value of the index *)
  let remainder_hdr =
    { hdr with Tast.tf_init = Tast.var_expr hdr.Tast.tf_var }
  in
  partial_decls acc_infos
  @ [ Tast.TSfor (main_hdr, unrolled_body) ]
  @ partial_folds acc_infos
  @ [ Tast.TSfor (remainder_hdr, body) ]

(* Full unroll of a [Counted] loop: [trips] straight-line copies, each
   seeing its literal index value, plus the final index assignment the
   loop would have left behind.  The bound analysis only returns
   [Counted] for call-free foldable headers, so dropping the init and
   limit expressions is unobservable. *)
let unroll_full mode ~start ~step ~trips (hdr : Tast.tfor) body =
  let iv = hdr.Tast.tf_var in
  let var = iv.Tast.vr_name in
  let acc_infos = collect_acc_infos mode trips var body in
  let copy j =
    body_copy mode acc_infos var j (Tast.int_expr (start + (j * step))) body
  in
  let copies = List.concat (List.init trips copy) in
  partial_decls acc_infos @ copies @ partial_folds acc_infos
  @ [ Tast.TSassign (iv, Tast.int_expr (start + (trips * step))) ]

(* Peeled unrolling of a [Counted] loop: [trips mod factor] leading
   copies at literal indices, then a main loop whose residual trip
   count is an exact multiple of [factor] — no remainder loop.  The
   main loop keeps the strict comparison in the counting direction with
   the folded exit value [start + trips*step]: every copy [i + j*step]
   (j < factor) stays in range because the last main iteration starts
   at [start + (trips-factor)*step], and the condition fails exactly at
   the exit value, which is also the index value the original loop
   leaves behind. *)
let unroll_peel mode factor ~start ~step ~trips (hdr : Tast.tfor) body =
  let iv = hdr.Tast.tf_var in
  let var = iv.Tast.vr_name in
  let rem = trips mod factor in
  let peel j = body_copy mode [] var 0 (Tast.int_expr (start + (j * step))) body in
  let peeled = List.concat (List.init rem peel) in
  let acc_infos = collect_acc_infos mode factor var body in
  let copy j = body_copy mode acc_infos var j (offset_expr iv j step) body in
  let unrolled_body = List.concat (List.init factor copy) in
  let main_hdr =
    { hdr with
      Tast.tf_init = Tast.int_expr (start + (rem * step));
      tf_cmp = (if step > 0 then Ast.Blt else Ast.Bgt);
      tf_limit = Tast.int_expr (start + (trips * step));
      tf_step = factor * step;
    }
  in
  peeled
  @ partial_decls acc_infos
  @ [ Tast.TSfor (main_hdr, unrolled_body) ]
  @ partial_folds acc_infos

(* mutable counters threaded through one [program_stats] run *)
type counters = {
  mutable n_rolled : int;
  mutable n_peeled : int;
  mutable n_full : int;
  mutable n_skips : (skip_reason * int ref) list;
}

let fresh_counters () =
  { n_rolled = 0; n_peeled = 0; n_full = 0;
    n_skips = List.map (fun r -> (r, ref 0)) all_skip_reasons }

let count_skip cnt reason = incr (List.assoc reason cnt.n_skips)

(* With bound analysis on, loops of at most this many trips are fully
   unrolled; longer ones with known trip counts are peeled. *)
let full_threshold = 8

(* Rewrite statements, unrolling innermost counted loops.  [env] is the
   constant environment at the current program point; it feeds the
   bound analysis that classifies each loop. *)
let rec unroll_stmts ~mode ~factor ~bounds cnt env stmts =
  let recurse = unroll_stmts ~mode ~factor ~bounds cnt in
  let env = ref env in
  List.concat_map
    (fun s ->
      let out =
        match s with
        | Tast.TSfor (hdr, body) ->
            if List.exists stmt_has_loop body then begin
              count_skip cnt Not_innermost;
              let body_env = Bounds.Env.at_loop_entry !env hdr body in
              [ Tast.TSfor (hdr, recurse body_env body) ]
            end
            else if List.exists stmt_has_return body then begin
              count_skip cnt Has_return;
              [ s ]
            end
            else begin
              match Bounds.classify !env hdr body with
              | Bounds.Degenerate_step ->
                  count_skip cnt Degenerate_step;
                  [ s ]
              | Bounds.Direction_mismatch ->
                  count_skip cnt Direction_mismatch;
                  [ s ]
              | Bounds.Index_mutated ->
                  count_skip cnt Index_mutated;
                  [ s ]
              | Bounds.Limit_mutated ->
                  count_skip cnt Limit_mutated;
                  [ s ]
              | Bounds.Counted { start; step; trips }
                when bounds && trips <= full_threshold ->
                  cnt.n_full <- cnt.n_full + 1;
                  unroll_full mode ~start ~step ~trips hdr body
              | Bounds.Counted { start; step; trips } when bounds ->
                  cnt.n_peeled <- cnt.n_peeled + 1;
                  unroll_peel mode factor ~start ~step ~trips hdr body
              | Bounds.Counted _ | Bounds.Well_formed ->
                  cnt.n_rolled <- cnt.n_rolled + 1;
                  unroll_classic mode factor hdr body
            end
        | Tast.TSwhile (c, body) ->
            [ Tast.TSwhile (c, recurse (Bounds.Env.at_body_entry !env body) body) ]
        | Tast.TSif (c, a, b) -> [ Tast.TSif (c, recurse !env a, recurse !env b) ]
        | Tast.TSdecl _ | Tast.TSassign _ | Tast.TSindex_assign _
        | Tast.TSreturn _ | Tast.TSexpr _ | Tast.TSsink _ ->
            [ s ]
      in
      env := Bounds.Env.after_stmt !env s;
      out)
    stmts

let program_stats ?(bounds = false) mode factor (p : Tast.tprogram) =
  if factor <= 1 then (p, no_stats)
  else begin
    let cnt = fresh_counters () in
    let p' =
      { p with
        Tast.tfuncs =
          List.map
            (fun f ->
              { f with
                Tast.tf_body =
                  unroll_stmts ~mode ~factor ~bounds cnt Bounds.Env.empty
                    f.Tast.tf_body;
              })
            p.Tast.tfuncs;
      }
    in
    ( p',
      { rolled = cnt.n_rolled;
        peeled = cnt.n_peeled;
        full = cnt.n_full;
        skipped = List.map (fun (r, n) -> (r, !n)) cnt.n_skips;
      } )
  end

let program ?bounds mode factor (p : Tast.tprogram) =
  fst (program_stats ?bounds mode factor p)
