(* Loop-unrolling tests: semantics preservation for every factor, mode
   and bound setting, remainder-loop handling and elimination,
   accumulator reassociation, bound classification, and the parallelism
   effects of Figure 4-6. *)

open Ilp_core
module T = Ilp_lang.Tast
module U = Ilp_lang.Unroll

let unroll ?(bounds = false) mode factor = Some { Ilp.mode; factor; bounds }

(* Every semantics check runs the full grid: both modes, both bound
   settings (classic remainder loops vs full unroll + peeling), factors
   dividing and not dividing the trip counts. *)
let check_factors ?(tol = 0.0) name src expected =
  List.iter
    (fun mode ->
      List.iter
        (fun bounds ->
          List.iter
            (fun factor ->
              let v =
                Helpers.sink_of
                  ?unroll:(unroll ~bounds mode factor)
                  ~level:Ilp_core.Ilp.O4 src
              in
              let label =
                Printf.sprintf "%s %s%s x%d" name
                  (match mode with
                  | Ilp_lang.Unroll.Naive -> "naive"
                  | _ -> "careful")
                  (if bounds then "+bounds" else "")
                  factor
              in
              match (expected, v) with
              | Ilp_sim.Value.Int a, Ilp_sim.Value.Int b ->
                  if a <> b then Alcotest.failf "%s: %d <> %d" label b a
              | Ilp_sim.Value.Float a, Ilp_sim.Value.Float b ->
                  Helpers.check_float_rel ~tol:(max tol 1e-12) label a b
              | _ -> Alcotest.failf "%s: type mismatch" label)
            [ 1; 2; 3; 4; 5; 7; 10 ])
        [ false; true ])
    [ Ilp_lang.Unroll.Naive; Ilp_lang.Unroll.Careful ]

let test_unroll_exact_multiple () =
  (* trip count 12, factors dividing and not dividing it *)
  let src =
    {|
arr a : int[12];
fun main() {
  var i : int;
  var s : int = 0;
  for (i = 0; i < 12; i = i + 1) { a[i] = i * i; }
  for (i = 0; i < 12; i = i + 1) { s = s + a[i]; }
  sink(s);
}
|}
  in
  check_factors "exact" src (Ilp_sim.Value.Int 506)

let test_unroll_remainder () =
  (* trip count 13: remainder loop must run for non-dividing factors *)
  let src =
    {|
fun main() {
  var i : int;
  var s : int = 0;
  for (i = 0; i < 13; i = i + 1) { s = s + i; }
  sink(s);
}
|}
  in
  check_factors "remainder" src (Ilp_sim.Value.Int 78)

let test_unroll_zero_trip () =
  let src =
    {|
fun main() {
  var i : int;
  var s : int = 100;
  for (i = 5; i < 5; i = i + 1) { s = s + 1; }
  for (i = 9; i < 5; i = i + 1) { s = s + 1; }
  sink(s);
}
|}
  in
  check_factors "zero trip" src (Ilp_sim.Value.Int 100)

let test_unroll_downward () =
  let src =
    {|
fun main() {
  var i : int;
  var s : int = 0;
  for (i = 20; i >= 3; i = i - 1) { s = s + i; }
  sink(s);
}
|}
  in
  (* 3 + 4 + ... + 20 = 207 *)
  check_factors "downward" src (Ilp_sim.Value.Int 207)

let test_unroll_step2 () =
  let src =
    {|
fun main() {
  var i : int;
  var s : int = 0;
  for (i = 0; i < 21; i = i + 2) { s = s + i; }
  sink(s);
}
|}
  in
  (* 0+2+...+20 = 110 *)
  check_factors "step 2" src (Ilp_sim.Value.Int 110)

let test_unroll_loop_var_after () =
  (* the loop variable's final value is observable *)
  let src =
    {|
fun main() {
  var i : int;
  for (i = 0; i < 10; i = i + 3) { }
  sink(i);
}
|}
  in
  check_factors "final loop var" src (Ilp_sim.Value.Int 12)

let test_unroll_int_accumulator () =
  (* careful mode reassociates integer sums exactly *)
  let src =
    {|
arr a : int[40];
fun main() {
  var i : int;
  var s : int = 0;
  var p : int = 1;
  for (i = 0; i < 40; i = i + 1) { a[i] = i % 7 + 1; }
  for (i = 0; i < 40; i = i + 1) { s = s + a[i]; }
  for (i = 0; i < 10; i = i + 1) { p = p * a[i]; }
  sink(s * 1000 + p % 1000);
}
|}
  in
  let expected = Helpers.sink_of ~level:Ilp_core.Ilp.O0 src in
  check_factors "int accumulators" src expected

let test_unroll_observed_accumulator () =
  (* regression (found by the differential fuzzer): a statement shaped
     like an accumulation must not be split into partials when the body
     also reads the variable elsewhere — [x0 = x2] observes the true
     running product, which the partials don't carry.  Likewise a
     variable accumulated under two different operators cannot be
     reassociated under either. *)
  let src =
    {|
fun main() {
  var x0 : int = 16;
  var x2 : int = 10;
  var t : int = 1;
  var j : int;
  for (j = 0; j < 4; j = j + 1) {
    x0 = x2;
    x2 = x2 * 16;
  }
  for (j = 0; j < 6; j = j + 1) {
    t = t + 2;
    t = t * 3;
  }
  sink(x0 + x2 + t + j);
}
|}
  in
  check_factors "observed accumulator" src
    (Helpers.sink_of ~level:Ilp_core.Ilp.O0 src)

let test_unroll_float_accumulator_reassociates () =
  (* reassociation perturbs FP rounding: allow a relative tolerance *)
  let src =
    {|
arr a : real[64];
fun main() {
  var i : int;
  var s : real = 0.0;
  for (i = 0; i < 64; i = i + 1) { a[i] = 1.0 / real(i + 1); }
  for (i = 0; i < 64; i = i + 1) { s = s + a[i]; }
  sink(s);
}
|}
  in
  check_factors ~tol:1e-9 "float accumulator" src
    (Helpers.sink_of ~level:Ilp_core.Ilp.O0 src)

let test_unroll_store_load_cross_iteration () =
  (* recurrences must stay correct when unrolled *)
  let src =
    {|
arr a : real[50];
fun main() {
  var i : int;
  a[0] = 1.0;
  for (i = 1; i < 50; i = i + 1) { a[i] = a[i - 1] * 0.9 + 0.1; }
  sink(a[49]);
}
|}
  in
  check_factors "recurrence" src (Helpers.sink_of ~level:Ilp_core.Ilp.O0 src)

let test_unroll_skips_outer_loops () =
  (* only innermost loops unroll; nest must stay correct *)
  let src =
    {|
arr m : int[36];
fun main() {
  var i : int;
  var j : int;
  var s : int = 0;
  for (i = 0; i < 6; i = i + 1) {
    for (j = 0; j < 6; j = j + 1) { m[i * 6 + j] = i * j; }
  }
  for (i = 0; i < 36; i = i + 1) { s = s + m[i]; }
  sink(s);
}
|}
  in
  check_factors "nest" src (Ilp_sim.Value.Int 225)

let test_unroll_increases_parallelism () =
  (* the Figure 4-6 effect, in miniature: careful unrolling of a
     reduction increases measured parallelism *)
  let src =
    {|
arr x : real[200];
arr y : real[200];
fun main() {
  var i : int;
  var s : real = 0.0;
  for (i = 0; i < 200; i = i + 1) { x[i] = real(i); y[i] = real(200 - i); }
  for (i = 0; i < 200; i = i + 1) { s = s + x[i] * y[i]; }
  sink(s);
}
|}
  in
  let config = Ilp_machine.Config.make "wide" ~issue_width:16 ~temp_regs:40 in
  let ilp u =
    (Helpers.measure ~config ?unroll:u src).Ilp_sim.Metrics.speedup
  in
  let base = ilp None in
  let careful = ilp (unroll Ilp_lang.Unroll.Careful 4) in
  Alcotest.(check bool)
    (Printf.sprintf "careful 4x (%.2f) beats rolled (%.2f)" careful base)
    true (careful > base *. 1.2)

let test_unroll_loops_with_return_untouched () =
  let src =
    {|
arr a : int[20];
fun find(v: int) : int {
  var i : int;
  for (i = 0; i < 20; i = i + 1) {
    if (a[i] == v) { return i; }
  }
  return -1;
}
fun main() {
  var i : int;
  for (i = 0; i < 20; i = i + 1) { a[i] = i * 3; }
  sink(find(27) * 100 + find(5));
}
|}
  in
  check_factors "loop with return" src (Ilp_sim.Value.Int 899)

(* --- bound analysis: classification, skip counters, peel/full ---------- *)

let program_stats ?bounds mode factor src =
  U.program_stats ?bounds mode factor (Ilp_lang.Semant.compile_source src)

let stats_of ?bounds mode factor src =
  snd (program_stats ?bounds mode factor src)

let rec count_fors stmts =
  List.fold_left
    (fun n s ->
      n
      +
      match s with
      | T.TSfor (_, body) -> 1 + count_fors body
      | T.TSif (_, a, b) -> count_fors a + count_fors b
      | T.TSwhile (_, body) -> count_fors body
      | _ -> 0)
    0 stmts

let count_fors_prog (p : T.tprogram) =
  List.fold_left (fun n (f : T.tfunc) -> n + count_fors f.T.tf_body) 0 p.T.tfuncs

let check_skip name src reason =
  List.iter
    (fun bounds ->
      let p, st =
        program_stats ~bounds Ilp_lang.Unroll.Careful 4 src
      in
      Alcotest.(check int)
        (Printf.sprintf "%s: %s count (bounds=%b)" name
           (U.skip_reason_name reason) bounds)
        1
        (U.skip_count st reason);
      (* a skipped loop is left byte-for-byte alone *)
      Alcotest.(check bool)
        (Printf.sprintf "%s: program untouched (bounds=%b)" name bounds)
        true
        (T.equal_tprogram p (Ilp_lang.Semant.compile_source src)))
    [ false; true ]

let test_skip_index_mutated () =
  (* regression: the substitution-based transform rewrites reads of the
     index in copy [j] to [i + j*step], so a body that assigns the index
     — even the identity [i = i;] — executes a real mutation once
     unrolled.  Such loops must be skipped, and counted as such. *)
  let self_assign =
    {|
fun main() {
  var i : int;
  var s : int = 0;
  for (i = 0; i < 10; i = i + 1) { i = i; s = s + i; }
  sink(s);
}
|}
  in
  check_skip "self assign" self_assign Ilp_lang.Unroll.Index_mutated;
  check_factors "self assign" self_assign (Ilp_sim.Value.Int 45);
  let increment =
    {|
fun main() {
  var i : int;
  var s : int = 0;
  for (i = 0; i < 10; i = i + 1) { s = s + i; i = i + 1; }
  sink(s);
}
|}
  in
  (* the body's own increment makes the original visit 0, 2, 4, 6, 8 *)
  check_skip "body increments index" increment Ilp_lang.Unroll.Index_mutated;
  check_factors "body increments index" increment (Ilp_sim.Value.Int 20)

let test_skip_direction_mismatch () =
  (* regression: the classic transform shifts the main-loop limit by
     -(factor-1)*step; on a zero-trip loop whose step fights the
     comparison ([i > 2] while counting up) that shift makes the
     condition true on entry and the unrolled "zero-trip" loop runs
     forever.  The loop must be recognised and skipped — this test
     terminating at factors >= 4 is the regression. *)
  let src =
    {|
fun main() {
  var i : int;
  var s : int = 7;
  for (i = 0; i > 2; i = i + 1) { s = s + 1; }
  sink(s);
}
|}
  in
  check_skip "direction mismatch" src Ilp_lang.Unroll.Direction_mismatch;
  check_factors "direction mismatch" src (Ilp_sim.Value.Int 7)

let test_classify_degenerate_step () =
  (* the frontend rejects a literal zero step, so exercise the
     classifier directly: a hand-built header with [tf_step = 0] must
     come back degenerate, never counted *)
  let iv = { T.vr_name = "i"; vr_ty = T.Tint; vr_kind = T.Vlocal } in
  let hdr step =
    { T.tf_var = iv; tf_init = T.int_expr 0; tf_cmp = Ilp_lang.Ast.Blt;
      tf_limit = T.int_expr 10; tf_step = step }
  in
  (match Ilp_lang.Bounds.classify Ilp_lang.Bounds.Env.empty (hdr 0) [] with
  | Ilp_lang.Bounds.Degenerate_step -> ()
  | c ->
      Alcotest.failf "step 0 classified %s"
        (match c with
        | Ilp_lang.Bounds.Counted _ -> "counted"
        | _ -> "other"));
  (match Ilp_lang.Bounds.classify Ilp_lang.Bounds.Env.empty (hdr (-1)) [] with
  | Ilp_lang.Bounds.Direction_mismatch -> ()
  | _ -> Alcotest.fail "negative step under < not flagged");
  match Ilp_lang.Bounds.classify Ilp_lang.Bounds.Env.empty (hdr 3) [] with
  | Ilp_lang.Bounds.Counted { start = 0; step = 3; trips = 4 } -> ()
  | _ -> Alcotest.fail "well-formed constant header not counted"

let test_skip_limit_mutated () =
  (* the lowering re-evaluates the limit every iteration, so a body
     that assigns a variable the limit reads changes the iteration
     space; unrolling against a shifted stale limit miscompiles.  Here
     the original meets in the middle after 5 iterations. *)
  let src =
    {|
fun main() {
  var i : int;
  var n : int = 10;
  var s : int = 0;
  for (i = 0; i < n; i = i + 1) { n = n - 1; s = s + 1; }
  sink(s * 100 + n);
}
|}
  in
  check_skip "limit mutated" src Ilp_lang.Unroll.Limit_mutated;
  check_factors "limit mutated" src (Ilp_sim.Value.Int 505)

let test_skip_loop_var_in_limit () =
  (* a limit reading the loop variable is re-evaluated against the
     moving index — structurally never unrollable.  (Not executed: the
     original program is an infinite loop by design.) *)
  let src =
    {|
fun f() {
  var i : int;
  for (i = 0; i < i + 3; i = i + 1) { }
}
fun main() { sink(0); }
|}
  in
  check_skip "loop var in limit" src Ilp_lang.Unroll.Limit_mutated

let test_full_unroll_eliminates_loop () =
  (* trips 6 <= threshold 8: with bounds on, no loop survives at all *)
  let src =
    {|
fun main() {
  var i : int;
  var s : int = 0;
  for (i = 0; i < 6; i = i + 1) { s = s + i * i; }
  sink(s + i);
}
|}
  in
  List.iter
    (fun mode ->
      let p, st = program_stats ~bounds:true mode 4 src in
      Alcotest.(check int) "one loop fully unrolled" 1 st.U.full;
      Alcotest.(check int) "no loop left" 0 (count_fors_prog p);
      let classic, _ = program_stats ~bounds:false mode 4 src in
      Alcotest.(check int) "classic keeps main + remainder" 2
        (count_fors_prog classic))
    [ Ilp_lang.Unroll.Naive; Ilp_lang.Unroll.Careful ];
  check_factors "full unroll" src (Ilp_sim.Value.Int 61)

let test_peel_eliminates_remainder () =
  (* trips 13, factor 4: peeling runs one leading copy straight-line and
     leaves exactly one loop of 12 iterations — the classic transform's
     remainder loop (and its dynamic compare/branch work) is gone *)
  let src =
    {|
arr a : int[13];
fun main() {
  var i : int;
  var s : int = 0;
  for (i = 0; i < 13; i = i + 1) { a[i] = 2 * i + 1; s = s + a[i]; }
  sink(s * 10 + i);
}
|}
  in
  let p, st = program_stats ~bounds:true Ilp_lang.Unroll.Careful 4 src in
  Alcotest.(check int) "one loop peeled" 1 st.U.peeled;
  Alcotest.(check int) "exactly one loop left" 1 (count_fors_prog p);
  let classic, _ = program_stats ~bounds:false Ilp_lang.Unroll.Careful 4 src in
  Alcotest.(check int) "classic keeps main + remainder" 2
    (count_fors_prog classic);
  (* zero remainder-loop dynamic instructions: the peeled compilation
     must execute strictly fewer instructions than the classic one *)
  let dyn bounds =
    (Helpers.run_source ~level:Ilp_core.Ilp.O4
       ?unroll:(unroll ~bounds Ilp_lang.Unroll.Careful 4) src)
      .Ilp_sim.Exec.dyn_instrs
  in
  let peeled = dyn true and classic_dyn = dyn false in
  Alcotest.(check bool)
    (Printf.sprintf "peel executes fewer instructions (%d < %d)" peeled
       classic_dyn)
    true (peeled < classic_dyn);
  check_factors "peel" src (Ilp_sim.Value.Int 1703)

(* Every workload and factor of the fig4_5_unroll experiment: peeling
   only removes remainder-loop work, so the careful-peel curve may not
   fall below the classic careful curve (0.1% slack for rounding). *)
let test_study_peel_not_below_careful () =
  let rows = Experiments.(measure (unroll_study ())) in
  let series name bench =
    List.find_opt
      (fun (r : Experiments.unroll_study_row) ->
        r.us_bench = bench && r.us_series = name)
      rows
  in
  List.iter
    (fun bench ->
      match (series "careful" bench, series "careful-peel" bench) with
      | Some careful, Some peel ->
          List.iter2
            (fun (factor, c) (_, p) ->
              if p < c *. 0.999 then
                Alcotest.failf "%s x%d: careful-peel %.4f < careful %.4f"
                  bench factor p c)
            careful.us_by_factor peel.us_by_factor
      | _ -> Alcotest.failf "no careful or careful-peel series for %s" bench)
    (List.sort_uniq compare
       (List.map (fun (r : Experiments.unroll_study_row) -> r.us_bench) rows))

let test_boundary_trip_counts () =
  (* deterministic sweep of the off-by-one landscape: for each factor,
     trip counts 0, 1, factor-1, factor, factor+1, counting up and
     down, every mode and bound setting, against the O0 reference *)
  List.iter
    (fun factor ->
      List.iter
        (fun trips ->
          let up =
            Printf.sprintf
              "fun main() {\n\
              \  var i : int;\n\
              \  var s : int = 0;\n\
              \  for (i = 0; i < %d; i = i + 1) { s = s + i * i + 1; }\n\
              \  sink(s * 100 + i);\n\
               }\n"
              trips
          in
          let down =
            Printf.sprintf
              "fun main() {\n\
              \  var i : int;\n\
              \  var s : int = 0;\n\
              \  for (i = %d; i > 0; i = i - 1) { s = s + i * i + 1; }\n\
              \  sink(s * 100 + i);\n\
               }\n"
              trips
          in
          List.iter
            (fun (dir, src) ->
              let expected = Helpers.sink_of ~level:Ilp_core.Ilp.O0 src in
              List.iter
                (fun mode ->
                  List.iter
                    (fun bounds ->
                      let v =
                        Helpers.sink_of
                          ?unroll:(unroll ~bounds mode factor)
                          ~level:Ilp_core.Ilp.O4 src
                      in
                      if not (Ilp_sim.Value.equal v expected) then
                        Alcotest.failf
                          "%s trips=%d factor=%d bounds=%b: %a <> %a" dir
                          trips factor bounds Ilp_sim.Value.pp v
                          Ilp_sim.Value.pp expected)
                    [ false; true ])
                [ Ilp_lang.Unroll.Naive; Ilp_lang.Unroll.Careful ])
            [ ("up", up); ("down", down) ])
        [ 0; 1; factor - 1; factor; factor + 1 ])
    [ 2; 3; 4; 8 ]

(* --- composite-subtraction subscripts (flatten_sum) -------------------- *)

let test_normalize_index () =
  (* ((k + 2) - j) - 1 and (k - (j + 1)) - 2 + 2 both canonicalise to
     base (k - j) plus a trailing constant, so copies of a subscript
     like livermore's w[k - j - 1] CSE to a shared base term *)
  let v name = T.var_expr { T.vr_name = name; vr_ty = T.Tint; vr_kind = T.Vlocal } in
  let bin op a b = { T.tnode = T.Tbinary (op, a, b); tty = T.Tint } in
  let ( +! ) = bin Ilp_lang.Ast.Badd and ( -! ) = bin Ilp_lang.Ast.Bsub in
  let k = v "k" and j = v "j" in
  let check label e expected =
    let got = U.normalize_index e in
    if not (T.equal_texpr got expected) then
      Alcotest.failf "%s: normalised to %s, wanted %s" label
        (T.show_texpr got) (T.show_texpr expected)
  in
  check "((k+2)-j)-1"
    ((k +! T.int_expr 2) -! j -! T.int_expr 1)
    ((k -! j) +! T.int_expr 1);
  check "(k-(j+1))-1"
    ((k -! (j +! T.int_expr 1)) -! T.int_expr 1)
    ((k -! j) -! T.int_expr 2);
  check "k-j" (k -! j) (k -! j);
  check "5-(j-2)"
    (T.int_expr 5 -! (j -! T.int_expr 2))
    ((T.int_expr 0 -! j) +! T.int_expr 7)

let test_composite_subscript_cse () =
  (* the livermore kernel-3 shape: with a composite subtraction
     subscript, careful mode's canonicalisation lets local CSE share
     the (k - j) base between the unrolled copies, so the careful
     compilation executes no more instructions than the naive one *)
  let src =
    {|
arr b : real[40];
arr w : real[40];
fun main() {
  var j : int;
  var k : int = 20;
  var s : real = 0.0;
  for (j = 0; j < 20; j = j + 1) { b[j + 20] = real(j); w[j] = real(j + 1); }
  for (j = 0; j < 18; j = j + 1) { s = s + b[k + j] * w[k - j - 1]; }
  sink(s);
}
|}
  in
  let dyn mode =
    (Helpers.run_source ~level:Ilp_core.Ilp.O4 ?unroll:(unroll mode 2) src)
      .Ilp_sim.Exec.dyn_instrs
  in
  let naive = dyn Ilp_lang.Unroll.Naive
  and careful = dyn Ilp_lang.Unroll.Careful in
  Alcotest.(check bool)
    (Printf.sprintf "careful x2 (%d) executes fewer instructions than \
                     naive x2 (%d)" careful naive)
    true (careful < naive);
  check_factors ~tol:1e-9 "composite subscript" src
    (Helpers.sink_of ~level:Ilp_core.Ilp.O0 src)

let tests =
  [ Alcotest.test_case "exact multiple" `Quick test_unroll_exact_multiple;
    Alcotest.test_case "remainder loop" `Quick test_unroll_remainder;
    Alcotest.test_case "zero trip" `Quick test_unroll_zero_trip;
    Alcotest.test_case "downward loop" `Quick test_unroll_downward;
    Alcotest.test_case "step 2" `Quick test_unroll_step2;
    Alcotest.test_case "final loop variable" `Quick test_unroll_loop_var_after;
    Alcotest.test_case "int accumulators" `Quick test_unroll_int_accumulator;
    Alcotest.test_case "observed accumulator" `Quick test_unroll_observed_accumulator;
    Alcotest.test_case "float accumulator" `Quick test_unroll_float_accumulator_reassociates;
    Alcotest.test_case "cross-iteration recurrence" `Quick test_unroll_store_load_cross_iteration;
    Alcotest.test_case "nested loops" `Quick test_unroll_skips_outer_loops;
    Alcotest.test_case "parallelism increases" `Quick test_unroll_increases_parallelism;
    Alcotest.test_case "loops with return untouched" `Quick test_unroll_loops_with_return_untouched;
    Alcotest.test_case "index-mutating bodies skipped" `Quick test_skip_index_mutated;
    Alcotest.test_case "direction mismatch skipped" `Quick test_skip_direction_mismatch;
    Alcotest.test_case "degenerate step classified" `Quick test_classify_degenerate_step;
    Alcotest.test_case "limit mutation skipped" `Quick test_skip_limit_mutated;
    Alcotest.test_case "loop var in limit skipped" `Quick test_skip_loop_var_in_limit;
    Alcotest.test_case "full unroll eliminates loop" `Quick test_full_unroll_eliminates_loop;
    Alcotest.test_case "peel eliminates remainder" `Quick test_peel_eliminates_remainder;
    Alcotest.test_case "experiment: peel never below careful" `Slow
      test_study_peel_not_below_careful;
    Alcotest.test_case "boundary trip counts" `Quick test_boundary_trip_counts;
    Alcotest.test_case "subscript normalisation" `Quick test_normalize_index;
    Alcotest.test_case "composite subscript CSE" `Quick test_composite_subscript_cse ]
