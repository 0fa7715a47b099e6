(* QCheck wrapper around the shared random-MiniMod generator.

   The generator itself — AST, rendering, generation and shrinking —
   lives in Ilp_lang.Gen_prog so that the standalone fuzzer ([ilp fuzz])
   and the property tests draw from the same definition of "random
   program".  Here it only gets adapted to QCheck2: generation from
   QCheck's random state, shrinking via Gen_prog.shrink_step. *)

open QCheck2

let prog : Ilp_lang.Gen_prog.prog Gen.t =
  Gen.make_primitive ~gen:Ilp_lang.Gen_prog.generate
    ~shrink:Ilp_lang.Gen_prog.shrink_step

let program : string Gen.t = Gen.map Ilp_lang.Gen_prog.render prog

(* The unrolling-adversarial mode: boundary trip counts around the
   checked factors, down-counting and inclusive headers, degenerate
   directions, index self-assignment, unknown scalar bounds. *)
let unroll_heavy_prog : Ilp_lang.Gen_prog.prog Gen.t =
  Gen.make_primitive
    ~gen:(Ilp_lang.Gen_prog.generate ~mode:`Unroll_heavy)
    ~shrink:Ilp_lang.Gen_prog.shrink_step

let unroll_heavy_program : string Gen.t =
  Gen.map Ilp_lang.Gen_prog.render unroll_heavy_prog

(* The aliasing-adversarial mode: affine indices over shared index
   locals, copies, small offsets before the mask. *)
let alias_heavy_prog : Ilp_lang.Gen_prog.prog Gen.t =
  Gen.make_primitive
    ~gen:(Ilp_lang.Gen_prog.generate ~mode:`Alias_heavy)
    ~shrink:Ilp_lang.Gen_prog.shrink_step

let alias_heavy_program : string Gen.t =
  Gen.map Ilp_lang.Gen_prog.render alias_heavy_prog

(* The range-adversarial mode: stride-2/3 index arithmetic, split array
   windows, near-extent loop bounds, widening-stressing accumulators. *)
let range_heavy_prog : Ilp_lang.Gen_prog.prog Gen.t =
  Gen.make_primitive
    ~gen:(Ilp_lang.Gen_prog.generate ~mode:`Range_heavy)
    ~shrink:Ilp_lang.Gen_prog.shrink_step

let range_heavy_program : string Gen.t =
  Gen.map Ilp_lang.Gen_prog.render range_heavy_prog

(* A program of any of the four modes, in equal shares. *)
let any_mode_program : string Gen.t =
  Gen.oneof
    [ program; alias_heavy_program; unroll_heavy_program; range_heavy_program ]
