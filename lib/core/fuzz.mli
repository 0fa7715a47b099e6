(** Random-program fuzzing of the whole compilation pipeline.

    Generates random well-typed MiniMod programs
    ({!Ilp_lang.Gen_prog}) and runs the differential oracle
    ({!Diffcheck}, at every-pass granularity) over each at every
    optimization level on a few stress configurations (unconstrained
    base machine, single-copy functional units, tiny temp pool) plus one
    careful-unroll factor.  Deterministic and reproducible at any job
    count: iteration [k] seeds its RNG from [(seed, k)] and the domain
    pool re-raises the lowest-index failure.  Failing programs are
    shrunk to a local minimum before being reported. *)

type failure = {
  index : int;  (** which iteration failed *)
  seed : int;
  config_name : string;
  error : string;  (** what the oracle or a checker reported *)
  source : string;  (** shrunk MiniMod source that still fails *)
}

exception Failed of failure

val run :
  ?jobs:int ->
  ?alias_heavy:bool ->
  ?unroll_heavy:bool ->
  ?range_heavy:bool ->
  count:int ->
  seed:int ->
  unit ->
  unit
(** Check [count] random programs; raises {!Failed} with the shrunk
    counterexample of the lowest failing iteration, if any.  Every
    iteration additionally checks the alias-disambiguated schedule
    (memory-dependence pruning under [Check_sched] re-justification and
    exact store-stream comparison) and two unroll specs at O4 (careful
    x3 classic plus careful x4 bound-aware).  [?alias_heavy] draws from
    the aliasing-adversarial generator mode; [?unroll_heavy] draws from
    the unrolling-adversarial mode (small constant bounds, down-counting
    loops, boundary trip counts, index-mutating bodies) and widens the
    spec list to both modes, factors up to 8, and both bound settings;
    [?range_heavy] draws from the range-adversarial mode (stride-2/3
    index arithmetic, split array windows, near-extent loop bounds,
    widening-stressing nested accumulators) — the shapes only the
    value-range product can disambiguate, so every edge it prunes is
    re-justified and store-stream-compared like the rest.  Raises
    [Invalid_argument] if a pool of [jobs] domains cannot start. *)
