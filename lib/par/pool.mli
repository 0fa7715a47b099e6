(** A domain pool with a deterministic data-parallel [map] over indexed
    work items.

    The pool owns [jobs - 1] worker domains (the caller is participant
    0, so [jobs = 1] degenerates to sequential execution in the calling
    domain).  A batch is a fixed array of independent items with one
    atomic claim counter: each participant repeatedly claims the next
    unclaimed index and runs that item until none is left.

    Determinism is structural, not scheduling-dependent: each result is
    written into a pre-sized slot of the output array at its item's
    index, so [map pool f xs] returns exactly what [Array.map f xs]
    returns, whatever the interleaving — including which exception
    escapes (lowest item index wins).

    Hand-rolled over [Domain] + [Mutex]/[Condition] + [Atomic] only: no
    extra dependencies, no busy-waiting (idle workers block on a
    condition variable, so oversubscribing a small host is safe).

    Restrictions, {e enforced}: batches must not nest — a task must not
    itself call {!map} on the same pool — and a pool must not be used
    after {!shutdown}.  Both misuses raise [Invalid_argument] instead of
    deadlocking. *)

type t

val create : jobs:int -> t
(** Spawn a pool of [jobs] participants ([jobs - 1] new domains plus the
    caller).  [jobs] is clamped to at least 1.  If the runtime refuses a
    domain (it caps how many may run at once), the workers already
    started are stopped and joined, and [create] raises
    [Invalid_argument]. *)

val jobs : t -> int
(** Parallel width of the pool, including the calling domain. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f]: bracket [create]/[shutdown] around [f], also on
    exceptions. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** Deterministic parallel map: same result as [Array.map f xs],
    including which exception escapes.  Every item runs; if some raise,
    the exception of the {e lowest-index} one is re-raised in the caller
    with its backtrace once the batch has finished. *)
