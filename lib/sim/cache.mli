(** A direct-mapped data cache with a blocking miss penalty, for the
    Section 5.1 experiments on the interaction of cache misses with
    parallel instruction issue.

    Addresses are word addresses; a line holds [line_words] consecutive
    words.  The cache is write-allocate: loads and stores both fill the
    line on a miss. *)

type t

val create : ?lines:int -> ?line_words:int -> penalty:int -> unit -> t
(** [lines] (default 256) and [line_words] (default 4) must be powers of
    two; [penalty] is the miss cost in (minor) cycles.  Raises
    [Invalid_argument] otherwise. *)

val miss_penalty : t -> int

val access : t -> int -> bool
(** [access t addr] is [true] on a hit; a miss fills the line. *)

val accesses : t -> int
val misses : t -> int
val miss_rate : t -> float
