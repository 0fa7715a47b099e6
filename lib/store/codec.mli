(** The trace store's on-disk format: a versioned, CRC-protected binary
    serialization of a packed flat trace plus the key that addresses it.

    Byte layout (all integers little-endian):

    {v
    offset  field
    0       magic "ILPTRACE" (8 bytes)
    8       format version (u32)
    12      key block:
              workload name        u16 length + bytes
              unroll mode          u8 (0 none, 1 naive, 2 careful)
              unroll factor        u16
              opt level            u8 (rank 0..4)
              temp_regs, home_regs u16 each
              program fingerprint  i64 (Fingerprint.program)
    .       payload:
              dyn_instrs           i64
              sink                 u8 tag (0 int, 1 float) + i64
              class_counts         u16 count + count x i64
              visits               u32 n; n x u32 (issue-segment
                                   numbers, in visit order)
              addresses            u32 n; n x u32 (effective addresses,
                                   in execution order)
    end-4   CRC-32 (u32) over bytes [0, end-4)
    v}

    Decoding checks, in order: minimum length, magic, format version,
    CRC, then key equality against the expected key — so corruption,
    truncation, version skew and key collisions each fail loudly with a
    distinct message, and a load never half-succeeds. *)

type unroll_mode =
  [ `None | `Naive | `Careful | `Naive_bounded | `Careful_bounded ]
(** [`Naive_bounded] / [`Careful_bounded] are the bound-aware variants
    (full unroll + remainder peeling enabled); they key distinct
    programs, so the tag keeps [describe_key] honest even though the
    fingerprint already separates the traces. *)

type key = {
  workload : string;
  unroll_mode : unroll_mode;
  unroll_factor : int;
  opt_level : int;  (** optimization-level rank, 0..4 *)
  temp_regs : int;
  home_regs : int;
  fingerprint : int64;  (** {!Fingerprint.program} of the pre-scheduled
                            program *)
}

val format_version : int

val key_id : key -> string
(** The content address: 16 hex digits of FNV-1a over the canonical key
    rendering.  Doubles as the file's base name. *)

val describe_key : key -> string
(** Human-readable one-liner for [ilp trace list]. *)

val equal_key : key -> key -> bool

val encode : key -> Ilp_sim.Trace_buffer.packed -> Bytes.t
(** The complete file image, CRC included. *)

val decode : Bytes.t -> (key * Ilp_sim.Trace_buffer.packed, string) result
(** Parse a file image, verifying magic, version and CRC.  Structural
    errors (impossible if the CRC passed, unless the encoder was buggy)
    are also reported as [Error]. *)

val decode_for :
  key -> Bytes.t -> (Ilp_sim.Trace_buffer.packed, string) result
(** {!decode}, then reject loudly when the stored key differs from the
    expected one — a hash collision or a renamed file. *)
