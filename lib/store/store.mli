(** Content-addressed persistent trace store: capture once, replay
    forever.

    A store is a directory of [<fnv64>.trace] files, one per capture
    key (workload, unrolling, optimization level, register split,
    canonical program fingerprint — see {!Codec.key}).  The sweep
    engine looks a key up before executing a workload and writes the
    capture back after, so a warm sweep performs zero workload
    execution and goes straight to replay.

    Safety over availability: a file that fails any check — magic,
    format version, CRC, key equality, re-validation against the
    program — is
    rejected with a loud diagnostic and the caller falls back to a
    fresh capture.  Writes go through a temp file and [rename], so
    concurrent writers (domains of one sweep, or separate processes)
    never expose a torn file.

    A successful lookup touches the file's mtime, making
    {!gc}'s by-mtime eviction a true LRU. *)

type t

val open_root : string -> t
(** Open (creating if needed, including parents) a store rooted at the
    given directory.  Raises [Sys_error] if the path exists and is not
    a directory, or cannot be created. *)

val root : t -> string

val key_for :
  workload:string ->
  unroll_mode:Codec.unroll_mode ->
  unroll_factor:int ->
  opt_level:int ->
  config:Ilp_machine.Config.t ->
  fingerprint:int64 ->
  Codec.key
(** Build a capture key; the register split is read from [config] (the
    only part of a configuration the unscheduled compile — and hence
    the trace — depends on, see {!Ilp_machine.Config.split_key}). *)

val lookup :
  t -> Codec.key -> (Ilp_sim.Trace_buffer.packed option, string) result
(** [Ok (Some p)]: hit (mtime touched).  [Ok None]: miss, no file.
    [Error msg]: a file exists but was rejected — corrupt, truncated,
    version-skewed or key-colliding; the caller should warn and fall
    back to capture.  Updates {!stats} accordingly. *)

val save : t -> Codec.key -> Ilp_sim.Trace_buffer.packed -> unit
(** Write-back: atomic via temp file + rename.  Raises [Sys_error] on
    I/O failure (callers treat the store as best-effort and warn). *)

type stats = { hits : int; misses : int; rejects : int; writes : int }

val stats : t -> stats
val reset_stats : t -> unit

(** {1 Maintenance ([ilp trace] subcommands)} *)

type entry = {
  file : string;  (** absolute path *)
  bytes : int;  (** file size on disk *)
  mtime : float;
  info : (Codec.key * Ilp_sim.Trace_buffer.packed, string) result;
      (** full decode: the key and payload, or why the file is bad *)
}

val list : t -> entry list
(** Every [*.trace] file, newest mtime first, each fully decoded (a
    corrupt file lists as [Error] rather than failing the listing). *)

val verify :
  t -> (string * (Codec.key * Ilp_sim.Trace_buffer.packed, string) result) list
(** Decode every file and additionally require that its name matches
    its key's content address; [(basename, result)] per file. *)

val gc : t -> max_bytes:int -> (string * int) list
(** Evict least-recently-used files (oldest mtime first) until the
    total size is at most [max_bytes]; returns the removed
    [(basename, bytes)]. *)

val clear : t -> int
(** Remove every trace (and stray temp) file; returns how many. *)
