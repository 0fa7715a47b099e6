(* A small direct-mapped data cache with a blocking miss penalty, used
   for the Section 5.1 experiments on the interaction of cache misses
   with parallel instruction issue.

   Addresses are word addresses; a line holds [line_words] consecutive
   words.  The cache is write-allocate: loads and stores both fill the
   line on a miss. *)

type t = {
  lines : int;  (** number of lines, a power of two *)
  line_words : int;  (** words per line, a power of two *)
  penalty : int;  (** miss penalty in (minor) cycles *)
  tags : int array;  (** -1 = invalid *)
  mutable accesses : int;
  mutable misses : int;
}

let create ?(lines = 256) ?(line_words = 4) ~penalty () =
  if lines <= 0 || lines land (lines - 1) <> 0 then
    invalid_arg "Cache.create: lines must be a positive power of two";
  if line_words <= 0 || line_words land (line_words - 1) <> 0 then
    invalid_arg "Cache.create: line_words must be a positive power of two";
  { lines;
    line_words;
    penalty;
    tags = Array.make lines (-1);
    accesses = 0;
    misses = 0;
  }

let miss_penalty t = t.penalty

(* [access t addr] is [true] on a hit.  Misses fill the line. *)
let access t addr =
  t.accesses <- t.accesses + 1;
  let line_addr = addr / t.line_words in
  let index = line_addr land (t.lines - 1) in
  if t.tags.(index) = line_addr then true
  else begin
    t.misses <- t.misses + 1;
    t.tags.(index) <- line_addr;
    false
  end

let accesses t = t.accesses
let misses t = t.misses

let miss_rate t =
  if t.accesses = 0 then 0.0 else float_of_int t.misses /. float_of_int t.accesses
