(* A 1-D in-place neighbour relaxation sweep: x[k] = wa*x[k] + wb*x[kn]
   with kn = k + 1, repeated over one array.

   The right-neighbour index deliberately flows through the scalar [kn]
   rather than appearing as the syntactic subscript [k + 1]: codegen's
   index peephole only folds literal offsets, so every unrolled copy's
   load of x[kn] carries its own opaque [Mem_info.Sym] base and the
   conservative disambiguator cannot relate it to the copy's store of
   x[k] — the cross-copy pairs serialise.  The memory-dependence
   analysis recovers kn = k + 1 as a linear term, proves the constant
   offsets apart, and lets the copies overlap.  This is the
   disambiguation stress workload of the [memdep] experiment.

   Not part of the paper's Section 4 suite: registered in
   [Registry.extras], not [Registry.all], so the aggregate figure
   sweeps are unchanged. *)

let n = 64
let sweeps = 40

let source =
  Printf.sprintf
    {|
# In-place neighbour smoothing: x[k] = wa*x[k] + wb*x[k+1], swept
# repeatedly over one array.
var n : int = %d;
arr x : real[%d];

fun init() {
  var i : int;
  for (i = 0; i < n; i = i + 1) {
    x[i] = real(((i * 37 + 11) %% 64) - 32) / 8.0;
  }
}

fun smooth(wa: real, wb: real) {
  var k : int;
  var kn : int;
  for (k = 0; k < n - 1; k = k + 1) {
    kn = k + 1;
    x[k] = wa * x[k] + wb * x[kn];
  }
}

fun main() {
  var s : int;
  var i : int;
  var chk : real = 0.0;
  init();
  for (s = 0; s < %d; s = s + 1) {
    smooth(0.75, 0.25);
  }
  for (i = 0; i < n; i = i + 1) {
    chk = chk + x[i];
  }
  sink(chk);
}
|}
    n n sweeps

let workload =
  Workload.make "smooth"
    ~description:
      "in-place 1-D neighbour relaxation; same-array store/load pairs at \
       unit offsets — the memory-disambiguation stress kernel"
    ~default_unroll:4 ~numeric:true source
