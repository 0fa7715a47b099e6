(* In-order timing model (Section 3 of the paper).

   The model consumes the dynamic instruction stream produced by [Exec]
   and charges cycles according to a machine configuration:

   - at most [issue_width] instructions issue per (minor) cycle;
   - an instruction does not issue until all its source registers are
     ready (operation latency of the producer has elapsed) — results are
     bypassed, so a latency of 1 means a dependent instruction can issue
     in the very next cycle;
   - writes complete in order (a WAW hazard stalls issue);
   - if the instruction's class is served by declared functional units, a
     free unit must exist; issuing occupies it for the unit's issue
     latency.  Classes with no declared unit are unconstrained (ideal
     superscalar);
   - issue is strictly in order: the first stalled instruction ends the
     cycle's issue group;
   - control transfers are free (the paper assumes perfect branch
     prediction and branch-slot filling), so branches occupy an issue
     slot but never cause a control stall;
   - an optional data cache adds a blocking miss penalty (Section 5.1).

   Cycle counts are in minor cycles; [base_cycles] divides by the
   superpipelining degree to express time in base-machine cycles.

   Issue does not step through stalled cycles one at a time.  Every
   hazard is a bound that stays fixed while the instruction waits: its
   sources are ready at [max reg_ready.(use)], its writes complete in
   order from [max reg_ready.(def) - latency], and a unit of its class
   frees at [min free_at].  So [issue_decoded] computes the earliest
   cycle [c] at which all three hold and jumps there in one step: the
   open cycle is closed into its histogram slot, the [c - now - 1]
   cycles skipped over issued nothing and go to slot 0, and every
   skipped cycle is a stall.  A blocking cache miss is paid the same
   way before the jump, and a full or branch-ended packet closes into
   the next cycle without a stall.  The result is the cycle-by-cycle
   model exactly; [test/timing_ref.ml] steps one cycle at a time and a
   property test holds the two equal.  The path is plain loops over
   arrays and allocates nothing per instruction.

   Every instruction goes through one issue step.  [replay_flat] is
   the loop over a trace's flat form (issue segments, see
   Trace_buffer), with the step inlined: it is how every measurement is
   timed.  That loop lives here rather than next to the trace because
   the dev profile compiles with [-opaque], and from another module
   every instruction would reach the step through a generic
   application.  [issue] and [issue_decoded] call the same step once
   per instruction, for pipeline diagrams and tests. *)

open Ilp_ir
open Ilp_machine

type unit_pool = { spec : Config.unit_spec; free_at : int array }

type t = {
  config : Config.t;
  reg_ready : int array;
  pools : unit_pool list;  (** in [config.units] declaration order *)
  pools_by_class : unit_pool array array;
      (** indexed by class; each in declaration order *)
  mutable now : int;  (** current minor cycle *)
  mutable issued_this_cycle : int;
  mutable instrs : int;
  mutable stall_cycles : int;
  cache : Cache.t option;
  mutable cache_stall_until : int;
  issue_histogram : int array;
      (** [issue_histogram.(k)]: cycles that issued exactly [k]
          instructions, recorded as cycles close *)
  mutable force_cycle_end : bool;
  mutable finished : bool;
}

let create ?cache ?(registers = Exec.default_options.Exec.registers)
    (config : Config.t) =
  let pools =
    List.map
      (fun spec ->
        { spec; free_at = Array.make spec.Config.multiplicity 0 })
      config.Config.units
  in
  let pools_by_class =
    Array.init Iclass.count (fun idx ->
        let c = Iclass.of_index idx in
        Array.of_list
          (List.filter (fun p -> List.mem c p.spec.Config.classes) pools))
  in
  { config;
    reg_ready = Array.make registers 0;
    pools;
    pools_by_class;
    now = 0;
    issued_this_cycle = 0;
    instrs = 0;
    stall_cycles = 0;
    cache;
    cache_stall_until = 0;
    issue_histogram = Array.make (config.Config.issue_width + 1) 0;
    force_cycle_end = false;
    finished = false;
  }

(* Close the open cycle and move to cycle [c > t.now]: the open cycle
   lands in the histogram slot of its issue count, and each of the
   [c - t.now - 1] cycles in between issued nothing. *)
let[@inline] advance_to t c =
  let h = t.issue_histogram in
  h.(t.issued_this_cycle) <- h.(t.issued_this_cycle) + 1;
  h.(0) <- h.(0) + (c - t.now - 1);
  t.now <- c;
  t.issued_this_cycle <- 0;
  t.force_cycle_end <- false

(* The latency of a memory access through the blocking cache: a miss
   lengthens a load's latency by the miss penalty, and blocks the
   pipeline behind a store until the penalty has passed (write-allocate).
   Kept out of line, so that the inlined step stays small. *)
let[@inline never] cache_latency t cache ~is_load base addr =
  if Cache.access cache addr then base
  else
    let penalty = Cache.miss_penalty cache in
    if is_load then base + penalty
    else begin
      if t.now + penalty > t.cache_stall_until then
        t.cache_stall_until <- t.now + penalty;
      base
    end

(* The issue step: account one dynamic instruction.  Every path goes
   through it — [issue], [issue_decoded] and the flat replay loop
   [replay_flat] — so all three produce identical timing.  [cls] is the
   class index and [control] whether the class is a control transfer;
   the destination register indices are [defs.(d0 .. d0 + nd - 1)] and
   the source ones [uses.(u0 .. u0 + nu - 1)], two arrays for a decoded
   instruction and one flat register list for replay code; [addr] is
   the effective address of a memory operation or -1.  This is the hot
   path: plain loops, no closure and no allocation.  It is inlined into
   its callers, so the replay loop runs it without a call or the
   argument spills around one. *)
let[@inline] step t ~cls ~is_load ~control (defs : int array) d0 nd
    (uses : int array) u0 nu addr =
  let latency =
    let base = t.config.Config.latencies.(cls) in
    match t.cache with
    | Some cache when addr >= 0 -> cache_latency t cache ~is_load base addr
    | Some _ | None -> base
  in
  (* blocking-cache stall: every cycle up to the horizon is a stall *)
  if t.now < t.cache_stall_until then begin
    t.stall_cycles <- t.stall_cycles + (t.cache_stall_until - t.now);
    advance_to t t.cache_stall_until
  end;
  (* a full or branch-ended packet closes; waiting for the next one is
     not a stall *)
  if
    t.issued_this_cycle >= t.config.Config.issue_width || t.force_cycle_end
  then advance_to t (t.now + 1);
  (* the earliest cycle at which sources are ready, writes complete in
     order and a unit of the class is free *)
  let reg_ready = t.reg_ready in
  let c = ref t.now in
  for k = u0 to u0 + nu - 1 do
    let ready = reg_ready.(uses.(k)) in
    if ready > !c then c := ready
  done;
  for k = d0 to d0 + nd - 1 do
    let ready = reg_ready.(defs.(k)) - latency in
    if ready > !c then c := ready
  done;
  let pools = t.pools_by_class.(cls) in
  if Array.length pools > 0 then begin
    let free = ref max_int in
    for p = 0 to Array.length pools - 1 do
      let free_at = pools.(p).free_at in
      for i = 0 to Array.length free_at - 1 do
        if free_at.(i) < !free then free := free_at.(i)
      done
    done;
    if !free > !c then c := !free
  end;
  let c = !c in
  if c > t.now then begin
    t.stall_cycles <- t.stall_cycles + (c - t.now);
    advance_to t c
  end;
  (* book the first unit free at [c], in declaration order; one exists
     because [c] is at least the earliest [free_at] *)
  let booked = ref (Array.length pools = 0) in
  let p = ref 0 in
  while not !booked do
    let pool = pools.(!p) in
    let i = ref 0 in
    while (not !booked) && !i < Array.length pool.free_at do
      if pool.free_at.(!i) <= c then begin
        pool.free_at.(!i) <- c + pool.spec.Config.issue_latency;
        booked := true
      end;
      incr i
    done;
    incr p
  done;
  for k = d0 to d0 + nd - 1 do
    reg_ready.(defs.(k)) <- c + latency
  done;
  t.issued_this_cycle <- t.issued_this_cycle + 1;
  t.instrs <- t.instrs + 1;
  if control && t.config.Config.branch_ends_packet then
    t.force_cycle_end <- true

(* Account one dynamic instruction given its pre-decoded fields: class,
   load-ness, def/use register indices, and the effective address of a
   memory operation or -1. *)
let issue_decoded t ~cls ~is_load ~(defs : int array) ~(uses : int array)
    addr =
  step t ~cls:(Iclass.to_index cls) ~is_load ~control:(Iclass.is_control cls)
    defs 0 (Array.length defs) uses 0 (Array.length uses) addr

(* ---- flat replay ---------------------------------------------------- *)

(* Replay code: one binary's instructions laid out per issue segment
   (see Trace_buffer), each already decoded down to what [step] takes.
   Segments are numbered by the trace; a segment's instructions sit at
   slots [fc_seg_first.(s) ..] in the binary's own order. *)
type flat_code = {
  fc_seg_first : int array;
  fc_seg_len : int array;
  fc_seg_mem : int array;  (** address entries per visit of the segment *)
  fc_cls : int array;  (** per slot: class index *)
  fc_flags : int array;  (** per slot: [flag_load] and [flag_control] bits *)
  fc_mrank : int array;
      (** per slot: the instruction's entry within its segment visit's
          addresses, or -1 *)
  fc_reg_first : int array;
      (** per slot, plus one past the end: where the slot's registers
          start in [fc_regs], destinations first *)
  fc_ndefs : int array;
  fc_regs : int array;
}

let flag_load = 1
let flag_control = 2

type visits = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
type addresses = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Issue every dynamic instruction of the trace: the segment visits of
   [visits] in order, each segment's slots in order, with a memory
   slot's address taken from the visit's block of [addrs].  The loop
   lives here, next to [step], because the dev profile compiles with
   [-opaque]: a loop in another module reaches [step] only through a
   generic application per instruction, while here [step] is inlined
   into it. *)
let replay_flat t (code : flat_code) (visits : visits) (addrs : addresses) =
  let regs = code.fc_regs in
  let abase = ref 0 in
  for v = 0 to Bigarray.Array1.dim visits - 1 do
    let s = Int32.to_int visits.{v} in
    let first = code.fc_seg_first.(s) in
    let base = !abase in
    for j = first to first + code.fc_seg_len.(s) - 1 do
      let rank = code.fc_mrank.(j) in
      let addr = if rank < 0 then -1 else Int32.to_int addrs.{base + rank} in
      let flags = code.fc_flags.(j) in
      let r0 = code.fc_reg_first.(j) and nd = code.fc_ndefs.(j) in
      step t ~cls:code.fc_cls.(j)
        ~is_load:(flags land flag_load <> 0)
        ~control:(flags land flag_control <> 0)
        regs r0 nd regs (r0 + nd)
        (code.fc_reg_first.(j + 1) - r0 - nd)
        addr
    done;
    abase := base + code.fc_seg_mem.(s)
  done

let reg_indices regs = Array.of_list (List.map Reg.index regs)

(* Account one dynamic instruction, decoding it on the spot; [addr] is
   the effective address of a memory operation or -1. *)
let issue t (i : Instr.t) addr =
  issue_decoded t ~cls:(Instr.iclass i) ~is_load:(Instr.is_load i)
    ~defs:(reg_indices (Instr.defs i))
    ~uses:(reg_indices (Instr.uses i))
    addr

(* Total time: the cycle of the last issue plus the drain of the deepest
   outstanding result.  Once [finish] has closed the books, [t.now]
   already includes the drain. *)
let minor_cycles t =
  if t.finished then t.now
  else
    let drain = Array.fold_left max 0 t.reg_ready in
    max (t.now + 1) drain

(* Close the open issue cycle and charge the drain cycles, so the issue
   histogram accounts for every minor cycle of the run:
   [sum issue_histogram = minor_cycles].  Idempotent; no further issues
   are expected afterwards. *)
let finish t =
  if not t.finished then begin
    advance_to t (minor_cycles t);
    t.finished <- true
  end

let base_cycles t =
  float_of_int (minor_cycles t) /. float_of_int t.config.Config.pipe_degree

let instrs t = t.instrs

(* Speedup over the base machine, which executes one instruction per base
   cycle with no stalls. *)
let speedup t =
  if t.instrs = 0 then 1.0 else float_of_int t.instrs /. base_cycles t
