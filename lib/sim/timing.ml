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
   property test holds the two equal.  The step is plain loops over
   arrays and allocates nothing.

   All timing logic is one issue step, [step].  [replay_flat] is the
   loop over a trace's flat form (issue segments, see Trace_buffer): it
   is how every measurement is timed.  Without a cache it is memoized,
   so the step runs once per distinct pair of state and segment rather
   than once per instruction.  Taken relative to [now], the model's state is
   small: the open packet's issue count, the branch-ended flag, and how
   far beyond [now] each register the bound code names is ready and
   each unit copy frees, clamped at 0.  Clamping is exact, because a
   value at or below [now] never changes the issue cycle, the WAW
   bound, which unit copy is booked or the drain.  That state and a
   segment fix the segment's timing, so replay interns the states and
   steps each (state, segment) pair once: a miss loads the state into a
   scratch model at [now = 0], runs the segment through [issue_segment]
   and [step], and records the next state with the deltas of [now], the
   stalls and the histogram.  A hit only bumps that transition's count
   and moves to its next state, touching no instruction or address.  At
   the end the counts times the deltas are folded into [t] and the last
   state is written back at the new [now], so [finish], [minor_cycles]
   and later issues see exactly what the plain loop leaves.  Registers
   the code never names keep their absolute values.  A cache's contents
   are state the key lacks, so with a cache every visit issues its
   instructions through the same [issue_segment].  Replay allocates
   per distinct (state, segment) pair, not per instruction.  The loop
   lives here rather than next to the trace because the dev profile
   compiles with [-opaque], and from another module every instruction
   would reach the step through a generic application.  [issue] and
   [issue_decoded] call the same step once per instruction, for
   pipeline diagrams and tests. *)

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
  mutable stepped : int;
      (** segment visits [replay_flat] issued one instruction at a time *)
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
    stepped = 0;
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
  fc_named : int array;  (** every register [fc_regs] names, once *)
}

let flag_load = 1
let flag_control = 2

type visits = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
type addresses = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Issue one visit of segment [s]: its slots in order, a memory slot's
   address read from the visit's block of [addrs], which starts at
   [base]. *)
let[@inline] issue_segment t (code : flat_code) s (addrs : addresses) base =
  let regs = code.fc_regs in
  let first = code.fc_seg_first.(s) in
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
  done

(* ---- memoized replay ------------------------------------------------ *)

(* A state's key: slot 0 holds the open packet's issue count and
   branch-ended flag, then come one slot per named register and one per
   unit copy, each the time beyond [now] clamped at 0 (exact, see the
   header: the WAW half of that needs latencies that are not
   negative). *)

(* One (state, segment) pair, stepped once: the state it leads to, what
   a visit adds to the clock, the stalls and the histogram, and how
   many visits took it. *)
type transition = {
  from : int;  (** the id of the state before the visit *)
  seg : int;
  next : int;  (** the id of the state after it *)
  dnow : int;
  dstall : int;
  dhist : int array;
  mutable count : int;
  mutable succ : transition;  (** the transition that followed it last *)
}

let rec no_transition =
  { from = -1; seg = -1; next = -1; dnow = 0; dstall = 0; dhist = [||];
    count = 0; succ = no_transition }

module State_table = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = a = b

  (* every slot: keys often differ only far from the start *)
  let hash (a : t) =
    Array.fold_left (fun h x -> (h * 65599) + x) 0 a land max_int
end)

module Int_table = Hashtbl.Make (Int)

type memo = {
  named : int array;  (** the registers the code names, each once *)
  key : int array;  (** the key being built *)
  scratch : t;  (** where a miss steps its segment, from [now = 0] *)
  ids : int State_table.t;
  mutable states : int array array;  (** by id: the state's key *)
  pairs : transition Int_table.t;  (** by [from * segments + seg] *)
  segments : int;
  last : transition array;  (** by segment: its latest transition *)
  mutable transitions : transition list;
}

(* Intern the state of [x], relative to [x.now]. *)
let state m (x : t) =
  let key = m.key and n = Array.length m.named in
  key.(0) <- (2 * x.issued_this_cycle) + Bool.to_int x.force_cycle_end;
  Array.iteri (fun i r -> key.(1 + i) <- max 0 (x.reg_ready.(r) - x.now)) m.named;
  let k = ref (1 + n) in
  List.iter
    (fun p ->
      Array.iter (fun free -> key.(!k) <- max 0 (free - x.now); incr k) p.free_at)
    x.pools;
  match State_table.find_opt m.ids key with
  | Some id -> id
  | None ->
      let id = State_table.length m.ids in
      if id = Array.length m.states then begin
        let bigger = Array.make (2 * id) [||] in
        Array.blit m.states 0 bigger 0 id;
        m.states <- bigger
      end;
      let key = Array.copy key in
      m.states.(id) <- key;
      State_table.add m.ids key id;
      id

(* Put [x] in state [id], relative to [x.now]. *)
let load m (x : t) id =
  let key = m.states.(id) in
  x.issued_this_cycle <- key.(0) lsr 1;
  x.force_cycle_end <- key.(0) land 1 = 1;
  Array.iteri (fun i r -> x.reg_ready.(r) <- x.now + key.(1 + i)) m.named;
  let k = ref (1 + Array.length m.named) in
  List.iter
    (fun p ->
      for c = 0 to Array.length p.free_at - 1 do
        p.free_at.(c) <- x.now + key.(!k);
        incr k
      done)
    x.pools

(* A memo for replaying [code] into [t], and a transition into [t]'s
   state for the chain to start from. *)
let memo_of t (code : flat_code) =
  let copies = List.fold_left (fun n p -> n + Array.length p.free_at) 0 t.pools in
  let segments = Array.length code.fc_seg_first in
  let m =
    { named = code.fc_named;
      key = Array.make (1 + Array.length code.fc_named + copies) 0;
      scratch = create ~registers:(Array.length t.reg_ready) t.config;
      ids = State_table.create 16;
      states = Array.make 16 [||];
      pairs = Int_table.create 16;
      segments;
      last = Array.make segments no_transition;
      transitions = [];
    }
  in
  (m, { no_transition with next = state m t })

(* The transition for a visit of segment [s] from state [from], when
   the last transition's successor was not it: the segment's latest
   transition, the pair table, or on a miss, [s] stepped through
   [issue_segment] on the scratch model loaded with [from] at
   [now = 0]. *)
let[@inline never] transition m t code s addrs base from =
  let latest = m.last.(s) in
  if latest.from = from then latest
  else begin
    let pair = (from * m.segments) + s in
    let tr =
      match Int_table.find m.pairs pair with
      | tr -> tr
      | exception Not_found ->
          let x = m.scratch in
          x.now <- 0;
          x.stall_cycles <- 0;
          Array.fill x.issue_histogram 0 (Array.length x.issue_histogram) 0;
          load m x from;
          issue_segment x code s addrs base;
          t.stepped <- t.stepped + 1;
          let tr =
            { from; seg = s; next = state m x; dnow = x.now;
              dstall = x.stall_cycles; dhist = Array.copy x.issue_histogram;
              count = 0; succ = no_transition }
          in
          Int_table.add m.pairs pair tr;
          m.transitions <- tr :: m.transitions;
          tr
    in
    m.last.(s) <- tr;
    tr
  end

(* Charge every transition's deltas times its count to [t], then put
   [t] in state [last] at its new [now]. *)
let fold t m (code : flat_code) last =
  let h = t.issue_histogram in
  List.iter
    (fun tr ->
      let n = tr.count in
      t.now <- t.now + (n * tr.dnow);
      t.stall_cycles <- t.stall_cycles + (n * tr.dstall);
      t.instrs <- t.instrs + (n * code.fc_seg_len.(tr.seg));
      Array.iteri (fun k d -> h.(k) <- h.(k) + (n * d)) tr.dhist)
    m.transitions;
  load m t last

(* Time every dynamic instruction of the trace: the segment visits of
   [visits] in order, each segment's slots in order, with a memory
   slot's address taken from the visit's block of [addrs].  With a
   cache every visit goes through [issue_segment].  Without one, [cur]
   walks the chain of transitions: the next one is the successor of the
   last, or else found or made by [transition], and [fold] charges
   their counts at the end. *)
let replay_flat t (code : flat_code) (visits : visits) (addrs : addresses) =
  let memo =
    if t.cache = None && Array.for_all (fun l -> l >= 0) t.config.Config.latencies
    then Some (memo_of t code)
    else None
  in
  let cur = ref (match memo with Some (_, start) -> start | None -> no_transition) in
  let abase = ref 0 in
  for v = 0 to Bigarray.Array1.dim visits - 1 do
    let s = Int32.to_int visits.{v} in
    (match memo with
    | None ->
        issue_segment t code s addrs !abase;
        t.stepped <- t.stepped + 1
    | Some (m, _) ->
        let prev = !cur in
        let tr =
          if prev.succ.seg = s then prev.succ
          else begin
            let tr = transition m t code s addrs !abase prev.next in
            prev.succ <- tr;
            tr
          end
        in
        tr.count <- tr.count + 1;
        cur := tr);
    abase := !abase + code.fc_seg_mem.(s)
  done;
  match memo with Some (m, _) -> fold t m code !cur.next | None -> ()

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
