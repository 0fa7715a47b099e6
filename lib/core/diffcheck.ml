(* Differential oracle over the compilation pipeline.

   Every optimization level of every workload must compute the same
   thing; this module proves it dynamically by executing the program at
   each stage boundary and comparing observable behaviour against the
   unoptimized reference.  Snapshots taken before temp allocation still
   hold virtual registers; the executor runs them as they are, each
   call in its own register frame, so the oracle checks exactly what
   each pass produced.

   What counts as observable depends on how far apart the two programs
   are:

   - Across optimization passes, almost nothing dynamic is invariant:
     home promotion deletes loads and stores, CSE deletes recomputation,
     unrolling re-shapes control flow.  What IS invariant is the
     benchmark checksum protocol: the [__sink] global is explicitly
     excluded from home promotion (Global_alloc), no pass ever deletes
     or reorders a store, and all sink stores hit one address so the DDG
     orders them totally.  The final sink value and the exact sequence
     of values stored to the sink cell are therefore valid
     cross-stage observables ([compare_semantics]).

   - Between a program and its own list-scheduled form the instruction
     sets are identical, so the comparison tightens ([compare_exact]):
     dynamic instruction count, per-class counts, the sequence of values
     stored at every address (scheduling may interleave provably-disjoint
     stores differently but never reorders same-address stores — the DDG
     serialises those), final memory (the lowest differing address,
     found by [Exec.first_difference] over the pages either run touched)
     and final registers.

   Floats compare with a small relative tolerance in the cross-stage
   check: constant folding evaluates at compile time with the same FP
   semantics, but keeping a tolerance makes the oracle robust to
   evaluation-order changes a future pass might legally introduce. *)

open Ilp_ir
open Ilp_machine
open Ilp_sim

exception Mismatch of { stage : string; what : string }

let mismatch stage fmt =
  Printf.ksprintf (fun what -> raise (Mismatch { stage; what })) fmt

type observation = {
  outcome : Exec.outcome;
  sink_stream : Value.t list;  (** values stored to [__sink], in order *)
  stores_by_addr : (int, Value.t list) Hashtbl.t;
      (** per-address sequence of stored values, in store order *)
}

let observe ?options (p : Program.t) : observation =
  (* every MiniMod-compiled program has the reserved sink global;
     hand-built IR fragments may not — then there is no sink stream *)
  let sink_addr =
    match Program.global_address p Ilp_lang.Codegen.sink_name with
    | addr -> addr
    | exception Invalid_argument _ -> -1
  in
  let sink_rev = ref [] in
  let stores : (int, Value.t list) Hashtbl.t = Hashtbl.create 64 in
  let on_store _i addr value =
    if addr = sink_addr then sink_rev := value :: !sink_rev;
    let prev = Option.value ~default:[] (Hashtbl.find_opt stores addr) in
    Hashtbl.replace stores addr (value :: prev)
  in
  let outcome = Exec.run ?options ~on_store p in
  Hashtbl.filter_map_inplace (fun _ vs -> Some (List.rev vs)) stores;
  { outcome; sink_stream = List.rev !sink_rev; stores_by_addr = stores }

(* Relative-tolerance float comparison; exact for ints and for mixed
   tags (a tag change is always a bug). *)
let value_close a b =
  match (a, b) with
  | Value.Int x, Value.Int y -> x = y
  | Value.Float x, Value.Float y ->
      x = y
      || (Float.is_nan x && Float.is_nan y)
      || abs_float (x -. y) <= 1e-9 *. Float.max 1.0 (Float.max (abs_float x) (abs_float y))
  | _ -> false

let check_stream stage what ref_vs got_vs =
  if List.length ref_vs <> List.length got_vs then
    mismatch stage "%s: %d values vs %d in the reference" what
      (List.length got_vs) (List.length ref_vs);
  List.iteri
    (fun k (r, g) ->
      if not (value_close r g) then
        mismatch stage "%s: value #%d is %s, reference has %s" what k
          (Value.to_string g) (Value.to_string r))
    (List.combine ref_vs got_vs)

let compare_semantics ~stage ~(reference : observation) (got : observation) =
  if not (value_close reference.outcome.Exec.sink got.outcome.Exec.sink) then
    mismatch stage "final sink value is %s, reference computed %s"
      (Value.to_string got.outcome.Exec.sink)
      (Value.to_string reference.outcome.Exec.sink);
  check_stream stage "sink store stream" reference.sink_stream got.sink_stream

let compare_exact ~stage ~(reference : observation) (got : observation) =
  compare_semantics ~stage ~reference got;
  if reference.outcome.Exec.dyn_instrs <> got.outcome.Exec.dyn_instrs then
    mismatch stage "executed %d instructions, reference executed %d"
      got.outcome.Exec.dyn_instrs reference.outcome.Exec.dyn_instrs;
  Array.iteri
    (fun idx n ->
      let m = got.outcome.Exec.class_counts.(idx) in
      if n <> m then
        mismatch stage "executed %d %s instructions, reference executed %d" m
          (Iclass.name (Iclass.of_index idx))
          n)
    reference.outcome.Exec.class_counts;
  let check_addr addr ref_vs =
    let got_vs =
      Option.value ~default:[] (Hashtbl.find_opt got.stores_by_addr addr)
    in
    check_stream stage (Printf.sprintf "stores at address %d" addr) ref_vs
      got_vs
  in
  Hashtbl.iter check_addr reference.stores_by_addr;
  Hashtbl.iter
    (fun addr _ ->
      if not (Hashtbl.mem reference.stores_by_addr addr) then
        mismatch stage "stores at address %d that the reference never wrote"
          addr)
    got.stores_by_addr;
  let ref_mem = reference.outcome.Exec.memory
  and got_mem = got.outcome.Exec.memory in
  (match Exec.first_difference ref_mem got_mem with
  | Some addr ->
      mismatch stage "final memory differs at address %d: %s vs %s" addr
        (Value.to_string (Exec.load got_mem addr))
        (Value.to_string (Exec.load ref_mem addr))
  | None -> ());
  let ref_regs = reference.outcome.Exec.regs
  and got_regs = got.outcome.Exec.regs in
  Array.iteri
    (fun r v ->
      if not (Value.equal v got_regs.(r)) then
        mismatch stage "final register r%d differs: %s vs %s" r
          (Value.to_string got_regs.(r))
          (Value.to_string v))
    ref_regs

type granularity = [ `Boundaries | `Every_pass ]

(* The pass names whose outputs are the paper's stage boundaries for
   [level]: post-opt (the last cleanup before register allocation) and
   post-regalloc (temp allocation, the last pre-scheduling pass).
   Post-codegen is the reference itself and post-schedule is handled by
   [compare_exact] against the unscheduled program. *)
let boundary_passes ~level =
  let post_opt =
    if Ilp.at_least level Ilp.O3 then [ "post_global.dce" ]
    else if Ilp.at_least level Ilp.O2 then [ "dce" ]
    else []
  in
  post_opt @ [ "temp_alloc" ]

let check_unscheduled ?unroll ?options ?(granularity = `Boundaries) ~level
    (config : Config.t) source =
  (* The in-pipeline reference is post-codegen of the SAME compilation
     (same unroll): unrolling happens before codegen and — in careful
     mode — legally reassociates FP accumulation, so later passes are
     measured against the program they actually transform.  The unroll
     transform itself is checked separately below, against the
     non-unrolled O0 program, where the float tolerance absorbs the
     reassociation drift. *)
  let wanted =
    match granularity with
    | `Every_pass -> fun _ -> true
    | `Boundaries ->
        let bs = boundary_passes ~level in
        fun name -> List.mem name bs
  in
  let reference = ref None in
  let snapshots = ref [] in
  let on_pass name _stage p =
    if String.equal name "codegen" then reference := Some (observe ?options p)
    else if wanted name then snapshots := (name, p) :: !snapshots
  in
  let unscheduled =
    Ilp.compile_unscheduled ?unroll ~check:true ~on_pass ~level config source
  in
  let reference = Option.get !reference in
  List.iter
    (fun (name, p) ->
      compare_semantics ~stage:name ~reference (observe ?options p))
    (List.rev !snapshots);
  (match unroll with
  | None -> ()
  | Some { Ilp.factor; _ } ->
      let base = Ilp.compile_unscheduled ~level:Ilp.O0 config source in
      compare_semantics
        ~stage:(Printf.sprintf "unroll x%d" factor)
        ~reference:(observe ?options base) reference);
  unscheduled

let check_compile ?unroll ?options ?granularity ?(memdep = false) ~level
    (config : Config.t) source =
  let unscheduled =
    check_unscheduled ?unroll ?options ?granularity ~level config source
  in
  let scheduled = Ilp.schedule ~check:true ~level config unscheduled in
  if not (Ilp.at_least level Ilp.O1) then scheduled
  else begin
    let unscheduled_obs = observe ?options unscheduled in
    let scheduled_obs = observe ?options scheduled in
    compare_exact ~stage:"list_sched" ~reference:unscheduled_obs scheduled_obs;
    if not memdep then scheduled
    else begin
      (* the disambiguated schedule is a distinct permutation: check it
         with the same exactness — per-address store streams catch a
         wrongly-pruned edge between same-address accesses — and return
         it, so a checked memdep compilation measures what it proved *)
      let disambiguated =
        Ilp.schedule ~check:true ~memdep:true ~level config unscheduled
      in
      let disambiguated_obs = observe ?options disambiguated in
      compare_exact ~stage:"list_sched(memdep)" ~reference:unscheduled_obs
        disambiguated_obs;
      disambiguated
    end
  end

let check_workload ?options ?granularity ?memdep ?(levels = Ilp.all_levels)
    ?(unroll_specs = []) (config : Config.t) source =
  List.iter
    (fun level ->
      ignore (check_compile ?options ?granularity ?memdep ~level config source))
    levels;
  List.iter
    (fun unroll ->
      ignore
        (check_compile ~unroll ?options ?granularity ?memdep ~level:Ilp.O4
           config source))
    unroll_specs
