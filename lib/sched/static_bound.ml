(* Static per-loop ILP bounds: machine-level lower bounds on the minor
   cycles each innermost-loop iteration must take, derived only from
   constraints the in-order timing model actually enforces.

   Recurrence bound.  Pick a register [r] with exactly one definition
   [d] in the loop body, in a block that dominates every latch (so it
   executes once per completed iteration), with no calls anywhere in
   the body (a callee could redefine [r] mid-iteration).  A use of [r]
   at or before [d]'s position in the straightened dominating-block
   sequence reads the value [d] produced in the {e previous} iteration;
   if that use feeds [d] again through same-iteration register RAW
   links, the timing model's issue rule

     issue(consumer) >= issue(producer) + latency(producer)

   closes a cycle of distance one iteration whose total latency is a
   per-iteration floor, independent of schedule, issue width or
   functional units.  The straightening is sound because dominating
   blocks of an innermost loop execute exactly once per completed
   iteration, in dominance (= reverse-postorder) order; RAW links are
   only followed for registers whose every body definition lies in the
   straightened sequence, so interleaved non-dominating blocks cannot
   inject an unseen write.

   Resource bound.  At most [issue_width] instructions issue per minor
   cycle, and a functional unit copy accepts one instruction per issue
   latency; the instructions of the dominating blocks alone therefore
   force [n / width] and [n_c / capacity_c] cycles per iteration.

   The whole-run floor combines the global resource bound over the
   dynamic stream with the per-loop recurrence bounds scaled by
   measured back-edge traversals: within one loop entry, [k] traversals
   chain [k-1] recurrence delays, and distinct innermost-loop regions
   of the dynamic stream never overlap under in-order issue, so the
   contributions add. *)

open Ilp_ir
open Ilp_machine

type loop_bound = {
  sb_func : string;
  sb_header : string;
  sb_blocks : int;
  sb_iter_instrs : int;
  sb_body_instrs : int;
  sb_recurrence : int;
  sb_resource : float;
  sb_ilp_ceiling : float;
  sb_header_first : int;
  sb_latch_lasts : int list;
}

type t = { bounds : loop_bound list }

module IntSet = Set.Make (Int)

let lat config (i : Instr.t) = Config.latency config (Instr.iclass i)

(* Unit capacity for one class, in instructions per minor cycle, and
   total copy count; [None] when the class is unconstrained. *)
let class_capacity config c =
  match Config.units_for config c with
  | [] -> None
  | units ->
      let cap =
        List.fold_left
          (fun acc (u : Config.unit_spec) ->
            acc
            +. float_of_int u.Config.multiplicity
               /. float_of_int u.Config.issue_latency)
          0.0 units
      in
      let copies =
        List.fold_left
          (fun acc (u : Config.unit_spec) -> acc + u.Config.multiplicity)
          0 units
      in
      Some (cap, copies)

(* Cycles per iteration the [instrs] need from issue width and unit
   capacity alone. *)
let resource_per_iter config (instrs : Instr.t list) =
  let n = List.length instrs in
  let width_bound =
    float_of_int n /. float_of_int config.Config.issue_width
  in
  let counts = Array.make Iclass.count 0 in
  List.iter
    (fun i ->
      let k = Iclass.to_index (Instr.iclass i) in
      counts.(k) <- counts.(k) + 1)
    instrs;
  let unit_bound = ref 0.0 in
  Array.iteri
    (fun k n_c ->
      if n_c > 0 then
        match class_capacity config (Iclass.of_index k) with
        | Some (cap, _) ->
            unit_bound := Float.max !unit_bound (float_of_int n_c /. cap)
        | None -> ())
    counts;
  Float.max width_bound !unit_bound

(* The longest register-carried recurrence of one straightened
   iteration: [chain] is the latch-dominating instruction sequence in
   execution order, [body_defs r] counts definitions of [r] over the
   whole loop body. *)
let recurrence config (chain : Instr.t array) body_defs =
  let n = Array.length chain in
  (* positions of every in-chain definition, per register *)
  let def_pos = Hashtbl.create 32 in
  Array.iteri
    (fun p i ->
      List.iter
        (fun r -> Hashtbl.replace def_pos (Reg.index r) p)
        (Instr.defs i))
    chain;
  (* a register is chain-tracked when all its body definitions are in
     the chain — its RAW links cannot be broken by a non-dominating
     block executing in between *)
  let chain_def_counts = Hashtbl.create 32 in
  Array.iter
    (fun i ->
      List.iter
        (fun r ->
          let k = Reg.index r in
          Hashtbl.replace chain_def_counts k
            (1 + Option.value (Hashtbl.find_opt chain_def_counts k) ~default:0))
        (Instr.defs i))
    chain;
  let tracked r =
    Option.value (Hashtbl.find_opt chain_def_counts r) ~default:0
    = body_defs r
  in
  let best = ref 0 in
  (* candidate recurrence registers: unique body definition, in-chain *)
  Hashtbl.iter
    (fun r p_d ->
      if body_defs r = 1 && tracked r then begin
        let d = chain.(p_d) in
        (* dp.(j): longest latency sum from a previous-iteration use of
           [r] to position [j], following same-iteration RAW links of
           chain-tracked registers; edge weight = producer latency *)
        let dp = Array.make n min_int in
        let last_def = Hashtbl.create 32 in
        for j = 0 to n - 1 do
          let i = chain.(j) in
          (* previous-iteration use of [r]: at or before its unique
             definition *)
          if
            j <= p_d
            && List.exists (fun u -> Reg.index u = r) (Instr.uses i)
          then dp.(j) <- max dp.(j) 0;
          List.iter
            (fun u ->
              let k = Reg.index u in
              if k <> r && tracked k then
                match Hashtbl.find_opt last_def k with
                | Some p when dp.(p) > min_int ->
                    dp.(j) <- max dp.(j) (dp.(p) + lat config chain.(p))
                | _ -> ())
            (Instr.uses i);
          List.iter
            (fun dr -> Hashtbl.replace last_def (Reg.index dr) j)
            (Instr.defs i)
        done;
        if dp.(p_d) > min_int then
          best := max !best (dp.(p_d) + lat config d)
      end)
    def_pos;
  !best

let analyze_func config (f : Func.t) acc =
  let cfg = Ilp_analysis.Cfg_info.build f in
  let doms = Ilp_analysis.Dominators.compute cfg in
  let loops = Ilp_analysis.Loops.compute cfg in
  let blocks = cfg.Ilp_analysis.Cfg_info.blocks in
  let all = loops.Ilp_analysis.Loops.loops in
  List.fold_left
    (fun acc (l : Ilp_analysis.Loops.loop) ->
      let body = IntSet.of_list l.Ilp_analysis.Loops.body in
      let innermost =
        List.for_all
          (fun (l' : Ilp_analysis.Loops.loop) ->
            l'.Ilp_analysis.Loops.header = l.Ilp_analysis.Loops.header
            || not (IntSet.mem l'.Ilp_analysis.Loops.header body))
          all
      in
      if not innermost then acc
      else begin
        let latches =
          List.filter
            (fun b ->
              List.mem l.Ilp_analysis.Loops.header cfg.Ilp_analysis.Cfg_info.succs.(b))
            l.Ilp_analysis.Loops.body
        in
        let dominating =
          List.filter
            (fun b ->
              List.for_all
                (fun latch -> Ilp_analysis.Dominators.dominates doms b latch)
                latches)
            l.Ilp_analysis.Loops.body
          |> List.sort (fun a b ->
                 compare
                   doms.Ilp_analysis.Dominators.rpo_number.(a)
                   doms.Ilp_analysis.Dominators.rpo_number.(b))
        in
        let chain =
          Array.of_list
            (List.concat_map
               (fun b -> blocks.(b).Block.instrs)
               dominating)
        in
        let body_instrs =
          List.concat_map
            (fun b -> blocks.(b).Block.instrs)
            l.Ilp_analysis.Loops.body
        in
        let has_call = List.exists Instr.is_call body_instrs in
        let body_defs =
          let t = Hashtbl.create 64 in
          List.iter
            (fun i ->
              List.iter
                (fun r ->
                  let k = Reg.index r in
                  Hashtbl.replace t k
                    (1 + Option.value (Hashtbl.find_opt t k) ~default:0))
                (Instr.defs i))
            body_instrs;
          fun r -> Option.value (Hashtbl.find_opt t r) ~default:0
        in
        let recur =
          if has_call || latches = [] then 0
          else recurrence config chain body_defs
        in
        let resource = resource_per_iter config (Array.to_list chain) in
        let per_iter = Float.max (float_of_int recur) resource in
        let n_body = List.length body_instrs in
        let ceiling =
          if per_iter <= 0.0 then infinity
          else
            float_of_int (n_body * config.Config.pipe_degree) /. per_iter
        in
        let header_block = blocks.(l.Ilp_analysis.Loops.header) in
        match header_block.Block.instrs with
        | [] -> acc
        | first :: _ ->
            let latch_lasts =
              List.filter_map
                (fun b ->
                  match List.rev blocks.(b).Block.instrs with
                  | last :: _ -> Some last.Instr.id
                  | [] -> None)
                latches
            in
            { sb_func = f.Func.name;
              sb_header = Label.to_string header_block.Block.label;
              sb_blocks = List.length l.Ilp_analysis.Loops.body;
              sb_iter_instrs = Array.length chain;
              sb_body_instrs = n_body;
              sb_recurrence = recur;
              sb_resource = resource;
              sb_ilp_ceiling = ceiling;
              sb_header_first = first.Instr.id;
              sb_latch_lasts = latch_lasts;
            }
            :: acc
      end)
    acc all

let analyze config (p : Program.t) =
  let bounds =
    List.fold_left
      (fun acc f -> analyze_func config f acc)
      [] p.Program.functions
  in
  { bounds = List.rev bounds }

(* ---- dynamic iteration counts ------------------------------------- *)

type counts = { traversals : int; entries : int }

(* ---- whole-run cycle floor ----------------------------------------- *)

let resource_floor config ~dyn_instrs ~class_counts =
  let width = config.Config.issue_width in
  let floor = ref ((dyn_instrs + width - 1) / width) in
  Array.iteri
    (fun k n_c ->
      if n_c > 0 then
        match class_capacity config (Iclass.of_index k) with
        | Some (cap, copies) ->
            (* each of the [copies] unit copies may fire once at cycle
               zero before its issue latency gates it *)
            let need =
              int_of_float (ceil (float_of_int (n_c - copies) /. cap))
            in
            floor := max !floor need
        | None -> ())
    class_counts;
  max !floor 0

let recurrence_cycles t counts =
  List.fold_left2
    (fun acc (b : loop_bound) c ->
      if b.sb_recurrence = 0 then acc
      else
        let chains = max 0 (c.traversals - c.entries) in
        acc + (chains * b.sb_recurrence))
    0 t.bounds counts

let cycles_lb config t counts ~dyn_instrs ~class_counts =
  max
    (resource_floor config ~dyn_instrs ~class_counts)
    (recurrence_cycles t counts)
