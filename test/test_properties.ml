(* Property-based tests (QCheck).

   The headline property is differential compiler testing: random
   well-formed MiniMod programs must compute the same checksum at every
   optimization level, on every machine, and under unrolling.  Smaller
   properties cover the data structures and the scheduler. *)

open Ilp_ir
open Ilp_machine

let count = 60 (* random programs per differential property *)

let value_key = function
  | Ilp_sim.Value.Int n -> Printf.sprintf "i%d" n
  | Ilp_sim.Value.Float f -> Printf.sprintf "f%.17g" f

let safe_sink ?config ?level ?unroll src =
  try value_key (Helpers.sink_of ?config ?level ?unroll src)
  with e -> Printf.sprintf "EXN:%s" (Printexc.to_string e)

let prop_levels_agree =
  QCheck2.Test.make ~count ~name:"random programs: all opt levels agree"
    ~print:(fun s -> s)
    Gen_minimod.program
    (fun src ->
      let reference = safe_sink ~level:Ilp_core.Ilp.O0 src in
      List.for_all
        (fun level -> String.equal (safe_sink ~level src) reference)
        Ilp_core.Ilp.all_levels)

let prop_machines_agree =
  QCheck2.Test.make ~count ~name:"random programs: machines agree"
    ~print:(fun s -> s)
    Gen_minimod.program
    (fun src ->
      let reference = safe_sink ~config:Presets.base src in
      List.for_all
        (fun config -> String.equal (safe_sink ~config src) reference)
        [ Presets.superscalar 4; Presets.superpipelined 3; Presets.multititan;
          Presets.cray1 (); Presets.superscalar_with_class_conflicts 3 ])

let prop_unrolling_agrees =
  QCheck2.Test.make ~count ~name:"random programs: unrolling agrees"
    ~print:(fun s -> s)
    Gen_minimod.program
    (fun src ->
      let reference = safe_sink src in
      List.for_all
        (fun factor ->
          List.for_all
            (fun mode ->
              String.equal
                (safe_sink
                   ~unroll:{ Ilp_core.Ilp.mode; factor; bounds = false }
                   src)
                reference)
            [ Ilp_lang.Unroll.Naive; Ilp_lang.Unroll.Careful ])
        [ 2; 3; 4 ])

let prop_bound_unrolling_agrees =
  (* the adversarial corpus for the bound-aware unroller: boundary trip
     counts around every checked factor, down-counting and inclusive
     headers, degenerate directions, index self-assignment, unknown
     bounds — identical results for every factor x mode x bound setting,
     including the full-unroll and peeling paths *)
  QCheck2.Test.make ~count:40
    ~name:"unroll-heavy programs: all unroll specs agree"
    ~print:(fun s -> s)
    Gen_minimod.unroll_heavy_program
    (fun src ->
      let reference = safe_sink src in
      List.for_all
        (fun factor ->
          List.for_all
            (fun mode ->
              List.for_all
                (fun bounds ->
                  String.equal
                    (safe_sink
                       ~unroll:{ Ilp_core.Ilp.mode; factor; bounds }
                       src)
                    reference)
                [ false; true ])
            [ Ilp_lang.Unroll.Naive; Ilp_lang.Unroll.Careful ])
        [ 2; 3; 4; 8 ])

let prop_tiny_temp_pools_agree =
  QCheck2.Test.make ~count:30 ~name:"random programs: tiny temp pools agree"
    ~print:(fun s -> s)
    Gen_minimod.program
    (fun src ->
      let reference = safe_sink src in
      List.for_all
        (fun temps ->
          let config = Config.make "tiny" ~temp_regs:temps in
          String.equal (safe_sink ~config src) reference)
        [ 3; 5 ])

(* Replay against direct timing: the reference models time the
   scheduled binary as [Exec] runs it, and trace replay must give the
   same run, field for field. *)
let prop_replay_matches_direct =
  QCheck2.Test.make ~count:40
    ~name:"random programs: trace replay = direct timing"
    ~print:(fun s -> s)
    Gen_minimod.program
    (fun src ->
      let agree ?cache config =
        try
          let level = Ilp_core.Ilp.O4 in
          let pre = Ilp_core.Ilp.compile_unscheduled ~level config src in
          let trace = Ilp_sim.Trace_buffer.capture pre in
          let binary = Ilp_core.Ilp.schedule ~level config pre in
          let replayed =
            Ilp_sim.Metrics.measure_replay
              ?cache:(Option.map Helpers.fresh_cache cache)
              config trace binary
          in
          match
            Helpers.run_difference
              (Helpers.reference_measure ?cache config binary)
              replayed
          with
          | None -> true
          | Some d ->
              QCheck2.Test.fail_reportf "%s: %s" config.Config.name d
        with Ilp_sim.Exec.Fault _ -> true
      in
      agree Presets.base
      && agree (Presets.superscalar 4)
      && agree (Presets.superpipelined 3)
      && agree (Presets.superscalar_with_class_conflicts 3)
      && agree
           ~cache:{ Timing_ref.lines = 16; line_words = 4; penalty = 8 }
           (Presets.cray1 ()))

(* The sweep engine against direct timing: random programs on a random
   choice of cells must give, cell for cell, exactly the run the
   reference models give for the cell's compiled binary.  The cells
   cover a cache, unit pools, branch-ended packets, memory
   disambiguation, and two machines that differ only in name (which
   the engine replays once). *)
let sweep_cells =
  let cache =
    { Ilp_core.Experiments.lines = 16; line_words = 4; penalty = 7 }
  in
  [| (Presets.base, None, false);
     (Presets.superscalar 4, None, false);
     ({ (Presets.superscalar 4) with Config.name = "superscalar-4-twin" },
      None, false);
     (Presets.superpipelined 3, None, false);
     (Presets.superpipelined 3, None, true);
     (Presets.superscalar_with_class_conflicts 3, None, false);
     (Presets.underpipelined, None, false);
     ( Config.make "superscalar-2-branch-ends" ~issue_width:2
         ~branch_ends_packet:true,
       None, false );
     (Presets.superscalar 2, None, false);
     (Presets.superscalar 2, Some cache, false) |]

let prop_sweep_matches_direct =
  QCheck2.Test.make ~count:60
    ~name:"random programs: run_sweep = direct measure per cell"
    ~print:QCheck2.Print.(pair (fun s -> s) (list int))
    QCheck2.Gen.(
      pair Gen_minimod.program
        (list_size (int_range 1 8)
           (int_bound (Array.length sweep_cells - 1))))
    (fun (src, picks) ->
      let w = Ilp_workloads.Workload.make ~description:"random" "random" src in
      let cells = Array.of_list (List.map (Array.get sweep_cells) picks) in
      match
        Array.map
          (fun (config, cache, memdep) ->
            let cache =
              Option.map
                (fun (g : Ilp_core.Experiments.cache_geometry) ->
                  { Timing_ref.lines = g.lines; line_words = g.line_words;
                    penalty = g.penalty })
                cache
            in
            Helpers.reference_measure ?cache config
              (Ilp_core.Ilp.compile ~memdep ~level:Ilp_core.Ilp.O4 config src))
          cells
      with
      | exception Ilp_sim.Exec.Fault _ -> true
      | direct ->
          let swept =
            Ilp_core.Experiments.with_jobs 2 (fun () ->
                Ilp_core.Experiments.run_sweep
                  (Array.map
                     (fun (config, cache, memdep) ->
                       Ilp_core.Experiments.request ~memdep ?cache w config)
                     cells))
          in
          Array.for_all2
            (fun (d : Ilp_sim.Metrics.run) (s : Ilp_sim.Metrics.run) ->
              match Helpers.run_difference d s with
              | None -> true
              | Some diff ->
                  QCheck2.Test.fail_reportf "cell %s: %s" d.machine diff)
            direct swept)

(* --- scheduler properties over random straight-line blocks --------------- *)

let gen_block : Instr.t list QCheck2.Gen.t =
  let open QCheck2.Gen in
  let reg = map (fun i -> Reg.phys (4 + i)) (int_range 0 11) in
  let gen_instr =
    let* shape = int_range 0 5 in
    match shape with
    | 0 ->
        let* d = reg and* n = int_range 0 99 in
        return (Builder.li d n)
    | 1 | 2 ->
        let* d = reg and* a = reg and* b = reg in
        let* op = oneofl [ Opcode.Add; Opcode.Sub; Opcode.Mul; Opcode.And; Opcode.Xor ] in
        return (Instr.make op ~dst:d ~srcs:[ Instr.Oreg a; Instr.Oreg b ])
    | 3 ->
        let* d = reg and* a = reg and* n = int_range 0 7 in
        return (Instr.make Opcode.Add ~dst:d ~srcs:[ Instr.Oreg a; Instr.Oimm n ])
    | 4 ->
        let* d = reg and* off = int_range (-16) (-1) in
        return
          (Builder.ld d ~base:Reg.sp ~offset:off
             |> fun i ->
             Instr.with_mem i
               (Mem_info.make (Mem_info.Stack_slot ("main", off))
                  (Mem_info.Const off)))
    | _ ->
        let* v = reg and* off = int_range (-16) (-1) in
        return
          (Builder.st ~value:v ~base:Reg.sp ~offset:off ()
             |> fun i ->
             Instr.with_mem i
               (Mem_info.make (Mem_info.Stack_slot ("main", off))
                  (Mem_info.Const off)))
  in
  let* n = int_range 1 25 in
  list_repeat n gen_instr

let exec_block instrs =
  let r = Reg.phys in
  (* initialize the registers the block may read, then run and hash the
     register file and touched memory *)
  let inits = List.init 12 (fun k -> Builder.li (r (4 + k)) (k * 7 + 1)) in
  let p = Builder.program_of_instrs (inits @ instrs) in
  let outcome = Ilp_sim.Exec.run p in
  let regs =
    Array.to_list (Array.sub outcome.Ilp_sim.Exec.regs 0 32)
    |> List.map Ilp_sim.Value.to_string
  in
  let mem_top = 1 lsl 20 in
  let touched =
    List.init 16 (fun k ->
        Ilp_sim.Value.to_string
          (Ilp_sim.Exec.load outcome.Ilp_sim.Exec.memory (mem_top - 8 + k - 16)))
  in
  String.concat "," (regs @ touched)

let prop_scheduling_preserves_semantics =
  QCheck2.Test.make ~count:200
    ~name:"list scheduling preserves straight-line semantics"
    ~print:(fun instrs ->
      String.concat "\n" (List.map Instr.to_string instrs))
    gen_block
    (fun instrs ->
      let config = Presets.superscalar 4 in
      let b = Block.make (Label.of_string "b") instrs in
      let scheduled = Ilp_sched.List_sched.schedule_block config b in
      String.equal (exec_block instrs)
        (exec_block scheduled.Block.instrs))

let prop_scheduling_is_permutation =
  QCheck2.Test.make ~count:200 ~name:"list scheduling emits a permutation"
    gen_block
    (fun instrs ->
      let b = Block.make (Label.of_string "b") instrs in
      let scheduled =
        Ilp_sched.List_sched.schedule_block (Presets.cray1 ()) b
      in
      let ids l = List.sort compare (List.map (fun i -> i.Instr.id) l) in
      ids instrs = ids scheduled.Block.instrs)

let prop_available_parallelism_bounds =
  QCheck2.Test.make ~count:200 ~name:"available parallelism within bounds"
    gen_block
    (fun instrs ->
      let p = Ilp_sched.Ddg.available_parallelism instrs in
      let n = float_of_int (List.length instrs) in
      p >= 1.0 /. n && p <= n +. 1e-9)

(* --- dataflow-framework properties ---------------------------------------- *)

(* The hand-rolled postorder liveness solver that predates the generic
   dataflow framework, preserved verbatim as the reference the framework
   instance (Ilp_analysis.Liveness) is pinned to, block for block. *)
module Reference_liveness = struct
  open Ilp_analysis

  let compute (cfg : Cfg_info.t) =
    let n = Cfg_info.n_blocks cfg in
    let use = Array.make n Reg.Set.empty in
    let def = Array.make n Reg.Set.empty in
    Array.iteri
      (fun i b ->
        let u, d = Liveness.block_use_def b in
        use.(i) <- u;
        def.(i) <- d)
      cfg.Cfg_info.blocks;
    let live_in = Array.make n Reg.Set.empty in
    let live_out = Array.make n Reg.Set.empty in
    let changed = ref true in
    while !changed do
      changed := false;
      (* iterate in postorder (reverse of rpo) for fast convergence *)
      for k = Array.length cfg.Cfg_info.rpo - 1 downto 0 do
        let b = cfg.Cfg_info.rpo.(k) in
        let out =
          List.fold_left
            (fun acc s -> Reg.Set.union acc live_in.(s))
            Reg.Set.empty cfg.Cfg_info.succs.(b)
        in
        let inn = Reg.Set.union use.(b) (Reg.Set.diff out def.(b)) in
        if
          not
            (Reg.Set.equal out live_out.(b) && Reg.Set.equal inn live_in.(b))
        then begin
          live_out.(b) <- out;
          live_in.(b) <- inn;
          changed := true
        end
      done
    done;
    (live_in, live_out)
end

let prop_framework_liveness_matches_reference =
  QCheck2.Test.make ~count:200
    ~name:"framework liveness = hand-rolled reference, block for block"
    ~print:(fun s -> s)
    Gen_minimod.program
    (fun src ->
      let p =
        Ilp_lang.Codegen.gen_program (Ilp_lang.Semant.compile_source src)
      in
      List.for_all
        (fun (f : Func.t) ->
          let cfg = Ilp_analysis.Cfg_info.build f in
          let live = Ilp_analysis.Liveness.compute cfg in
          let ref_in, ref_out = Reference_liveness.compute cfg in
          let n = Ilp_analysis.Cfg_info.n_blocks cfg in
          List.for_all
            (fun bi ->
              Reg.Set.equal live.Ilp_analysis.Liveness.live_in.(bi) ref_in.(bi)
              && Reg.Set.equal
                   live.Ilp_analysis.Liveness.live_out.(bi)
                   ref_out.(bi))
            (List.init n Fun.id))
        p.Program.functions)

(* --- structure properties ------------------------------------------------- *)

let gen_region : Mem_info.region QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* shape = int_range 0 6 in
  let* name = oneofl [ "a"; "b" ] in
  let* k = int_range 0 3 in
  match shape with
  | 0 -> return (Mem_info.Global name)
  | 1 -> return (Mem_info.Global_array name)
  | 2 -> return (Mem_info.Global_array_view (name, if k < 2 then "v1" else "v2"))
  | 3 -> return (Mem_info.Stack_slot (name, k))
  | 4 -> return (Mem_info.Stack_array (name, k))
  | 5 -> return (Mem_info.Arg_slot (name, k))
  | _ -> return Mem_info.Unknown

let prop_region_disjoint_symmetric =
  QCheck2.Test.make ~count:500 ~name:"region disjointness is symmetric"
    QCheck2.Gen.(pair gen_region gen_region)
    (fun (r1, r2) ->
      Mem_info.regions_disjoint r1 r2 = Mem_info.regions_disjoint r2 r1)

let prop_region_not_self_disjoint =
  QCheck2.Test.make ~count:200 ~name:"no region is disjoint from itself"
    gen_region
    (fun r -> not (Mem_info.regions_disjoint r r))

let prop_means =
  QCheck2.Test.make ~count:300
    ~name:"harmonic <= geometric <= arithmetic mean"
    QCheck2.Gen.(list_size (int_range 1 10) (float_range 0.1 10.0))
    (fun xs ->
      let h = Ilp_sim.Metrics.harmonic_mean xs in
      let g = Ilp_sim.Metrics.geometric_mean xs in
      let a = Ilp_sim.Metrics.arithmetic_mean xs in
      h <= g +. 1e-9 && g <= a +. 1e-9)

let prop_cache_miss_rate_bounds =
  QCheck2.Test.make ~count:200 ~name:"cache miss rate in [0,1]"
    QCheck2.Gen.(list_size (int_range 1 100) (int_range 0 4096))
    (fun addrs ->
      let cache = Ilp_sim.Cache.create ~lines:16 ~line_words:4 ~penalty:5 () in
      List.iter (fun a -> ignore (Ilp_sim.Cache.access cache a)) addrs;
      let r = Ilp_sim.Cache.miss_rate cache in
      r >= 0.0 && r <= 1.0
      && Ilp_sim.Cache.accesses cache = List.length addrs)

let prop_repeated_access_hits =
  QCheck2.Test.make ~count:200 ~name:"immediate re-access always hits"
    QCheck2.Gen.(int_range 0 100000)
    (fun addr ->
      let cache = Ilp_sim.Cache.create ~lines:16 ~line_words:4 ~penalty:5 () in
      ignore (Ilp_sim.Cache.access cache addr);
      Ilp_sim.Cache.access cache addr)

let tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_levels_agree; prop_machines_agree; prop_unrolling_agrees;
      prop_bound_unrolling_agrees;
      prop_tiny_temp_pools_agree; prop_replay_matches_direct;
      prop_scheduling_preserves_semantics;
      prop_scheduling_is_permutation; prop_available_parallelism_bounds;
      prop_framework_liveness_matches_reference;
      prop_region_disjoint_symmetric; prop_region_not_self_disjoint;
      prop_means; prop_cache_miss_rate_bounds; prop_repeated_access_hits;
      prop_sweep_matches_direct ]
