(* The repository benchmark.  NOTES.md says why each workload and metric
   exists and which layer metric should move which end-to-end metric.

     sh perfbench/run.sh --workload sweep|compile|verify --seed N \
       --seconds S --trace 0|1

   [--trace 0] measures the end-to-end metrics with no tracing, as time
   relative to a reference loop timed between units of work, so that the
   host's drifting speed cancels; the report line gives the same figures
   in host seconds.  [--trace 1] alternates untraced and traced units of
   the same work and reports the per-layer metrics and the tracing
   overhead.  Every run
   checks the outputs it produced.  The last line of standard output is
   the result object, the line before it the full report; the exit code
   is 1 when any check failed. *)

open Ilp_machine
module Ilp = Ilp_core.Ilp
module Experiments = Ilp_core.Experiments
module Fuzz = Ilp_core.Fuzz
module Diffcheck = Ilp_core.Diffcheck
module W = Ilp_workloads.Workload
module Registry = Ilp_workloads.Registry
module Metrics = Ilp_sim.Metrics
module Trace_buffer = Ilp_sim.Trace_buffer
module Value = Ilp_sim.Value
module Pool = Ilp_par.Pool
module Gen_prog = Ilp_lang.Gen_prog

(* CPU time the process spent before the benchmark's own code ran:
   loading, runtime start-up and the libraries' initialisation.  It is
   part of every set-up. *)
let startup_s =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let now = Span.now

(* ------------------------------------------------------------------ *)
(* arguments and host                                                  *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  revision : string;
}

let usage () =
  prerr_endline
    "usage: main.exe --workload sweep|compile|verify --seed N --seconds S \
     --trace 0|1 [--revision REV]";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None and revision = ref "none" in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := Some (int_of_string v); go rest
    | "--seconds" :: v :: rest -> seconds := Some (float_of_string v); go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | "--revision" :: v :: rest -> revision := v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match (!workload, !seed, !seconds, !trace) with
  | ("sweep" | "compile" | "verify"), Some seed, Some seconds, Some trace
    when seconds > 0.0 ->
      { workload = !workload; seed; seconds; trace; revision = !revision }
  | _ -> usage ()

let host_cores = Domain.recommended_domain_count ()

(* Parallel workloads use two domains, or one on a single-core host, so
   that figures from hosts with more cores stay comparable. *)
let jobs = max 1 (min 2 host_cores)

(* A digest of the library sources, identifying the code measured when
   the checkout carries no git metadata. *)
let source_digest () =
  let rec files dir =
    List.concat_map
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then files p else [ p ])
      (List.sort compare (Array.to_list (Sys.readdir dir)))
  in
  match files "lib" with
  | fs ->
      String.sub
        (Digest.to_hex
           (Digest.string (String.concat "" (List.map (fun p -> p ^ Digest.file p) fs))))
        0 12
  | exception Sys_error _ -> "none"

(* The process's peak resident set, [VmHWM]. *)
let peak_rss_mb () =
  let rec scan ic =
    match In_channel.input_line ic with
    | None -> failwith "no VmHWM in /proc/self/status"
    | Some line -> (
        match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
        | kb -> float_of_int kb /. 1024.0
        | exception (Scanf.Scan_failure _ | End_of_file) -> scan ic)
  in
  In_channel.with_open_text "/proc/self/status" scan

(* ------------------------------------------------------------------ *)
(* statistics, checks                                                  *)

(* Linear interpolation between closest ranks. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let ratio a b = if b = 0.0 then 0.0 else a /. b
let attempted = Atomic.make 0
let failed = Atomic.make 0

let failure fmt =
  Printf.ksprintf
    (fun msg ->
      Atomic.incr failed;
      prerr_endline ("perfbench: FAILED " ^ msg))
    fmt

(* A workload's checksum against its registry value; floats within the
   registry's stated relative tolerance. *)
let sink_ok (w : W.t) (v : Value.t) =
  match (w.W.expected_sink, v) with
  | None, _ -> true
  | Some (W.Exp_int e), Value.Int g -> e = g
  | Some (W.Exp_float e), Value.Float g ->
      Float.abs (g -. e) <= 1e-6 *. Float.max 1.0 (Float.abs e)
  | Some _, _ -> false

let sink_string = function
  | Value.Int i -> string_of_int i
  | Value.Float f -> Printf.sprintf "%.17g" f

(* Set-up is repeated and its median reported.  [prepare k] does what
   the workload does before its first timed operation and passes the
   result to [k]; the last repetition goes on to [run setup_s state]. *)
let setup_reps = 11

let measured_setup prepare run =
  let once k =
    let t0 = now () in
    prepare (fun state -> k (now () -. t0) state)
  in
  let samples =
    List.init (setup_reps - 1) (fun _ ->
        let dt = ref 0.0 in
        once (fun d _ -> dt := d);
        !dt)
  in
  let result = ref None in
  once (fun dt state ->
      result := Some (run (startup_s +. median (dt :: samples)) state));
  Option.get !result

(* ------------------------------------------------------------------ *)
(* host speed                                                           *)

(* A random cyclic permutation of 4M slots (32 MB), outside the OCaml
   heap so that the collector never scans it.  Following it is one cache
   miss after another: the part of the host's speed that the caches and
   memory shared with other tenants set. *)
let chase_table =
  lazy
    (let n = 1 lsl 22 in
     let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
     for i = 0 to n - 1 do
       a.{i} <- i
     done;
     (* Sattolo's shuffle: one cycle through every slot. *)
     let st = Random.State.make [| 42 |] in
     for i = n - 1 downto 1 do
       let j = Random.State.int st i in
       let t = a.{i} in
       a.{i} <- a.{j};
       a.{j} <- t
     done;
     a)

(* The reference loop: a fixed amount of work made only of the OCaml
   standard library.  Small maps, hash tables, sorting and strings, kept
   short-lived so that they stay in the minor heap and do not depend on
   how much the workload keeps alive, then 200k steps along
   [chase_table].  Its time follows the host's speed and nothing in the
   repository's code.  The memory-bound part matters: without it the
   loop slowed far less than the workloads did in the host's slow
   spells (NOTES.md). *)
let reference_loop () =
  let module M = Map.Make (Int) in
  let acc = ref 0 in
  for r = 1 to 40 do
    let m = ref M.empty in
    for i = 0 to 999 do
      m := M.add (((i * 7919) + r) land 4095) i !m
    done;
    let h = Hashtbl.create 64 in
    List.iter
      (fun x -> Hashtbl.replace h (x land 511) x)
      (List.sort compare (List.init 2000 (fun i -> ((i * 48271) + r) land 65535)));
    let b = Buffer.create 64 in
    for i = 0 to 199 do
      Buffer.add_string b (string_of_int (i + r))
    done;
    acc := !acc + M.cardinal !m + Hashtbl.length h + Buffer.length b
  done;
  let a = Lazy.force chase_table in
  let p = ref 0 in
  for _ = 1 to 200_000 do
    p := a.{!p}
  done;
  !acc + !p

let reference_reps = 8

(* One calibration: [reference_reps] executions of the reference loop on
   each of [domains] domains at once, the way the workload occupies the
   host, and the median execution time.  The table is built here, on one
   domain, before any other domain forces it. *)
let calibrate domains =
  ignore (Lazy.force chase_table);
  let run () =
    List.init reference_reps (fun _ ->
        let t0 = now () in
        ignore (Sys.opaque_identity (reference_loop ()));
        now () -. t0)
  in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn run) in
  let mine = run () in
  median (mine @ List.concat_map Domain.join others)

type 'a timed_unit = { wall : float; ref_s : float; result : 'a }

(* Run [unit ()], which returns its wall time and result, until
   [seconds] have passed, at least once.  The heap is compacted before
   each unit and the reference loop calibrated on [domains] domains
   before the first unit and after each; a unit's [ref_s] is the mean of
   the calibrations on either side of it, so that dividing by it cancels
   the host's speed at the time the unit ran. *)
let timed_units ~domains ~seconds unit =
  let t_start = now () in
  let rec loop before acc =
    if acc <> [] && now () -. t_start >= seconds then List.rev acc
    else begin
      Gc.compact ();
      let wall, result = unit () in
      let after = calibrate domains in
      loop after ({ wall; ref_s = (before +. after) /. 2.0; result } :: acc)
    end
  in
  loop (calibrate domains) []

(* The contract's figures from a list of units: throughput as the
   median over units of [work u] per reference-loop time, and the median
   and p90 of the item latencies [latencies u], each already divided by
   its unit's [ref_s].  The same figures in host seconds go to the
   report under the workload's own [names]. *)
let unit_figures ~names:(rate_name, p50_name, p90_name) ~work ~latencies
    ~raw_latencies units =
  let rate per = median (List.map (fun u -> work u /. per u) units) in
  let norm = List.concat_map latencies units in
  let raw = List.concat_map raw_latencies units in
  ( [ (rate_name, "1/s", rate (fun u -> u.wall));
      (p50_name, "ms", 1000.0 *. median raw);
      (p90_name, "ms", 1000.0 *. quantile 0.9 raw);
      ("ref_ms", "ms", 1000.0 *. median (List.map (fun u -> u.ref_s) units)) ],
    [ ("work_per_ref", "1/ref", rate (fun u -> u.wall /. u.ref_s));
      ("latency_p50_ref", "ref", median norm);
      ("latency_p90_ref", "ref", quantile 0.9 norm) ] )

(* ------------------------------------------------------------------ *)
(* traced calls                                                         *)

let opt_passes =
  [ "const_fold"; "local_cse"; "dce"; "licm"; "global_cse";
    "post_global.const_fold"; "post_global.local_cse"; "post_global.dce";
    "post_alloc.const_fold"; "post_alloc.local_cse"; "post_alloc.dce";
    "coalesce" ]

let pass_span = function
  | "codegen" -> "lang.codegen"
  | ("global_alloc" | "temp_alloc") as p -> "regalloc." ^ p
  | "list_sched" -> "sched.schedule"
  | p -> "opt." ^ p

let traced_frontend ~parent ~item source =
  ignore (Span.time ~parent ~item "lang.frontend" (fun _ -> Ilp.frontend source))

(* Run [f on_pass], turning the gaps between consecutive [on_pass]
   callbacks into spans under [parent]: the gap up to "codegen" covers
   parsing, type checking, unrolling and code generation, each later gap
   the pass that just ended.  Counts the instructions the last pass
   before temp allocation left. *)
let with_pass_spans ~parent ~item f =
  let last = ref (now ()) and prev = ref None and before_temp = ref None in
  let on_pass name _stage p =
    Span.add ~parent ~item (pass_span name) !last (now ());
    if String.equal name "temp_alloc" then before_temp := !prev;
    prev := Some p;
    last := now ()
  in
  let result = f on_pass in
  Option.iter
    (fun p -> Span.count "opt.instrs_out" (Ilp_ir.Program.instr_count p))
    !before_temp;
  result

let traced_unscheduled ~parent ~item ?unroll ~level config source =
  Span.time ~parent ~item "compile_unscheduled" (fun id ->
      with_pass_spans ~parent:id ~item (fun on_pass ->
          Ilp.compile_unscheduled ?unroll ~on_pass ~level config source))

(* Code generation time: each codegen gap minus the front-end time
   measured separately on the same item's source. *)
let codegen_s spans =
  let frontend = Hashtbl.create 64 in
  List.iter
    (fun (s : Span.t) ->
      if String.equal s.name "lang.frontend" then
        let sum, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt frontend s.item) in
        Hashtbl.replace frontend s.item (sum +. Span.duration s, n + 1))
    spans;
  List.fold_left
    (fun acc (s : Span.t) ->
      if String.equal s.name "lang.codegen" then
        let fe =
          match Hashtbl.find_opt frontend s.item with
          | Some (sum, n) -> sum /. float_of_int n
          | None -> 0.0
        in
        acc +. Span.duration s -. fe
      else acc)
    0.0 spans

(* The per-layer metrics of one traced unit of work that started at
   [start] and took [wall] seconds on [domains] domains. *)
let layer_metrics ~domains ~start ~wall (spans, count) =
  let s name = Span.total name spans in
  let ms name = 1000.0 *. s name in
  let c name = float_of_int (count name) in
  let capture_s = s "sim.capture" in
  let ss_s = s "sim.replay.ss" and sp_s = s "sim.replay.sp" in
  let task_ends =
    List.rev
      (List.sort compare
         (List.filter_map
            (fun (t : Span.t) ->
              if String.equal t.name "par.task" then Some t.stop else None)
            spans))
  in
  let tail =
    match task_ends with
    | _ :: second :: _ -> start +. wall -. second
    | _ -> wall
  in
  [ ("lang.frontend_ms", "ms", ms "lang.frontend");
    ("lang.codegen_ms", "ms", 1000.0 *. codegen_s spans);
    ("lang.absint_ms", "ms", ms "lang.absint");
    ("lang.gen_ms", "ms", ms "lang.gen") ]
  @ List.map (fun p -> ("opt.pass_ms." ^ p, "ms", ms ("opt." ^ p))) opt_passes
  @ [ ("opt.instrs_out", "count", c "opt.instrs_out");
      ("regalloc.global_alloc_ms", "ms", ms "regalloc.global_alloc");
      ("regalloc.temp_alloc_ms", "ms", ms "regalloc.temp_alloc");
      ("analysis.memdep_ms", "ms", ms "analysis.memdep");
      ("analysis.pruned_edges", "count", c "analysis.pruned_edges");
      ("sched.schedule_ms", "ms", ms "sched.schedule");
      ("sim.capture_s", "s", capture_s);
      ("sim.capture_minstr_per_s", "Minstr/s",
        ratio (c "sim.capture_dyn") capture_s /. 1e6);
      ("sim.capture_share", "share", ratio capture_s wall);
      ("sim.trace_bytes_per_instr", "B/instr",
        ratio (c "sim.trace_bytes") (c "sim.capture_dyn"));
      ("sim.replay_s", "s", ss_s +. sp_s);
      ("sim.replay.ss_minstr_per_s", "Minstr/s",
        ratio (c "sim.replay_dyn.ss") ss_s /. 1e6);
      ("sim.replay.sp_minstr_per_s", "Minstr/s",
        ratio (c "sim.replay_dyn.sp") sp_s /. 1e6);
      ("sim.replay.minor_words_per_instr", "words/instr",
        ratio (c "sim.replay_words") (c "sim.replay_dyn.ss" +. c "sim.replay_dyn.sp"));
      ("core.diffcheck_ms", "ms", ms "core.diffcheck");
      ("core.checked_compile_ms", "ms", ms "core.checked_compile");
      ("par.busy_share", "share", ratio (s "par.task") (float_of_int domains *. wall));
      ("par.tail_ms", "ms", 1000.0 *. tail) ]

(* Alternate an untraced and a traced unit of the same work until
   [seconds] have passed, compacting the heap before each unit.  Each
   function gets the repetition number; [untraced] returns its wall time
   and [traced] its start and wall time.  The result is the report
   details (traced units, median self time per span name) and the
   per-layer metrics: each layer metric's median over the traced units,
   the process's GC totals and the tracing overhead (median traced minus
   median untraced wall time). *)
let alternate ~domains ~seconds ~untraced ~traced =
  let t_start = now () in
  let rec loop rep acc =
    if rep > 0 && now () -. t_start >= seconds then List.rev acc
    else begin
      Gc.compact ();
      let wall_u = untraced rep in
      Gc.compact ();
      ignore (Span.take ());
      let start, wall = traced rep in
      let ((spans, _) as taken) = Span.take () in
      let self =
        List.map (fun (name, s) -> (name, "ms", 1000.0 *. s)) (Span.self_times spans)
      in
      loop (rep + 1) ((wall_u, wall, layer_metrics ~domains ~start ~wall taken, self) :: acc)
    end
  in
  let reps = loop 0 [] in
  (* Each metric named in the first unit, as its median over all units. *)
  let medians runs =
    match runs with
    | [] -> []
    | first :: _ ->
        List.map
          (fun (name, unit, _) ->
            let value ls =
              List.find_map (fun (n, _, v) -> if String.equal n name then Some v else None) ls
            in
            (name, unit, median (List.map (fun ls -> Option.value ~default:0.0 (value ls)) runs)))
          first
  in
  let mu = median (List.map (fun (u, _, _, _) -> u) reps) in
  let mt = median (List.map (fun (_, t, _, _) -> t) reps) in
  let gc = Gc.quick_stat () in
  ( [ ("traced_units", Json.Int (List.length reps));
      ("self_ms",
        Json.Obj
          (List.map (fun (n, _, v) -> (n, Json.Num v))
             (medians (List.map (fun (_, _, _, s) -> s) reps)))) ],
    medians (List.map (fun (_, _, l, _) -> l) reps)
    @ [ ("gc.major_collections", "count", float_of_int gc.Gc.major_collections);
        ("gc.top_heap_mb", "MB",
          float_of_int gc.Gc.top_heap_words *. float_of_int (Sys.word_size / 8)
          /. 1048576.0);
        ("trace.untraced_unit_s", "s", mu);
        ("trace.traced_unit_s", "s", mt);
        ("trace.overhead_s", "s", mt -. mu) ] )

(* ------------------------------------------------------------------ *)
(* sweep: the Figure 4-1 plan                                           *)

let fig4_1_configs =
  List.map Presets.superscalar Experiments.degrees
  @ List.map Presets.superpipelined Experiments.degrees

(* The plan keeps the paper's order whatever the seed: its inputs are
   fixed by the figure, and reordering would only move the pool's tail. *)
let fig4_1_plan () =
  Array.of_list
    (List.concat_map
       (fun w -> List.map (Experiments.request w) fig4_1_configs)
       Registry.all)

let superscalar_cell i =
  i mod List.length fig4_1_configs < List.length Experiments.degrees

type cell = { dyn : int; minor : int; sink : Value.t }

(* Check one pass's cells: each sink against the registry, and
   dyn_instrs/minor_cycles/sink against the first pass of this process,
   traced or not. *)
let check_cells requests reference (runs : Metrics.run array) ~what =
  Array.iteri
    (fun i (run : Metrics.run) ->
      let r = requests.(i) in
      let w = r.Experiments.rq_workload in
      let c = { dyn = run.dyn_instrs; minor = run.minor_cycles; sink = run.sink } in
      if not (sink_ok w run.sink) then
        failure "sweep %s: %s on %s left sink %s" what w.W.name run.machine
          (sink_string run.sink);
      match reference.(i) with
      | None -> reference.(i) <- Some c
      | Some c0 when c0 = c -> ()
      | Some c0 ->
          failure
            "sweep %s: %s on %s gave dyn=%d minor=%d sink=%s, first pass \
             dyn=%d minor=%d sink=%s"
            what w.W.name run.machine c.dyn c.minor (sink_string c.sink) c0.dyn
            c0.minor (sink_string c0.sink))
    runs

let untraced_pass requests reference =
  let t0 = now () in
  match Experiments.run_sweep requests with
  | runs ->
      let wall = now () -. t0 in
      ignore (Atomic.fetch_and_add attempted (Array.length requests));
      check_cells requests reference runs ~what:"pass";
      Some (wall, runs)
  | exception e ->
      ignore (Atomic.fetch_and_add attempted (Array.length requests));
      ignore (Atomic.fetch_and_add failed (Array.length requests - 1));
      failure "sweep pass raised %s" (Printexc.to_string e);
      None

(* The same plan through the public layer calls: one capture task per
   shared program (compile_unscheduled, then capture), then one task per
   cell (schedule, then replay), both on [pool]. *)
let traced_pass pool requests reference =
  let groups = Hashtbl.create 16 and reps = ref [] in
  Array.iter
    (fun r ->
      let key = Experiments.capture_key r in
      if not (Hashtbl.mem groups key) then begin
        Hashtbl.add groups key (Hashtbl.length groups);
        reps := r :: !reps
      end)
    requests;
  let reps = Array.of_list (List.rev !reps) in
  let n_groups = Array.length reps in
  let root = Span.fresh () in
  let start = now () in
  let captures =
    Pool.map pool
      (fun g ->
        let r = reps.(g) in
        Span.time ~parent:root ~item:g "par.task" (fun task ->
            traced_frontend ~parent:task ~item:g r.Experiments.rq_source;
            let pre =
              traced_unscheduled ~parent:task ~item:g ?unroll:r.rq_unroll
                ~level:r.rq_level r.rq_config r.rq_source
            in
            let trace =
              Span.time ~parent:task ~item:g "sim.capture" (fun _ ->
                  Trace_buffer.capture pre)
            in
            Span.count "sim.capture_dyn" (Trace_buffer.dyn_instrs trace);
            Span.count "sim.trace_bytes" (Trace_buffer.byte_size trace);
            (pre, trace)))
      (Array.init n_groups Fun.id)
  in
  let runs =
    Pool.map pool
      (fun i ->
        let r = requests.(i) and item = n_groups + i in
        Span.time ~parent:root ~item "par.task" (fun task ->
            let pre, trace =
              captures.(Hashtbl.find groups (Experiments.capture_key r))
            in
            let binary =
              Span.time ~parent:task ~item "sched.schedule" (fun _ ->
                  Ilp.schedule ~memdep:r.rq_memdep ~level:r.rq_level
                    r.rq_config pre)
            in
            let family = if superscalar_cell i then "ss" else "sp" in
            let words = Gc.minor_words () in
            let run =
              Span.time ~parent:task ~item ("sim.replay." ^ family) (fun _ ->
                  Metrics.measure_replay r.rq_config trace binary)
            in
            Span.count "sim.replay_words"
              (int_of_float (Gc.minor_words () -. words));
            Span.count ("sim.replay_dyn." ^ family) run.dyn_instrs;
            run))
      (Array.init (Array.length requests) Fun.id)
  in
  let wall = now () -. start in
  Span.push ~id:root ~parent:0 ~item:(-1) "sweep.pass" start (start +. wall);
  ignore (Atomic.fetch_and_add attempted (Array.length requests));
  check_cells requests reference runs ~what:"traced pass";
  (start, wall)

let sweep args =
  let reference = Array.make (Array.length (fig4_1_plan ())) None in
  if args.trace then begin
    let requests = fig4_1_plan () in
    let untraced _ =
      Experiments.with_jobs jobs (fun () ->
          match untraced_pass requests reference with
          | Some (wall, _) -> wall
          | None -> 0.0)
    in
    let traced _ =
      Pool.with_pool ~jobs (fun pool ->
          try traced_pass pool requests reference
          with e ->
            ignore (Atomic.fetch_and_add attempted (Array.length requests));
            failure "traced sweep pass raised %s" (Printexc.to_string e);
            (now (), 0.0))
    in
    let details, layers =
      alternate ~domains:jobs ~seconds:args.seconds ~untraced ~traced
    in
    (jobs, details, [], layers)
  end
  else
    measured_setup
      (fun k ->
        let requests = fig4_1_plan () in
        Experiments.with_jobs jobs (fun () -> k requests))
      (fun setup_s requests ->
        let units =
          List.filter
            (fun u -> Option.is_some u.result)
            (timed_units ~domains:jobs ~seconds:args.seconds (fun () ->
                 match untraced_pass requests reference with
                 | Some (wall, runs) -> (wall, Some runs)
                 | None -> (0.0, None)))
        in
        let runs =
          match List.rev units with
          | { result = Some runs; _ } :: _ -> runs
          | _ -> [||]
        in
        let dyn = Array.fold_left (fun acc (r : Metrics.run) -> acc + r.dyn_instrs) 0 runs in
        let hmean =
          if Array.length runs = 0 then 0.0
          else
            Metrics.harmonic_mean
              (Array.to_list (Array.map (fun (r : Metrics.run) -> r.speedup) runs))
        in
        let walls = List.map (fun u -> u.wall) units in
        let cells = float_of_int (Array.length requests) in
        let named, contract =
          unit_figures units
            ~names:("cells_per_s", "pass_p50_ms", "pass_p90_ms")
            ~work:(fun _ -> cells)
            ~latencies:(fun u -> [ u.wall /. u.ref_s ])
            ~raw_latencies:(fun u -> [ u.wall ])
        in
        ( jobs,
          [ ("passes", Json.Int (List.length walls));
            ("pass_walls_s", Json.Arr (List.map (fun w -> Json.Num w) walls));
            ("cells_per_pass", Json.Int (Array.length requests));
            ("dyn_instrs_per_pass", Json.Int dyn) ],
          (("setup_s", "s", setup_s) :: named)
          @ [ ("sim_minstr_per_s", "Minstr/s",
                ratio (float_of_int dyn) (median walls) /. 1e6);
              ("ilp_hmean", "instr/base_cycle", hmean) ],
          ("setup_s", "s", setup_s) :: contract ))

(* ------------------------------------------------------------------ *)
(* compile: every source through every level and unrolling               *)

type item = {
  id : int;
  work : W.t;
  source : string;
  level : Ilp.opt_level;
  unroll : Ilp.unroll_spec option;
  label : string;
}

let compile_config = Presets.superscalar 4
let compile_sources = Registry.all @ Registry.extras

let unroll_variants =
  [ ("plain", None);
    ("naive4", Some { Ilp.mode = Ilp_lang.Unroll.Naive; factor = 4; bounds = false });
    ("careful8", Some { Ilp.mode = Ilp_lang.Unroll.Careful; factor = 8; bounds = true }) ]

(* Every (source, unrolling, level) once, in an order drawn from the
   seed. *)
let compile_items seed =
  let items =
    Array.of_list
      (List.concat_map
         (fun (w : W.t) ->
           List.concat_map
             (fun (uname, unroll) ->
               let source =
                 match unroll with
                 | Some { Ilp.mode = Ilp_lang.Unroll.Careful; _ } ->
                     W.source_for_mode w `Careful
                 | Some _ | None -> w.W.source
               in
               List.map
                 (fun level ->
                   { id = 0; work = w; source; level; unroll;
                     label =
                       Printf.sprintf "%s %s %s" w.W.name uname
                         (Ilp.opt_level_name level) })
                 Ilp.all_levels)
             unroll_variants)
         compile_sources)
  in
  let st = Random.State.make [| seed |] in
  for i = Array.length items - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = items.(i) in
    items.(i) <- items.(j);
    items.(j) <- t
  done;
  Array.mapi (fun id it -> { it with id }) items

let compile_one it =
  Ilp.schedule ~memdep:true ~level:it.level compile_config
    (Ilp.compile_unscheduled ?unroll:it.unroll ~level:it.level compile_config
       it.source)

(* One untraced round; returns its wall time and each compile's
   latency, and keeps the O4 binaries in [binaries]. *)
let compile_round items binaries =
  let t0 = now () in
  let samples =
    Array.fold_left
      (fun acc it ->
        Atomic.incr attempted;
        let t = now () in
        match compile_one it with
        | binary ->
            let dt = now () -. t in
            if it.level = Ilp.O4 then Hashtbl.replace binaries it.id (it, binary);
            dt :: acc
        | exception e ->
            failure "compile %s raised %s" it.label (Printexc.to_string e);
            acc)
      [] items
  in
  List.iter
    (fun (w : W.t) ->
      try ignore (Ilp_lang.Absint.analyze (Ilp.frontend w.W.source))
      with e -> failure "absint %s raised %s" w.W.name (Printexc.to_string e))
    compile_sources;
  (now () -. t0, samples)

let traced_round items =
  let root = Span.fresh () in
  let start = now () in
  Array.iter
    (fun it ->
      let item = it.id in
      Atomic.incr attempted;
      try
        Span.time ~parent:root ~item "par.task" (fun task ->
            traced_frontend ~parent:task ~item it.source;
            let pre =
              traced_unscheduled ~parent:task ~item ?unroll:it.unroll
                ~level:it.level compile_config it.source
            in
            Span.time ~parent:task ~item "analysis.memdep" (fun _ ->
                List.iter
                  (fun f ->
                    let facts = Ilp_analysis.Memdep.analyze ~ranges:true f in
                    Span.count "analysis.pruned_edges"
                      (Ilp_analysis.Memdep.func_stats facts f).pruned)
                  pre.Ilp_ir.Program.functions);
            ignore
              (Span.time ~parent:task ~item "sched.schedule" (fun _ ->
                   Ilp.schedule ~memdep:true ~level:it.level compile_config pre)))
      with e -> failure "traced compile %s raised %s" it.label (Printexc.to_string e))
    items;
  List.iteri
    (fun k (w : W.t) ->
      match Ilp.frontend w.W.source with
      | tast ->
          ignore
            (Span.time ~parent:root ~item:(-1 - k) "lang.absint" (fun _ ->
                 Ilp_lang.Absint.analyze tast))
      | exception e -> failure "absint %s raised %s" w.W.name (Printexc.to_string e))
    compile_sources;
  let wall = now () -. start in
  Span.push ~id:root ~parent:0 ~item:(-1) "compile.round" start (start +. wall);
  (start, wall)

(* After timing: run each O4 binary of the last round once and compare
   its sink with the registry's. *)
let check_binaries binaries =
  Hashtbl.iter
    (fun _ (it, binary) ->
      match Ilp_sim.Exec.run binary with
      | outcome ->
          if not (sink_ok it.work outcome.Ilp_sim.Exec.sink) then
            failure "compile %s: binary left sink %s" it.label
              (sink_string outcome.sink)
      | exception e ->
          failure "compile %s: binary raised %s" it.label (Printexc.to_string e))
    binaries

let compile args =
  let binaries = Hashtbl.create 64 in
  if args.trace then begin
    let items = compile_items args.seed in
    let details, layers =
      alternate ~domains:1 ~seconds:args.seconds
        ~untraced:(fun _ -> fst (compile_round items binaries))
        ~traced:(fun _ -> traced_round items)
    in
    check_binaries binaries;
    (1, details, [], layers)
  end
  else
    measured_setup (fun k -> k (compile_items args.seed)) (fun setup_s items ->
    let units =
      timed_units ~domains:1 ~seconds:args.seconds (fun () ->
          compile_round items binaries)
    in
    check_binaries binaries;
    let samples = List.concat_map (fun u -> u.result) units in
    let named, contract =
      unit_figures units
        ~names:("compiles_per_s", "compile_p50_ms", "compile_p90_ms")
        ~work:(fun _ -> float_of_int (Array.length items))
        ~latencies:(fun u -> List.map (fun t -> t /. u.ref_s) u.result)
        ~raw_latencies:(fun u -> u.result)
    in
    ( 1,
      [ ("rounds", Json.Int (List.length units));
        ("compiles_per_round", Json.Int (Array.length items));
        ("samples", Json.Int (List.length samples));
        ("samples_beyond_p90", Json.Int (List.length samples / 10)) ],
      ("setup_s", "s", setup_s) :: named,
      ("setup_s", "s", setup_s) :: contract ))

(* ------------------------------------------------------------------ *)
(* verify: generated programs through every check                       *)

(* The generator modes the workload draws, in equal shares.  The
   range-heavy mode is left out: its programs take up to 5 s each where
   the others take under 0.6 s (NOTES.md), so a handful of them would
   decide a run's throughput. *)
let modes =
  [| ("default", `Default); ("alias-heavy", `Alias_heavy);
     ("unroll-heavy", `Unroll_heavy) |]

(* Program [k] uses mode [k mod 3] and a fuzz seed drawn from the
   benchmark seed and [k]. *)
let mode_of k = modes.(k mod Array.length modes)
let program_seed seed k = Hashtbl.hash (seed, k)

let fuzz_program fuzz_seed k =
  let name, mode = mode_of k in
  match
    Fuzz.run ~jobs:1 ~count:1 ~seed:fuzz_seed
      ~alias_heavy:(mode = `Alias_heavy) ~unroll_heavy:(mode = `Unroll_heavy) ()
  with
  | () -> true
  | exception Fuzz.Failed f ->
      failure "verify program %d (%s, fuzz seed %d): %s on %s\n%s" k name
        f.seed f.error f.config_name f.source;
      false
  | exception e ->
      failure "verify program %d (%s, fuzz seed %d) raised %s" k name fuzz_seed
        (Printexc.to_string e);
      false

(* What [Fuzz.run] checks for one program, as separate public calls:
   the same generator draw, configurations, unroll specs and execution
   options. *)
let fuzz_configs =
  [ Presets.base; Presets.superscalar_with_class_conflicts 4;
    Config.make "ss8-6temps" ~issue_width:8 ~temp_regs:6 ]

let fuzz_options = { Ilp_sim.Exec.default_options with mem_words = 1 lsl 14 }

let fuzz_unroll_specs mode =
  let spec mode factor bounds = { Ilp.mode; factor; bounds } in
  let open Ilp_lang.Unroll in
  if mode = `Unroll_heavy then
    [ spec Naive 2 true; spec Naive 3 false; spec Careful 4 true; spec Careful 8 true ]
  else [ spec Careful 3 false; spec Careful 4 true ]

(* The program [Fuzz.run ~count:1 ~seed:fuzz_seed] checks: the first
   draw of that seed. *)
let program_source fuzz_seed k =
  Gen_prog.render
    (Gen_prog.generate ~mode:(snd (mode_of k))
       (Random.State.make [| 0x1197; fuzz_seed; 0 |]))

let traced_program ~parent fuzz_seed k =
  let _, mode = mode_of k in
  Span.time ~parent ~item:k "par.task" (fun task ->
      let source =
        Span.time ~parent:task ~item:k "lang.gen" (fun _ ->
            program_source fuzz_seed k)
      in
      traced_frontend ~parent:task ~item:k source;
      let unroll_specs = fuzz_unroll_specs mode in
      let compiles =
        List.map (fun level -> (level, None)) Ilp.all_levels
        @ List.map (fun u -> (Ilp.O4, Some u)) unroll_specs
      in
      List.iter
        (fun config ->
          Span.time ~parent:task ~item:k "core.diffcheck" (fun _ ->
              Diffcheck.check_workload ~options:fuzz_options
                ~granularity:`Every_pass ~memdep:true ~levels:Ilp.all_levels
                ~unroll_specs config source);
          List.iter
            (fun (level, unroll) ->
              Span.time ~parent:task ~item:k "core.checked_compile" (fun id ->
                  with_pass_spans ~parent:id ~item:k (fun on_pass ->
                      ignore
                        (Ilp.compile ?unroll ~check:true ~memdep:true ~on_pass
                           ~level config source))))
            compiles)
        fuzz_configs)

(* Programs per traced unit: a few seconds of work on two domains. *)
let traced_batch = 8

(* Programs per untraced batch: a few seconds of work on two domains,
   with a calibration on either side. *)
let verify_batch = 24

let verify args =
  if args.trace then begin
    let ks rep = Array.init traced_batch (fun i -> (rep * traced_batch) + i) in
    let seed_of k = program_seed args.seed k in
    let outcomes = Hashtbl.create 64 in
    let untraced rep =
      Pool.with_pool ~jobs (fun pool ->
          let t0 = now () in
          let oks =
            Pool.map pool
              (fun k ->
                Atomic.incr attempted;
                fuzz_program (seed_of k) k)
              (ks rep)
          in
          let wall = now () -. t0 in
          Array.iteri (fun i ok -> Hashtbl.replace outcomes (ks rep).(i) ok) oks;
          wall)
    in
    let traced rep =
      Pool.with_pool ~jobs (fun pool ->
          let root = Span.fresh () in
          let start = now () in
          let oks =
            Pool.map pool
              (fun k ->
                Atomic.incr attempted;
                match traced_program ~parent:root (seed_of k) k with
                | () -> true
                | exception _ -> false)
              (ks rep)
          in
          let wall = now () -. start in
          Span.push ~id:root ~parent:0 ~item:(-1) "verify.batch" start (start +. wall);
          Array.iteri
            (fun i ok ->
              let k = (ks rep).(i) in
              if Hashtbl.find_opt outcomes k <> Some ok then
                failure "verify program %d: traced checks %s, Fuzz.run %s" k
                  (if ok then "passed" else "failed")
                  (if ok then "failed" else "passed"))
            oks;
          (start, wall))
    in
    let details, layers =
      alternate ~domains:jobs ~seconds:args.seconds ~untraced ~traced
    in
    (jobs, details, [], layers)
  end
  else
    measured_setup
      (fun k -> Pool.with_pool ~jobs k)
      (fun setup_s pool ->
        let batches = ref 0 in
        (* One batch of the next [verify_batch] programs.  Closed loop:
           each domain takes its next program only when its previous one
           is done. *)
        let batch () =
          let first = !batches * verify_batch in
          incr batches;
          let next = Atomic.make 0 in
          let t0 = now () in
          let per_domain =
            Pool.map pool
              (fun () ->
                let rec loop acc =
                  let i = Atomic.fetch_and_add next 1 in
                  if i >= verify_batch then acc
                  else begin
                    let k = first + i in
                    let fuzz_seed = program_seed args.seed k in
                    let kib =
                      float_of_int (String.length (program_source fuzz_seed k)) /. 1024.0
                    in
                    Atomic.incr attempted;
                    let t = now () in
                    let _ok = fuzz_program fuzz_seed k in
                    loop ((now () -. t, kib) :: acc)
                  end
                in
                loop [])
              (Array.make jobs ())
          in
          (now () -. t0, List.concat (Array.to_list per_domain))
        in
        let units = timed_units ~domains:jobs ~seconds:args.seconds batch in
        let samples = List.concat_map (fun u -> u.result) units in
        let n = List.length samples in
        let times = List.map fst samples in
        let kib = List.fold_left (fun acc (_, kib) -> acc +. kib) 0.0 samples in
        let wall = List.fold_left (fun acc u -> acc +. u.wall) 0.0 units in
        let named, contract =
          unit_figures units
            ~names:("kib_per_s", "ms_per_kib_p50", "ms_per_kib_p90")
            ~work:(fun u -> List.fold_left (fun acc (_, kib) -> acc +. kib) 0.0 u.result)
            ~latencies:(fun u -> List.map (fun (t, kib) -> t /. u.ref_s /. kib) u.result)
            ~raw_latencies:(fun u -> List.map (fun (t, kib) -> t /. kib) u.result)
        in
        ( jobs,
          [ ("programs", Json.Int n); ("batches", Json.Int (List.length units));
            ("samples_beyond_p90", Json.Int (n / 10)); ("source_kib", Json.Num kib) ],
          (("setup_s", "s", setup_s) :: named)
          @ [ ("programs_per_s", "1/s", ratio (float_of_int n) wall);
              ("program_p50_ms", "ms", 1000.0 *. median times);
              ("program_p90_ms", "ms", 1000.0 *. quantile 0.9 times) ],
          ("setup_s", "s", setup_s) :: contract ))

(* ------------------------------------------------------------------ *)

let metric_json metrics =
  Json.Obj
    (List.map
       (fun (name, unit, value) ->
         (name, Json.Obj [ ("value", Json.Num value); ("unit", Json.Str unit) ]))
       metrics)

let () =
  let args = parse_args () in
  let run =
    match args.workload with
    | "sweep" -> sweep
    | "compile" -> compile
    | _ -> verify
  in
  let domains, details, named, contract = run args in
  let attempted = max 1 (Atomic.get attempted) and failed = Atomic.get failed in
  let rss = peak_rss_mb () in
  let named =
    if args.trace then contract
    else
      named
      @ List.filter
          (fun (n, _, _) -> not (List.exists (fun (m, _, _) -> String.equal m n) named))
          contract
      @ [ ("peak_rss_mb", "MB", rss);
          ("error_rate", "failed/attempted",
            float_of_int failed /. float_of_int attempted) ]
  in
  let contract = if args.trace then contract else contract @ [ ("peak_rss_mb", "MB", rss) ] in
  List.iter
    (fun (name, unit, value) -> Printf.printf "%-36s %14.6g %s\n" name value unit)
    named;
  let environment =
    [ ("workload", Json.Str args.workload); ("seed", Json.Int args.seed);
      ("seconds", Json.Num args.seconds); ("trace", Json.Bool args.trace);
      ("host_cores", Json.Int host_cores); ("domains", Json.Int domains);
      ("git_revision", Json.Str args.revision);
      ("source_digest", Json.Str (source_digest ()));
      ("ocaml_version", Json.Str Sys.ocaml_version) ]
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("report",
              Json.Obj
                (environment
                @ [ ("attempted", Json.Int attempted); ("failed", Json.Int failed);
                    ("details", Json.Obj details); ("metrics", metric_json named) ]))
          ]));
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (failed = 0)); ("attempted", Json.Int attempted);
            ("failed", Json.Int failed); ("metrics", metric_json contract) ]));
  exit (if failed = 0 then 0 else 1)
