(* Timing-model tests: issue width, operation latencies, WAW ordering,
   functional-unit conflicts, superpipelined accounting, and the cache. *)

open Ilp_ir
open Ilp_machine
module Timing = Ilp_sim.Timing

let r = Reg.phys

let cycles_of config instrs =
  let t = Timing.create config in
  List.iter (fun i -> Timing.issue t i (-1)) instrs;
  Timing.minor_cycles t

let issue_cycles config instrs =
  (* minor cycle at which each instruction issues *)
  let t = Timing.create config in
  List.map
    (fun i ->
      Timing.issue t i (-1);
      t.Timing.now)
    instrs

let independent n = Ilp_sim.Diagram.independent_instrs n
let chain n = Ilp_sim.Diagram.dependent_instrs n

let test_base_throughput () =
  (* base machine: one instruction per cycle, chains cost the same *)
  Alcotest.(check int) "6 independent" 6 (cycles_of Presets.base (independent 6));
  Alcotest.(check int) "6 chained" 6 (cycles_of Presets.base (chain 6))

let test_superscalar_width () =
  let c = Presets.superscalar 3 in
  Alcotest.(check (list int)) "3 per cycle"
    [ 0; 0; 0; 1; 1; 1 ]
    (issue_cycles c (independent 6));
  (* a chain cannot use the width *)
  Alcotest.(check (list int)) "chain serializes"
    [ 0; 1; 2; 3 ]
    (issue_cycles c (chain 4))

let test_superpipelined_latency () =
  let c = Presets.superpipelined 3 in
  (* issue one per minor cycle, but results take 3 minor cycles *)
  Alcotest.(check (list int)) "independent flow"
    [ 0; 1; 2; 3 ]
    (issue_cycles c (independent 4));
  Alcotest.(check (list int)) "chain stalls for latency"
    [ 0; 3; 6; 9 ]
    (issue_cycles c (chain 4));
  (* reported in base cycles: last issue at minor 5, drain to minor 8 *)
  let t = Timing.create c in
  List.iter (fun i -> Timing.issue t i (-1)) (independent 6);
  Helpers.check_float "base cycles = minor / m" (8.0 /. 3.0)
    (Timing.base_cycles t)

let test_waw_orders_completions () =
  (* two writes to the same register: the second must not complete
     before the first (long-latency first write) *)
  let c =
    Config.make "waw"
      ~latencies:(Config.latency_table [ (Iclass.Fp_mul, 5) ])
  in
  let i1 = Instr.make Opcode.Fmul ~dst:(r 9) ~srcs:[ Instr.Oreg (r 1); Instr.Oreg (r 2) ] in
  let i2 = Instr.make Opcode.Mov ~dst:(r 9) ~srcs:[ Instr.Oreg (r 3) ] in
  Alcotest.(check (list int)) "mov stalls for WAW"
    [ 0; 4 ]
    (issue_cycles c [ i1; i2 ])

let test_unit_conflicts () =
  (* underpipelined: the single memory unit accepts one op per 2 cycles *)
  let c = Presets.underpipelined in
  let loads =
    List.init 3 (fun k ->
        Instr.make Opcode.Ld ~dst:(r (10 + k)) ~srcs:[ Instr.Oreg Reg.sp ] ~offset:k)
  in
  Alcotest.(check (list int)) "loads every other cycle"
    [ 0; 2; 4 ]
    (issue_cycles c loads)

let test_multiplicity () =
  let c =
    Config.make "two-units" ~issue_width:4
      ~units:
        [ { Config.unit_name = "mem";
            classes = [ Iclass.Load ];
            issue_latency = 2;
            multiplicity = 2;
          } ]
  in
  let loads =
    List.init 4 (fun k ->
        Instr.make Opcode.Ld ~dst:(r (10 + k)) ~srcs:[ Instr.Oreg Reg.sp ] ~offset:k)
  in
  (* two units: two loads issue at cycle 0, two more at cycle 2 *)
  Alcotest.(check (list int)) "pairs of loads"
    [ 0; 0; 2; 2 ]
    (issue_cycles c loads)

let test_in_order_stall_blocks_younger () =
  (* an independent instruction behind a stalled one also waits
     (in-order issue) *)
  let c = Presets.superscalar 2 in
  let producer = Instr.make Opcode.Ld ~dst:(r 10) ~srcs:[ Instr.Oreg Reg.sp ] in
  let consumer = Instr.make Opcode.Add ~dst:(r 11) ~srcs:[ Instr.Oreg (r 10); Instr.Oimm 1 ] in
  let independent_one = Instr.make Opcode.Add ~dst:(r 12) ~srcs:[ Instr.Oreg (r 4); Instr.Oimm 1 ] in
  Alcotest.(check (list int)) "younger waits behind stalled"
    [ 0; 1; 1 ]
    (issue_cycles c [ producer; consumer; independent_one ])

let test_branches_free () =
  (* control is free under perfect prediction: branches only occupy
     issue slots *)
  let c = Presets.base in
  let b = Builder.beq (r 1) (r 2) (Label.of_string "x") in
  Alcotest.(check (list int)) "branch issues like any op"
    [ 0; 1; 2 ]
    (issue_cycles c [ b; Instr.copy b; Instr.copy b ])

let test_speedup_metric () =
  let t = Timing.create (Presets.superscalar 4) in
  List.iter (fun i -> Timing.issue t i (-1)) (independent 8);
  Helpers.check_float "8 instrs in 2 cycles" 4.0 (Timing.speedup t)

let test_cache_behavior () =
  let cache = Ilp_sim.Cache.create ~lines:4 ~line_words:4 ~penalty:10 () in
  Alcotest.(check bool) "first access misses" false (Ilp_sim.Cache.access cache 0);
  Alcotest.(check bool) "same line hits" true (Ilp_sim.Cache.access cache 3);
  Alcotest.(check bool) "next line misses" false (Ilp_sim.Cache.access cache 4);
  (* 4 lines x 4 words: address 64 maps to the same index as 0 *)
  Alcotest.(check bool) "conflict evicts" false (Ilp_sim.Cache.access cache 64);
  Alcotest.(check bool) "original now misses" false (Ilp_sim.Cache.access cache 0);
  Alcotest.(check int) "accesses counted" 5 (Ilp_sim.Cache.accesses cache);
  Alcotest.(check int) "misses counted" 4 (Ilp_sim.Cache.misses cache);
  Helpers.check_float "miss rate" 0.8 (Ilp_sim.Cache.miss_rate cache)

let test_cache_invalid () =
  Alcotest.(check bool) "non-power-of-two rejected" true
    (match Ilp_sim.Cache.create ~lines:3 ~penalty:1 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_cache_stalls_pipeline () =
  let config = Presets.base in
  let with_cache penalty =
    let cache = Ilp_sim.Cache.create ~lines:4 ~line_words:1 ~penalty () in
    let t = Timing.create ~cache config in
    let loads =
      List.init 8 (fun k ->
          Instr.make Opcode.Ld ~dst:(r (10 + k)) ~srcs:[ Instr.Oreg Reg.sp ]
            ~offset:k)
    in
    (* distinct addresses: every access misses *)
    List.iteri (fun k i -> Timing.issue t i (k * 17)) loads;
    Timing.minor_cycles t
  in
  Alcotest.(check bool) "bigger penalty costs more" true
    (with_cache 20 > with_cache 2)

let test_scoreboard_size () =
  (* the scoreboard follows the executor's register-file size *)
  let hi = Instr.make Opcode.Li ~dst:(r 400) ~srcs:[ Instr.Oimm 1 ] in
  let t = Timing.create ~registers:512 Presets.base in
  Timing.issue t hi (-1);
  Alcotest.(check int) "register 400 fits with ~registers:512" 1
    (Timing.instrs t);
  Alcotest.(check bool) "default size matches Exec.default_options" true
    (Ilp_sim.Exec.default_options.Ilp_sim.Exec.registers = 256
    &&
    match Timing.issue (Timing.create Presets.base) hi (-1) with
    | exception Invalid_argument _ -> true
    | () -> false)

let histogram_total t = Array.fold_left ( + ) 0 t.Timing.issue_histogram

let test_histogram_accounts_cache_stalls () =
  (* stores that miss raise cache_stall_until; the skipped cycles must
     still appear in the issue histogram as zero-issue cycles *)
  let cache = Ilp_sim.Cache.create ~lines:4 ~line_words:1 ~penalty:10 () in
  let t = Timing.create ~cache Presets.base in
  let stores =
    List.init 6 (fun k ->
        Instr.make Opcode.St
          ~srcs:[ Instr.Oreg (r 4); Instr.Oreg Reg.sp ]
          ~offset:k)
  in
  List.iteri (fun k i -> Timing.issue t i (k * 33)) stores;
  Timing.finish t;
  Alcotest.(check bool) "write misses stalled the pipe" true
    (t.Timing.stall_cycles > 0);
  Alcotest.(check int) "histogram covers every minor cycle"
    (Timing.minor_cycles t) (histogram_total t)

let test_histogram_accounts_drain () =
  (* without a cache: finish pads the histogram through the drain *)
  let c = Presets.superpipelined 3 in
  let t = Timing.create c in
  List.iter (fun i -> Timing.issue t i (-1)) (chain 4);
  Timing.finish t;
  Alcotest.(check int) "histogram covers every minor cycle"
    (Timing.minor_cycles t) (histogram_total t)

(* --- the cycle-stepped reference oracle ------------------------------ *)

(* Random decoded streams over a small register file, timed against
   random machines both by [Timing] and by the naive reference model in
   [Timing_ref]: every observable of the two runs must agree. *)

let oracle_registers = 8

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

let gen_unit_spec k =
  let open QCheck2.Gen in
  let* served =
    flatten_l
      (List.map
         (fun c -> map (fun keep -> if keep then Some c else None) bool)
         Iclass.all)
  in
  let* issue_latency = int_range 1 4 in
  let+ multiplicity = int_range 1 3 in
  { Config.unit_name = Printf.sprintf "u%d" k;
    classes = List.filter_map Fun.id served;
    issue_latency;
    multiplicity;
  }

let gen_config =
  let open QCheck2.Gen in
  let* issue_width = int_range 1 8 in
  let* pipe_degree = int_range 1 8 in
  let* latencies = array_size (return Iclass.count) (int_range 1 12) in
  let* n_units = int_range 0 3 in
  let* units = flatten_l (List.init n_units gen_unit_spec) in
  let+ branch_ends_packet = bool in
  Config.make ~issue_width ~pipe_degree ~latencies ~units ~branch_ends_packet
    "random"

let gen_cache =
  let open QCheck2.Gen in
  let* lines = oneofl [ 1; 2; 4; 8 ] in
  let* line_words = oneofl [ 1; 2; 4 ] in
  let+ penalty = int_range 1 20 in
  { Timing_ref.lines; line_words; penalty }

let gen_instr =
  let open QCheck2.Gen in
  let reg = int_range 0 (oracle_registers - 1) in
  let* cls = oneofl Iclass.all in
  let* is_load = bool in
  let* defs = array_size (int_range 0 2) reg in
  let* uses = array_size (int_range 0 3) reg in
  let+ addr = frequency [ (1, return (-1)); (1, int_range 0 63) ] in
  { Timing_ref.cls; is_load; defs; uses; addr }

let print_instr k (i : Timing_ref.instr) =
  Printf.sprintf "  %2d %-8s load=%b defs=[%s] uses=[%s] addr=%d" k
    (Iclass.name i.Timing_ref.cls) i.Timing_ref.is_load (ints i.Timing_ref.defs)
    (ints i.Timing_ref.uses) i.Timing_ref.addr

let print_oracle_case ((config : Config.t), cache, stream) =
  let unit (u : Config.unit_spec) =
    Printf.sprintf "%s x%d il%d [%s]" u.Config.unit_name u.Config.multiplicity
      u.Config.issue_latency
      (String.concat "," (List.map Iclass.name u.Config.classes))
  in
  String.concat "\n"
    ([ Printf.sprintf "width=%d degree=%d branch_ends_packet=%b latencies=[%s]"
         config.Config.issue_width config.Config.pipe_degree
         config.Config.branch_ends_packet (ints config.Config.latencies);
       "units: " ^ String.concat "; " (List.map unit config.Config.units);
       (match cache with
       | None -> "no cache"
       | Some c ->
           Printf.sprintf "cache lines=%d line_words=%d penalty=%d"
             c.Timing_ref.lines c.Timing_ref.line_words c.Timing_ref.penalty)
     ]
    @ Array.to_list (Array.mapi print_instr stream))

(* Flat replay code for [segments], laid out one after another, and a
   trace that visits them in the order [order], each visit's memory
   addresses in one block. *)
let flat_of_visits (segments : Timing_ref.instr array array) order =
  let stream = Array.concat (Array.to_list segments) in
  let n = Array.length stream in
  let seg_first = Array.make (Array.length segments) 0 in
  for s = 1 to Array.length segments - 1 do
    seg_first.(s) <- seg_first.(s - 1) + Array.length segments.(s - 1)
  done;
  let mrank = Array.make n (-1) in
  let seg_addrs =
    Array.mapi
      (fun s seg ->
        let addrs = ref [] in
        Array.iteri
          (fun k (i : Timing_ref.instr) ->
            if i.Timing_ref.addr >= 0 then begin
              mrank.(seg_first.(s) + k) <- List.length !addrs;
              addrs := i.Timing_ref.addr :: !addrs
            end)
          seg;
        Array.of_list (List.rev !addrs))
      segments
  in
  let regs (i : Timing_ref.instr) =
    Array.append i.Timing_ref.defs i.Timing_ref.uses
  in
  let reg_first = Array.make (n + 1) 0 in
  Array.iteri
    (fun k i -> reg_first.(k + 1) <- reg_first.(k) + Array.length (regs i))
    stream;
  let fc_regs = Array.concat (Array.to_list (Array.map regs stream)) in
  let code =
    { Timing.fc_seg_first = seg_first;
      fc_seg_len = Array.map Array.length segments;
      fc_seg_mem = Array.map Array.length seg_addrs;
      fc_cls = Array.map (fun i -> Iclass.to_index i.Timing_ref.cls) stream;
      fc_flags =
        Array.map
          (fun (i : Timing_ref.instr) ->
            (if i.Timing_ref.is_load then Timing.flag_load else 0)
            lor
            if Iclass.is_control i.Timing_ref.cls then Timing.flag_control
            else 0)
          stream;
      fc_mrank = mrank;
      fc_reg_first = reg_first;
      fc_ndefs = Array.map (fun i -> Array.length i.Timing_ref.defs) stream;
      fc_regs;
      fc_named =
        Array.of_list (List.sort_uniq Int.compare (Array.to_list fc_regs));
    }
  in
  let int32s a =
    Bigarray.Array1.of_array Bigarray.int32 Bigarray.c_layout
      (Array.map Int32.of_int a)
  in
  ( code,
    int32s order,
    int32s (Array.concat (List.map (fun s -> seg_addrs.(s)) (Array.to_list order))) )

(* The stream as flat replay code: cut into issue segments after every
   control-class instruction, each visited once in order. *)
let flat_of_stream (stream : Timing_ref.instr array) =
  let n = Array.length stream in
  let segments = ref [] and start = ref 0 in
  Array.iteri
    (fun k (i : Timing_ref.instr) ->
      if Iclass.is_control i.Timing_ref.cls || k = n - 1 then begin
        segments := Array.sub stream !start (k + 1 - !start) :: !segments;
        start := k + 1
      end)
    stream;
  let segments = Array.of_list (List.rev !segments) in
  flat_of_visits segments (Array.init (Array.length segments) Fun.id)

(* Both ways into the shared issue step must match the reference: one
   [issue_decoded] call per instruction, and the flat replay loop over
   the whole stream.  In-order issue is causal, so an instruction issues
   in the same cycle whatever follows it: the flat loop's issue cycles
   are read by replaying each prefix of the stream into a fresh model,
   and its final counters from the whole stream. *)
let prop_matches_reference =
  QCheck2.Test.make ~count:500 ~name:"matches cycle-stepped reference"
    ~print:print_oracle_case
    QCheck2.Gen.(
      triple gen_config (option gen_cache)
        (array_size (int_range 0 40) gen_instr))
    (fun (config, cache, stream) ->
      let expected =
        Timing_ref.run ?cache ~registers:oracle_registers config stream
      in
      (* a fresh model, with its own fresh cache *)
      let fresh () =
        let timing_cache =
          Option.map
            (fun c ->
              Ilp_sim.Cache.create ~lines:c.Timing_ref.lines
                ~line_words:c.Timing_ref.line_words
                ~penalty:c.Timing_ref.penalty ())
            cache
        in
        ( Timing.create ?cache:timing_cache ~registers:oracle_registers config,
          timing_cache )
      in
      let check_path path issue_cycles (t, timing_cache) =
        let open_minor_cycles = Timing.minor_cycles t in
        Timing.finish t;
        let accesses, misses =
          match timing_cache with
          | Some c -> (Ilp_sim.Cache.accesses c, Ilp_sim.Cache.misses c)
          | None -> (0, 0)
        in
        let check what show got want =
          if got <> want then
            QCheck2.Test.fail_reportf "%s: %s: timing %s, reference %s" path
              what (show got) (show want)
        in
        let module R = Timing_ref in
        check "issue cycles" ints issue_cycles expected.R.issue_cycles;
        check "minor_cycles before finish" string_of_int open_minor_cycles
          expected.R.minor_cycles;
        check "minor_cycles" string_of_int (Timing.minor_cycles t)
          expected.R.minor_cycles;
        check "stall_cycles" string_of_int t.Timing.stall_cycles
          expected.R.stall_cycles;
        check "instrs" string_of_int (Timing.instrs t) expected.R.instrs;
        check "issue histogram" ints t.Timing.issue_histogram
          expected.R.histogram;
        check "cache accesses" string_of_int accesses expected.R.accesses;
        check "cache misses" string_of_int misses expected.R.misses
      in
      (let ((t, _) as model) = fresh () in
       let issue_cycles =
         Array.map
           (fun (i : Timing_ref.instr) ->
             Timing.issue_decoded t ~cls:i.Timing_ref.cls
               ~is_load:i.Timing_ref.is_load ~defs:i.Timing_ref.defs
               ~uses:i.Timing_ref.uses i.Timing_ref.addr;
             t.Timing.now)
           stream
       in
       check_path "issue_decoded" issue_cycles model);
      (let replay t prefix =
         let code, visits, addresses = flat_of_stream prefix in
         Timing.replay_flat t code visits addresses
       in
       let issue_cycles =
         Array.init (Array.length stream) (fun k ->
             let t, _ = fresh () in
             replay t (Array.sub stream 0 (k + 1));
             t.Timing.now)
       in
       let ((t, _) as model) = fresh () in
       replay t stream;
       check_path "replay_flat" issue_cycles model);
      true)

(* --- memoized replay against the reference ----------------------------- *)

(* A visit order made of loops over 1-3 segments, each run 1-12 times,
   cut at 80 visits: (state, segment) pairs repeat, so replay takes most
   visits from its memo. *)
let gen_order n_segments =
  let open QCheck2.Gen in
  let body = array_size (int_range 1 3) (int_range 0 (n_segments - 1)) in
  let+ loops = list_size (int_range 1 4) (pair body (int_range 1 12)) in
  let order =
    Array.concat
      (List.concat_map (fun (body, n) -> List.init n (fun _ -> body)) loops)
  in
  Array.sub order 0 (min 80 (Array.length order))

(* A machine, a prefix issued before the replay (empty in half the
   cases), 1-6 segments, an order to visit them in, and a suffix issued
   after the replay. *)
let gen_memo_case =
  let open QCheck2.Gen in
  let* config = gen_config in
  let* prefix =
    frequency [ (1, return [||]); (1, array_size (int_range 1 12) gen_instr) ]
  in
  let* segments =
    array_size (int_range 1 6) (array_size (int_range 1 6) gen_instr)
  in
  let* order = gen_order (Array.length segments) in
  let+ suffix = array_size (int_range 0 4) gen_instr in
  (config, prefix, segments, order, suffix)

let print_memo_case (config, prefix, segments, order, suffix) =
  let listing title stream =
    title :: Array.to_list (Array.mapi print_instr stream)
  in
  String.concat "\n"
    (print_oracle_case (config, None, prefix)
     :: List.concat
          (List.mapi
             (fun s -> listing (Printf.sprintf "segment %d:" s))
             (Array.to_list segments))
    @ [ "visits: " ^ ints order ]
    @ listing "suffix:" suffix)

(* Without a cache, [replay_flat] follows its chain of interned states
   and issues only the (state, segment) pairs it has not seen.  The
   stream it stands for must time exactly as in the reference, with
   what comes before and after it: a prefix issued through
   [issue_decoded] leaves registers and units busy beyond [now] and a
   packet open or branch-ended, which the replay must take over, and a
   suffix issued after it must find the state the replay hands back.
   [now] after every prefix of the visits is the issue cycle of its last
   instruction, and the counters match before and after [finish]. *)
let prop_memo_matches_reference =
  QCheck2.Test.make ~count:300
    ~name:"memoized replay matches cycle-stepped reference"
    ~print:print_memo_case gen_memo_case
    (fun (config, prefix, segments, order, suffix) ->
      let module R = Timing_ref in
      let visited = List.map (Array.get segments) (Array.to_list order) in
      let expected =
        R.run ~registers:oracle_registers config
          (Array.concat ((prefix :: visited) @ [ suffix ]))
      in
      let issue t =
        Array.map (fun (i : R.instr) ->
            Timing.issue_decoded t ~cls:i.R.cls ~is_load:i.R.is_load
              ~defs:i.R.defs ~uses:i.R.uses i.R.addr;
            t.Timing.now)
      in
      (* a model that issued [prefix], then replayed the first [v] visits *)
      let replayed v =
        let t = Timing.create ~registers:oracle_registers config in
        ignore (issue t prefix);
        let code, visits, addresses =
          flat_of_visits segments (Array.sub order 0 v)
        in
        Timing.replay_flat t code visits addresses;
        t
      in
      let check what show got want =
        if got <> want then
          QCheck2.Test.fail_reportf "%s: timing %s, reference %s" what
            (show got) (show want)
      in
      let last = ref (Array.length prefix - 1) in
      for v = 0 to Array.length order do
        if v > 0 then last := !last + Array.length segments.(order.(v - 1));
        check
          (Printf.sprintf "now after %d visit(s)" v)
          string_of_int (replayed v).Timing.now
          (if !last < 0 then 0 else expected.R.issue_cycles.(!last))
      done;
      let t = replayed (Array.length order) in
      check "suffix issue cycles" ints (issue t suffix)
        (Array.sub expected.R.issue_cycles (!last + 1) (Array.length suffix));
      check "minor_cycles before finish" string_of_int (Timing.minor_cycles t)
        expected.R.minor_cycles;
      Timing.finish t;
      check "minor_cycles" string_of_int (Timing.minor_cycles t)
        expected.R.minor_cycles;
      check "stall_cycles" string_of_int t.Timing.stall_cycles
        expected.R.stall_cycles;
      check "instrs" string_of_int (Timing.instrs t) expected.R.instrs;
      check "issue histogram" ints t.Timing.issue_histogram expected.R.histogram;
      true)

let tests =
  [ Alcotest.test_case "base throughput" `Quick test_base_throughput;
    Alcotest.test_case "scoreboard size" `Quick test_scoreboard_size;
    Alcotest.test_case "histogram vs cache stalls" `Quick
      test_histogram_accounts_cache_stalls;
    Alcotest.test_case "histogram vs drain" `Quick
      test_histogram_accounts_drain;
    Alcotest.test_case "superscalar width" `Quick test_superscalar_width;
    Alcotest.test_case "superpipelined latency" `Quick test_superpipelined_latency;
    Alcotest.test_case "WAW ordering" `Quick test_waw_orders_completions;
    Alcotest.test_case "unit conflicts" `Quick test_unit_conflicts;
    Alcotest.test_case "unit multiplicity" `Quick test_multiplicity;
    Alcotest.test_case "in-order stall" `Quick test_in_order_stall_blocks_younger;
    Alcotest.test_case "branches are free" `Quick test_branches_free;
    Alcotest.test_case "speedup metric" `Quick test_speedup_metric;
    Alcotest.test_case "cache behaviour" `Quick test_cache_behavior;
    Alcotest.test_case "cache validation" `Quick test_cache_invalid;
    Alcotest.test_case "cache stalls pipeline" `Quick test_cache_stalls_pipeline;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    QCheck_alcotest.to_alcotest prop_memo_matches_reference ]
