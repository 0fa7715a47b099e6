(* Persistent trace-store tests.

   The headline property is safety of the cache: a stored trace must
   reload bit-identically to the capture it came from — across the
   pack/encode/decode/unpack round trip and across recompilation — and
   any damaged, truncated, version-skewed, renamed or key-colliding
   file must be rejected loudly, with the sweep engine falling back to
   a fresh capture so measured results never change. *)

open Ilp_machine
module Trace_buffer = Ilp_sim.Trace_buffer
module Codec = Ilp_store.Codec
module Store = Ilp_store.Store
module Fingerprint = Ilp_store.Fingerprint
module Experiments = Ilp_core.Experiments
module W = Ilp_workloads.Workload

let find_workload name =
  match Ilp_workloads.Registry.find name with
  | Some w -> w
  | None -> Alcotest.fail ("no workload " ^ name)

(* a unique empty directory under the system temp dir *)
let fresh_store_dir () =
  let path = Filename.temp_file "ilp_store_test" "" in
  Sys.remove path;
  path

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let with_fresh_store f =
  let dir = fresh_store_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () -> f (Store.open_root dir))

let key_of ?(workload = "synthetic") ?(unroll_mode = `None)
    ?(unroll_factor = 1) ?(opt_level = 4) ?(config = Presets.base) pre =
  Store.key_for ~workload ~unroll_mode ~unroll_factor ~opt_level ~config
    ~fingerprint:(Fingerprint.program pre)

(* compile + capture one grid cell *)
let capture_cell ?unroll ~level config source =
  let pre = Ilp_core.Ilp.compile_unscheduled ?unroll ~level config source in
  (pre, Trace_buffer.capture pre)

(* ------------------------------------------------------------------ *)
(* round trips                                                         *)

let check_roundtrip name key pre trace =
  let packed = Trace_buffer.pack trace in
  let bytes = Codec.encode key packed in
  match Codec.decode bytes with
  | Error msg -> Alcotest.failf "%s: decode failed: %s" name msg
  | Ok (key', packed') ->
      Alcotest.(check bool) (name ^ ": key survives") true
        (Codec.equal_key key key');
      let trace' = Trace_buffer.unpack packed' pre in
      Alcotest.(check bool)
        (name ^ ": unpack(decode(encode(pack))) = capture")
        true
        (Trace_buffer.equal trace trace')

(* every workload at its default compilation *)
let test_roundtrip_all_workloads () =
  List.iter
    (fun (w : W.t) ->
      let pre, trace = capture_cell ~level:Ilp_core.Ilp.O4 Presets.base
          w.W.source in
      let key = key_of ~workload:w.W.name pre in
      check_roundtrip w.W.name key pre trace)
    Ilp_workloads.Registry.all

(* one workload across the (level, unroll, register split) grid *)
let test_roundtrip_grid () =
  let w = find_workload "linpack" in
  List.iter
    (fun level ->
      List.iter
        (fun unroll ->
          List.iter
            (fun (temps, homes) ->
              let config =
                Config.make "grid" ~temp_regs:temps ~home_regs:homes
              in
              let source =
                match unroll with
                | Some { Ilp_core.Ilp.mode = Ilp_lang.Unroll.Careful; _ } ->
                    W.source_for_mode w `Careful
                | _ -> w.W.source
              in
              let pre, trace = capture_cell ?unroll ~level config source in
              let unroll_mode, unroll_factor =
                match unroll with
                | None -> (`None, 1)
                | Some { Ilp_core.Ilp.mode = Ilp_lang.Unroll.Naive; factor; _ }
                  ->
                    (`Naive, factor)
                | Some
                    { Ilp_core.Ilp.mode = Ilp_lang.Unroll.Careful; factor; _ }
                  ->
                    (`Careful, factor)
              in
              let key =
                key_of ~workload:"linpack" ~unroll_mode ~unroll_factor
                  ~opt_level:(Ilp_core.Ilp.level_rank level) ~config pre
              in
              let name =
                Printf.sprintf "linpack O%d %s t%d.h%d"
                  (Ilp_core.Ilp.level_rank level)
                  (match unroll_mode with
                  | `None -> "plain"
                  | `Naive -> Printf.sprintf "naive%d" unroll_factor
                  | `Careful -> Printf.sprintf "careful%d" unroll_factor)
                  temps homes
              in
              check_roundtrip name key pre trace)
            [ (16, 26); (8, 12) ])
        [ None;
          Some
            { Ilp_core.Ilp.mode = Ilp_lang.Unroll.Naive; factor = 2;
              bounds = false };
          Some
            { Ilp_core.Ilp.mode = Ilp_lang.Unroll.Careful; factor = 4;
              bounds = false } ])
    [ Ilp_core.Ilp.O0; Ilp_core.Ilp.O4 ]

(* The cross-process contract, simulated in-process: compile the same
   source twice (fresh instruction ids the second time), store the
   first capture, re-attach it to the second compile.  Fingerprints
   must agree and the reloaded trace must replay bit-identically. *)
let prop_roundtrip_random_programs =
  QCheck2.Test.make ~count:20
    ~name:"random programs: stored trace re-attaches across recompilation"
    ~print:(fun s -> s)
    Gen_minimod.program
    (fun src ->
      let level = Ilp_core.Ilp.O4 in
      let pre1, trace1 =
        try capture_cell ~level Presets.base src
        with _ -> QCheck2.assume_fail ()
      in
      let pre2 =
        Ilp_core.Ilp.compile_unscheduled ~level Presets.base src
      in
      let fp1 = Fingerprint.program pre1 in
      let fp2 = Fingerprint.program pre2 in
      if not (Int64.equal fp1 fp2) then false
      else
        let key = key_of ~workload:"qcheck" pre1 in
        let bytes = Codec.encode key (Trace_buffer.pack trace1) in
        match Codec.decode_for key bytes with
        | Error _ -> false
        | Ok packed ->
            let trace2 = Trace_buffer.unpack packed pre2 in
            let config = Presets.superscalar 4 in
            let run b t =
              let binary = Ilp_core.Ilp.schedule ~level config b in
              Ilp_sim.Metrics.measure_replay config t binary
            in
            run pre1 trace1 = run pre2 trace2)

(* ------------------------------------------------------------------ *)
(* rejection: every damaged file fails loudly                          *)

let small_fixture =
  lazy
    (let w = find_workload "whet" in
     let pre, trace =
       capture_cell ~level:Ilp_core.Ilp.O4 Presets.base w.W.source
     in
     let key = key_of ~workload:"whet" pre in
     (pre, trace, key, Codec.encode key (Trace_buffer.pack trace)))

let flip bytes pos =
  let b = Bytes.copy bytes in
  Bytes.set_uint8 b pos (Bytes.get_uint8 b pos lxor 0x40);
  b

let test_corruption_rejected () =
  let _, _, _, bytes = Lazy.force small_fixture in
  let n = Bytes.length bytes in
  (* representative offsets: magic, version, key block, payload middle,
     final CRC *)
  List.iter
    (fun pos ->
      match Codec.decode (flip bytes pos) with
      | Error _ -> ()
      | Ok _ ->
          Alcotest.failf "flipping byte %d of %d was not detected" pos n)
    [ 0; 9; 14; 40; n / 2; n - 5; n - 1 ]

let prop_any_single_flip_rejected =
  QCheck2.Test.make ~count:200
    ~name:"any single flipped byte is rejected (CRC or earlier check)"
    ~print:QCheck2.Print.int
    QCheck2.Gen.(int_bound 0x3fffffff)
    (fun raw ->
      let _, _, _, bytes = Lazy.force small_fixture in
      let pos = raw mod Bytes.length bytes in
      Result.is_error (Codec.decode (flip bytes pos)))

let test_truncation_rejected () =
  let _, _, _, bytes = Lazy.force small_fixture in
  let n = Bytes.length bytes in
  List.iter
    (fun keep ->
      match Codec.decode (Bytes.sub bytes 0 keep) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "truncation to %d of %d not detected" keep n)
    [ 0; 4; 12; 40; n / 2; n - 1 ]

(* bump the version field and re-stamp a valid CRC: the skew itself
   must be what gets rejected *)
let test_version_skew_rejected () =
  let _, _, _, bytes = Lazy.force small_fixture in
  let b = Bytes.copy bytes in
  let n = Bytes.length b in
  Bytes.set_int32_le b 8 (Int32.of_int (Codec.format_version + 1));
  let crc = Ilp_store.Checksum.Crc32.bytes b ~pos:0 ~len:(n - 4) in
  Bytes.set_int32_le b (n - 4) (Int32.of_int crc);
  match Codec.decode b with
  | Ok _ -> Alcotest.fail "version skew not detected"
  | Error msg ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool)
        ("skew message names the version: " ^ msg)
        true
        (contains msg "version")

let test_key_collision_rejected () =
  let pre, _, key, bytes = Lazy.force small_fixture in
  let other = { key with Codec.workload = "somebody-else" } in
  (match Codec.decode_for other bytes with
  | Ok _ -> Alcotest.fail "key collision not detected"
  | Error msg ->
      Alcotest.(check bool)
        ("collision message mentions both keys: " ^ msg)
        true
        (String.length msg > 0));
  ignore pre

(* A stored trace passes every byte-level check and is still refused
   when it does not fit the program: [unpack] follows its visits through
   the program's segments and recounts its totals. *)
let reload_rejected ~because name pre key (pk : Trace_buffer.packed) =
  match Codec.decode_for key (Codec.encode key pk) with
  | Error msg -> Alcotest.failf "%s: decode failed: %s" name msg
  | Ok stored -> (
      match Trace_buffer.unpack stored pre with
      | exception Trace_buffer.Divergence msg ->
          let contains hay needle =
            let nh = String.length hay and nn = String.length needle in
            let rec at i =
              i + nn <= nh && (String.sub hay i nn = needle || at (i + 1))
            in
            at 0
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s" name msg)
            true (contains msg because)
      | _ -> Alcotest.failf "%s: unpack accepted the trace" name)

(* Replace a visit by a segment that control cannot reach from the
   visit before it: one that is neither that segment's fall-through
   successor nor its target, after a segment that does not return. *)
let test_unpack_rejects_impossible_visit () =
  let pre, trace, key, _ = Lazy.force small_fixture in
  let l = Ilp_sim.Exec.layout pre in
  let last s = l.Ilp_sim.Exec.seg_first.(s) + l.Ilp_sim.Exec.seg_len.(s) - 1 in
  let successors s =
    let e = last s and t = l.Ilp_sim.Exec.target.(last s) in
    [ l.Ilp_sim.Exec.seg.(e + 1);
      (if t < 0 then -1 else l.Ilp_sim.Exec.seg.(t)) ]
  in
  let returns s =
    match l.Ilp_sim.Exec.code.(last s).Ilp_ir.Instr.op with
    | Ilp_ir.Opcode.Ret | Ilp_ir.Opcode.Halt -> true
    | _ -> false
  in
  let pk = Trace_buffer.pack trace in
  let n = Bigarray.Array1.dim pk.Trace_buffer.p_visits in
  let visits = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout n in
  Bigarray.Array1.blit pk.Trace_buffer.p_visits visits;
  let k = ref (n / 2) in
  while returns (Int32.to_int visits.{!k - 1}) do
    incr k
  done;
  let before = Int32.to_int visits.{!k - 1} in
  let impossible =
    List.find (fun c -> not (List.mem c (successors before))) [ 0; 1; 2 ]
  in
  visits.{!k} <- Int32.of_int impossible;
  reload_rejected ~because:"cannot follow"
    "a visit that cannot follow the one before" pre key
    { pk with Trace_buffer.p_visits = visits }

let test_unpack_rejects_missing_address () =
  let pre, trace, key, _ = Lazy.force small_fixture in
  let pk = Trace_buffer.pack trace in
  let addrs = pk.Trace_buffer.p_addrs in
  reload_rejected ~because:"address" "a trace one address short" pre key
    { pk with
      Trace_buffer.p_addrs =
        Bigarray.Array1.sub addrs 0 (Bigarray.Array1.dim addrs - 1);
    }

(* ------------------------------------------------------------------ *)
(* the store on disk                                                   *)

let test_store_hit_miss_stats () =
  with_fresh_store (fun s ->
      let pre, trace, key, _ = Lazy.force small_fixture in
      (match Store.lookup s key with
      | Ok None -> ()
      | Ok (Some _) -> Alcotest.fail "hit in an empty store"
      | Error msg -> Alcotest.fail msg);
      Store.save s key (Trace_buffer.pack trace);
      (match Store.lookup s key with
      | Ok (Some packed) ->
          Alcotest.(check bool) "reloaded trace equals capture" true
            (Trace_buffer.equal trace (Trace_buffer.unpack packed pre))
      | Ok None -> Alcotest.fail "miss after save"
      | Error msg -> Alcotest.fail msg);
      let st = Store.stats s in
      Alcotest.(check int) "hits" 1 st.Store.hits;
      Alcotest.(check int) "misses" 1 st.Store.misses;
      Alcotest.(check int) "rejects" 0 st.Store.rejects;
      Alcotest.(check int) "writes" 1 st.Store.writes)

let test_store_rejects_corrupt_file () =
  with_fresh_store (fun s ->
      let _, trace, key, _ = Lazy.force small_fixture in
      Store.save s key (Trace_buffer.pack trace);
      let path = Filename.concat (Store.root s) (Codec.key_id key ^ ".trace") in
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let b = Bytes.create n in
      really_input ic b 0 n;
      close_in ic;
      let oc = open_out_bin path in
      output_bytes oc (flip b (n / 2));
      close_out oc;
      (match Store.lookup s key with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "corrupt file not rejected by lookup");
      Alcotest.(check int) "reject counted" 1 (Store.stats s).Store.rejects)

let test_verify_catches_renamed_file () =
  with_fresh_store (fun s ->
      let _, trace, key, _ = Lazy.force small_fixture in
      Store.save s key (Trace_buffer.pack trace);
      let good = Filename.concat (Store.root s) (Codec.key_id key ^ ".trace") in
      let bad = Filename.concat (Store.root s) "0123456789abcdef.trace" in
      Sys.rename good bad;
      match Store.verify s with
      | [ (file, Error _) ] ->
          Alcotest.(check string) "the renamed file" "0123456789abcdef.trace"
            file
      | results ->
          Alcotest.failf "expected one bad file, got %d result(s)"
            (List.length results))

let test_gc_is_lru () =
  with_fresh_store (fun s ->
      let _, trace, key, _ = Lazy.force small_fixture in
      let packed = Trace_buffer.pack trace in
      let keys =
        List.map
          (fun w -> { key with Codec.workload = w })
          [ "oldest"; "middle"; "newest" ]
      in
      List.iteri
        (fun i k ->
          Store.save s k packed;
          let path = Filename.concat (Store.root s) (Codec.key_id k ^ ".trace") in
          let t = 1000.0 *. float_of_int (i + 1) in
          Unix.utimes path t t)
        keys;
      let size_of k =
        (Unix.stat
           (Filename.concat (Store.root s) (Codec.key_id k ^ ".trace")))
          .Unix.st_size
      in
      let keep = size_of (List.nth keys 2) in
      let removed = Store.gc s ~max_bytes:keep in
      Alcotest.(check (list string))
        "evicted oldest-first, newest kept"
        [ Codec.key_id (List.hd keys) ^ ".trace";
          Codec.key_id (List.nth keys 1) ^ ".trace" ]
        (List.map fst removed);
      Alcotest.(check int) "one file left" 1 (List.length (Store.list s));
      Alcotest.(check int) "clear removes the rest" 1 (Store.clear s))

(* a successful lookup refreshes mtime, so a recently-hit file survives
   a gc that evicts a never-hit sibling written later *)
let test_hit_refreshes_lru () =
  with_fresh_store (fun s ->
      let _, trace, key, _ = Lazy.force small_fixture in
      let packed = Trace_buffer.pack trace in
      let k_hit = { key with Codec.workload = "hot" } in
      let k_cold = { key with Codec.workload = "cold" } in
      Store.save s k_hit packed;
      Store.save s k_cold packed;
      let path k =
        Filename.concat (Store.root s) (Codec.key_id k ^ ".trace")
      in
      Unix.utimes (path k_hit) 1000.0 1000.0;
      Unix.utimes (path k_cold) 2000.0 2000.0;
      (* the hit touches k_hit's mtime to now, far past 2000.0 *)
      (match Store.lookup s k_hit with
      | Ok (Some _) -> ()
      | _ -> Alcotest.fail "expected a hit");
      let removed =
        Store.gc s ~max_bytes:(Unix.stat (path k_hit)).Unix.st_size
      in
      Alcotest.(check (list string))
        "the never-hit file is evicted, the hit one survives"
        [ Codec.key_id k_cold ^ ".trace" ]
        (List.map fst removed))

(* ------------------------------------------------------------------ *)
(* the sweep engine over the store                                     *)

let collect_warnings f =
  let warnings = ref [] in
  let previous = !Experiments.store_warn in
  Experiments.store_warn := (fun msg -> warnings := msg :: !warnings);
  Fun.protect
    ~finally:(fun () -> Experiments.store_warn := previous)
    (fun () ->
      let r = f () in
      (r, List.rev !warnings))

let sweep_fingerprint runs =
  List.map
    (fun (r : Ilp_sim.Metrics.run) ->
      ( r.Ilp_sim.Metrics.dyn_instrs, r.Ilp_sim.Metrics.minor_cycles,
        r.Ilp_sim.Metrics.stall_cycles, r.Ilp_sim.Metrics.speedup,
        r.Ilp_sim.Metrics.sink ))
    runs

(* corrupt the single stored file between two sweeps: the second sweep
   must warn, fall back to a fresh capture, repair the store, and
   produce identical numbers *)
let test_sweep_falls_back_on_corruption () =
  with_fresh_store (fun s ->
      let w = find_workload "whet" in
      let configs = [ Presets.base; Presets.superscalar 4 ] in
      let sweep () =
        Experiments.with_store (Some s) (fun () ->
            Experiments.measure_workload_many w configs)
      in
      let reference = sweep_fingerprint (sweep ()) in
      Alcotest.(check int) "one capture group, one write" 1
        (Store.stats s).Store.writes;
      (* flip one payload byte of the only stored file *)
      (match Store.list s with
      | [ e ] ->
          let ic = open_in_bin e.Store.file in
          let n = in_channel_length ic in
          let b = Bytes.create n in
          really_input ic b 0 n;
          close_in ic;
          let oc = open_out_bin e.Store.file in
          output_bytes oc (flip b (n - 20));
          close_out oc
      | es -> Alcotest.failf "expected one stored file, got %d"
            (List.length es));
      Store.reset_stats s;
      Experiments.reset_capture_count ();
      let second, warnings = collect_warnings sweep in
      Alcotest.(check bool) "results unchanged by the corrupt file" true
        (sweep_fingerprint second = reference);
      Alcotest.(check int) "the corrupt file was rejected" 1
        (Store.stats s).Store.rejects;
      Alcotest.(check int) "fell back to one fresh capture" 1
        (Experiments.capture_count ());
      Alcotest.(check int) "and repaired the store" 1
        (Store.stats s).Store.writes;
      Alcotest.(check bool)
        (Printf.sprintf "a diagnostic was emitted (%d)" (List.length warnings))
        true
        (List.exists
           (fun msg ->
             (* the CRC failure and the fallback are both named *)
             String.length msg > 0)
           warnings);
      (* third sweep: clean hit, no execution *)
      Store.reset_stats s;
      Experiments.reset_capture_count ();
      let third = sweep () in
      Alcotest.(check bool) "post-repair results identical" true
        (sweep_fingerprint third = reference);
      Alcotest.(check int) "post-repair sweep hits" 1 (Store.stats s).Store.hits;
      Alcotest.(check int) "post-repair sweep executes nothing" 0
        (Experiments.capture_count ()))

(* the acceptance criterion: a warm fig4_1 performs zero workload
   execution and reproduces the cold run's metrics exactly *)
let test_fig4_1_warm_is_free_and_identical () =
  with_fresh_store (fun s ->
      let sweep () =
        Experiments.with_store (Some s) (fun () -> Experiments.fig4_1 ())
      in
      Experiments.reset_capture_count ();
      let cold = sweep () in
      Alcotest.(check int) "cold run captures every workload once" 8
        (Experiments.capture_count ());
      Store.reset_stats s;
      Experiments.reset_capture_count ();
      let warm = sweep () in
      Alcotest.(check int) "warm run executes zero workloads" 0
        (Experiments.capture_count ());
      let st = Store.stats s in
      Alcotest.(check int) "warm run misses nothing" 0 st.Store.misses;
      Alcotest.(check int) "warm run rejects nothing" 0 st.Store.rejects;
      Alcotest.(check int) "warm run hits every group" 8 st.Store.hits;
      Alcotest.(check bool) "warm metrics bit-identical to cold" true
        (cold = warm))

(* under --check, a hit is verified against a fresh capture *)
let test_checked_sweep_verifies_hits () =
  with_fresh_store (fun s ->
      let w = find_workload "whet" in
      let sweep () =
        Experiments.with_store (Some s) (fun () ->
            Experiments.with_checks true (fun () ->
                Experiments.measure_workload_many w [ Presets.base ]))
      in
      let reference = sweep_fingerprint (sweep ()) in
      Experiments.reset_capture_count ();
      let warm = sweep_fingerprint (sweep ()) in
      Alcotest.(check bool) "checked warm sweep agrees" true
        (warm = reference);
      Alcotest.(check int)
        "checked warm sweep still hits the store" 1
        (Store.stats s).Store.hits;
      Alcotest.(check int)
        "but re-captures to verify the stored trace" 1
        (Experiments.capture_count ()))

let tests =
  [ Alcotest.test_case "round trip: every workload" `Slow
      test_roundtrip_all_workloads;
    Alcotest.test_case "round trip: level x unroll x split grid" `Slow
      test_roundtrip_grid;
    QCheck_alcotest.to_alcotest prop_roundtrip_random_programs;
    Alcotest.test_case "corruption rejected at fixed offsets" `Quick
      test_corruption_rejected;
    QCheck_alcotest.to_alcotest prop_any_single_flip_rejected;
    Alcotest.test_case "truncation rejected" `Quick test_truncation_rejected;
    Alcotest.test_case "version skew rejected" `Quick
      test_version_skew_rejected;
    Alcotest.test_case "key collision rejected" `Quick
      test_key_collision_rejected;
    Alcotest.test_case "unpack rejects a visit that cannot follow" `Quick
      test_unpack_rejects_impossible_visit;
    Alcotest.test_case "unpack rejects a trace an address short" `Quick
      test_unpack_rejects_missing_address;
    Alcotest.test_case "store hit/miss/stats" `Quick
      test_store_hit_miss_stats;
    Alcotest.test_case "store rejects corrupt file" `Quick
      test_store_rejects_corrupt_file;
    Alcotest.test_case "verify catches renamed files" `Quick
      test_verify_catches_renamed_file;
    Alcotest.test_case "gc evicts LRU first" `Quick test_gc_is_lru;
    Alcotest.test_case "a hit refreshes LRU order" `Quick
      test_hit_refreshes_lru;
    Alcotest.test_case "sweep falls back on corruption" `Slow
      test_sweep_falls_back_on_corruption;
    Alcotest.test_case "warm fig4_1: zero execution, identical metrics"
      `Slow test_fig4_1_warm_is_free_and_identical;
    Alcotest.test_case "checked sweep verifies hits" `Slow
      test_checked_sweep_verifies_hits ]
