(* Domain-pool tests.

   Two layers: QCheck properties of [Ilp_par.Pool] itself (a map over
   the pool is indistinguishable from [Array.map], including which
   exception escapes), and a determinism suite asserting that the
   parallel sweep engine renders experiments byte-identically to the
   serial engine at every job count. *)

module Pool = Ilp_par.Pool
module Experiments = Ilp_core.Experiments

(* ------------------------------------------------------------------ *)
(* Pool properties                                                     *)

let prop_map_is_array_map =
  QCheck2.Test.make ~count:100
    ~name:"Pool.map = Array.map, order preserved (jobs 1-4)"
    ~print:QCheck2.Print.(pair int (list int))
    QCheck2.Gen.(pair (int_range 1 4) (list_size (int_bound 200) int))
    (fun (jobs, xs) ->
      let xs = Array.of_list xs in
      let f x = (x * x) - (3 * x) in
      let expected = Array.map f xs in
      Pool.with_pool ~jobs (fun pool -> Pool.map pool f xs = expected))

exception Boom of int

let prop_lowest_index_exception =
  QCheck2.Test.make ~count:100
    ~name:"Pool.map raises the lowest-index worker exception"
    ~print:QCheck2.Print.(triple int int (list bool))
    QCheck2.Gen.(
      triple (int_range 1 4) (int_range 1 100)
        (list_size (int_range 1 100) bool))
    (fun (jobs, n, fail_flags) ->
      let fails = Array.of_list fail_flags in
      let n = max n (Array.length fails) in
      let first_failure = ref None in
      Array.iteri
        (fun i b -> if b && !first_failure = None then first_failure := Some i)
        fails;
      let f i =
        if i < Array.length fails && fails.(i) then raise (Boom i) else i
      in
      let items = Array.init n (fun i -> i) in
      let outcome =
        Pool.with_pool ~jobs (fun pool ->
            match Pool.map pool f items with
            | _ -> None
            | exception Boom i -> Some i)
      in
      outcome = !first_failure)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_map_is_array_map; prop_lowest_index_exception ]

(* ------------------------------------------------------------------ *)
(* Pool unit tests                                                     *)

let test_pool_reuse () =
  Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check int) "pool width" 4 (Pool.jobs pool);
      for round = 1 to 5 do
        let xs = Array.init (17 * round) (fun i -> i) in
        Alcotest.(check (array int))
          (Printf.sprintf "batch %d" round)
          (Array.map (fun x -> x + round) xs)
          (Pool.map pool (fun x -> x + round) xs)
      done;
      Alcotest.(check (array int)) "empty batch" [||]
        (Pool.map pool (fun x -> x) [||]))

let test_shutdown_rejects_use () =
  let pool = Pool.create ~jobs:2 in
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  Alcotest.(check bool) "map after shutdown is an error" true
    (match Pool.map pool (fun x -> x) [| 1 |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_jobs_clamped () =
  Pool.with_pool ~jobs:0 (fun pool ->
      Alcotest.(check int) "jobs clamped to 1" 1 (Pool.jobs pool))

(* Nested batches on one pool used to deadlock (the inner batch waited
   for workers parked in the outer one); they must raise instead, and
   the pool must stay usable afterwards. *)
let test_nested_batch_rejected () =
  Pool.with_pool ~jobs:2 (fun pool ->
      Alcotest.(check bool) "nested map raises Invalid_argument" true
        (match
           Pool.map pool (fun x -> Pool.map pool (fun y -> y) [| x |]) [| 1 |]
         with
        | _ -> false
        | exception Invalid_argument _ -> true);
      Alcotest.(check (array int)) "pool still usable after rejection"
        [| 2; 4; 6 |]
        (Pool.map pool (fun x -> 2 * x) [| 1; 2; 3 |]))

(* Two failing items in one batch: either may finish first, but the
   lower index must win deterministically. *)
let test_two_raisers_lowest_wins () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let f i = if i = 23 || i = 77 then raise (Boom i) else i in
      Alcotest.(check int) "lowest-index exception escapes" 23
        (match Pool.map pool f (Array.init 100 Fun.id) with
        | _ -> -1
        | exception Boom i -> i))

(* Asking for more domains than the runtime allows fails cleanly: the
   workers already started are joined, so a later pool still starts. *)
let test_create_beyond_domain_limit () =
  Alcotest.(check bool) "create ~jobs:100000 raises Invalid_argument" true
    (match Pool.create ~jobs:100_000 with
    | pool ->
        Pool.shutdown pool;
        false
    | exception Invalid_argument _ -> true);
  Alcotest.(check (array int)) "a 2-job pool works afterwards" [| 2; 4; 6 |]
    (Pool.with_pool ~jobs:2 (fun pool ->
         Pool.map pool (fun x -> 2 * x) [| 1; 2; 3 |]))

(* ------------------------------------------------------------------ *)
(* engine determinism: parallel sweeps render byte-identically          *)

let determinism_case name =
  Alcotest.test_case ("serial = jobs 1/2/4: " ^ name) `Slow (fun () ->
      let render = Option.get (Experiments.find name) in
      let serial = Experiments.with_jobs 0 render in
      List.iter
        (fun jobs ->
          Alcotest.(check string)
            (Printf.sprintf "%s, jobs=%d" name jobs)
            serial
            (Experiments.with_jobs jobs render))
        [ 1; 2; 4 ])

let determinism_tests =
  List.map determinism_case [ "fig4_1"; "fig4_5"; "ablation_class_conflicts" ]

(* Cells that differ only in the machine's name are replayed once: in
   Fig. 4-1, superscalar-1 and superpipelined-1 are both the base
   machine, so the 8 x 16 plan holds 120 distinct cells. *)
let test_fig4_1_distinct_cells () =
  let module Presets = Ilp_machine.Presets in
  let configs =
    List.map Presets.superscalar Experiments.degrees
    @ List.map Presets.superpipelined Experiments.degrees
  in
  let requests =
    List.concat_map
      (fun w -> List.map (Experiments.request w) configs)
      Ilp_workloads.Registry.all
  in
  Alcotest.(check int) "requests" 128 (List.length requests);
  Alcotest.(check int) "distinct cells" 120
    (List.length
       (List.sort_uniq compare (List.map Experiments.cell_key requests)))

(* [experiment --all] measures the plans of every experiment as one
   sweep: its 620 cells share 103 captures and 361 replays. *)
let test_all_plans_share () =
  let cells =
    List.concat_map
      (fun (_, plan) -> Array.to_list (plan ()).Experiments.cells)
      Experiments.all
  in
  let distinct key =
    List.length (List.sort_uniq compare (List.map key cells))
  in
  Alcotest.(check int) "cells" 620 (List.length cells);
  Alcotest.(check int) "distinct captures" 103
    (distinct Experiments.capture_key);
  Alcotest.(check int) "distinct replays" 361 (distinct Experiments.cell_key)

let tests =
  qcheck_tests
  @ [ Alcotest.test_case "pool reuse across batches" `Quick test_pool_reuse;
      Alcotest.test_case "shutdown" `Quick test_shutdown_rejects_use;
      Alcotest.test_case "jobs clamped" `Quick test_jobs_clamped;
      Alcotest.test_case "nested batch rejected" `Quick
        test_nested_batch_rejected;
      Alcotest.test_case "two raisers: lowest index wins" `Quick
        test_two_raisers_lowest_wins;
      Alcotest.test_case "create beyond the domain limit" `Quick
        test_create_beyond_domain_limit ]
  @ [ Alcotest.test_case "fig4_1 replays 120 distinct cells" `Quick
        test_fig4_1_distinct_cells ]
  @ determinism_tests
  @ [ Alcotest.test_case "--all plans share captures and replays" `Quick
        test_all_plans_share ]
