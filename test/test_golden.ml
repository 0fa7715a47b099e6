(* Golden pins for every rendered experiment.

   Each entry of [Experiments.all] is rendered through the CLI, as a
   user would, and compared byte for byte with [golden/<name>.txt].
   The output is deterministic at any job count, so any difference is a
   change in what the instrument measures.  After an intended change,
   regenerate a pin with

     dune exec bin/ilp_cli.exe -- experiment NAME --jobs 2 > test/golden/NAME.txt *)

let cli = "../bin/ilp_cli.exe"

let golden name = Filename.concat "golden" (name ^ ".txt")

(* first line on which the two texts differ, 1-based, with both lines *)
let first_difference expected actual =
  let rec go k = function
    | e :: es, a :: as_ -> if String.equal e a then go (k + 1) (es, as_) else (k, e, a)
    | e :: _, [] -> (k, e, "<end of output>")
    | [], a :: _ -> (k, "<end of file>", a)
    | [], [] -> (k, "", "")
  in
  go 1 (String.split_on_char '\n' expected, String.split_on_char '\n' actual)

let check_experiment name () =
  if not (Sys.file_exists (golden name)) then
    Alcotest.failf "no golden file %s for experiment %s" (golden name) name;
  let expected = In_channel.with_open_bin (golden name) In_channel.input_all in
  let out = Filename.temp_file ("ilp_golden_" ^ name) ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let status =
        Sys.command
          (Printf.sprintf "%s experiment %s --jobs 2 > %s" cli name
             (Filename.quote out))
      in
      if status <> 0 then
        Alcotest.failf "experiment %s exited with status %d" name status;
      let actual = In_channel.with_open_bin out In_channel.input_all in
      if not (String.equal expected actual) then
        let line, e, a = first_difference expected actual in
        Alcotest.failf "experiment %s differs from %s at line %d:\n  want: %s\n  got:  %s"
          name (golden name) line e a)

(* every pin belongs to an experiment that still exists *)
let test_no_orphans () =
  let names = List.map fst Ilp_core.Experiments.all in
  Array.iter
    (fun file ->
      match Filename.chop_suffix_opt ~suffix:".txt" file with
      | Some name when List.mem name names -> ()
      | _ -> Alcotest.failf "golden/%s pins no experiment" file)
    (Sys.readdir "golden")

let tests =
  Alcotest.test_case "no orphaned pins" `Quick test_no_orphans
  :: List.map
       (fun (name, _) -> Alcotest.test_case name `Slow (check_experiment name))
       Ilp_core.Experiments.all
