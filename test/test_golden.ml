(* Golden pins for every rendered experiment, and for the other
   commands that print measurements.

   Each entry of [Experiments.all] is rendered through the CLI, as a
   user would, and compared byte for byte with [golden/<name>.txt].
   The output is deterministic at any job count, so any difference is a
   change in what the instrument measures.  After an intended change,
   regenerate a pin with

     dune exec bin/ilp_cli.exe -- experiment NAME --jobs 2 > test/golden/NAME.txt

   The command lines of [commands] are pinned the same way in
   [cli/<name>.txt]; regenerate one by running its command line into
   that file. *)

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

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Run [args] through the CLI and compare its output with [expected],
   the contents of [pin]. *)
let check_text ~pin expected args =
  let out = Filename.temp_file "ilp_golden" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let status =
        Sys.command (Printf.sprintf "%s %s > %s" cli args (Filename.quote out))
      in
      if status <> 0 then Alcotest.failf "%s exited with status %d" args status;
      let actual = read_file out in
      if not (String.equal expected actual) then
        let line, e, a = first_difference expected actual in
        Alcotest.failf "%s differs from %s at line %d:\n  want: %s\n  got:  %s"
          args pin line e a)

let check_output ~pin args () =
  if not (Sys.file_exists pin) then Alcotest.failf "no pin %s for %s" pin args;
  check_text ~pin (read_file pin) args

let check_experiment name =
  check_output ~pin:(golden name)
    (Printf.sprintf "experiment %s --jobs 2" name)

(* the measurement commands besides [experiment]: one pin per command
   line, in [cli/] *)
let commands =
  [ ("run_whet_cray1", "run -b whet -m cray1");
    ("run_smooth_checked", "run -b smooth -m superscalar-4 -u 4 --check --memdep");
    ("profile_linpack", "profile -b linpack -m superscalar-4") ]

(* every pin belongs to an experiment that still exists *)
let test_no_orphans () =
  let names = List.map fst Ilp_core.Experiments.all in
  Array.iter
    (fun file ->
      match Filename.chop_suffix_opt ~suffix:".txt" file with
      | Some name when List.mem name names -> ()
      | _ -> Alcotest.failf "golden/%s pins no experiment" file)
    (Sys.readdir "golden")

(* [--all] joins every experiment's plan into one sweep; its output is
   still every pin, in [Experiments.all] order, joined by newlines. *)
let test_all_is_joined_pins () =
  check_text ~pin:"the joined pins"
    (String.concat "\n"
       (List.map (fun (name, _) -> read_file (golden name))
          Ilp_core.Experiments.all))
    "experiment --all --jobs 2"

let tests =
  List.map
    (fun (name, _) -> Alcotest.test_case name `Slow (check_experiment name))
    Ilp_core.Experiments.all
  @ List.map
      (fun (name, args) ->
        Alcotest.test_case args `Quick
          (check_output ~pin:(Filename.concat "cli" (name ^ ".txt")) args))
      commands
  @ [ Alcotest.test_case "no orphaned pins" `Quick test_no_orphans;
      Alcotest.test_case "experiment --all = joined pins" `Slow
        test_all_is_joined_pins ]
