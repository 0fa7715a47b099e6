(* The CRAY-1 case study of Sections 2.7 and 4.2: the machine's average
   degree of superpipelining is already ~4.4, so parallel instruction
   issue buys almost nothing — unless one (incorrectly) simulates it
   with unit latencies, which is the mistake the paper calls out.

     dune exec examples/cray1_study.exe *)

let () =
  print_string Ilp_core.Experiments.(measure (render_table2_1 ()));
  print_newline ();
  print_string (Ilp_core.Experiments.render_fig4_3 ());
  print_newline ();
  print_string Ilp_core.Experiments.(measure (render_fig4_4 ()))
