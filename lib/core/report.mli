(** Text rendering for experiment results: aligned tables and ASCII line
    charts, so every figure of the paper has a terminal rendition. *)

val fixed : string list list -> string
(** Right-aligned columns, no header. *)

val table : header:string list -> string list list -> string
(** Left-aligned columns with a header row and separator. *)

type series = { label : char; points : (float * float) list }

val line_chart :
  ?x_label:string ->
  ?y_label:string ->
  series list ->
  string
(** Interpolated ASCII chart, 60 columns by 18 rows with y from 0;
    overlapping points show the later series. *)

val section : string -> string -> string
(** A titled block. *)
