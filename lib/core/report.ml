(* Text rendering for experiment results: aligned tables and ASCII line
   charts, so every figure of the paper has a terminal rendition. *)

let fixed columns =
  (* column widths from content *)
  match columns with
  | [] -> ""
  | _ ->
      let n = List.length (List.hd columns) in
      let widths = Array.make n 0 in
      List.iter
        (fun row ->
          List.iteri
            (fun i cell -> widths.(i) <- max widths.(i) (String.length cell))
            row)
        columns;
      let render_row row =
        String.concat "  "
          (List.mapi
             (fun i cell -> Printf.sprintf "%*s" widths.(i) cell)
             row)
      in
      String.concat "\n" (List.map render_row columns)

(* A table with a header row, a separator, and data rows. *)
let table ~header rows =
  match rows with
  | [] -> fixed [ header ]
  | _ ->
      let n = List.length header in
      let widths = Array.make n 0 in
      List.iter
        (fun row ->
          List.iteri
            (fun i cell ->
              if i < n then widths.(i) <- max widths.(i) (String.length cell))
            row)
        (header :: rows);
      let render_row row =
        String.concat "  "
          (List.mapi (fun i cell -> Printf.sprintf "%-*s" widths.(i) cell) row)
      in
      let sep =
        String.concat "  "
          (List.init n (fun i -> String.make widths.(i) '-'))
      in
      String.concat "\n" (render_row header :: sep :: List.map render_row rows)

type series = { label : char; points : (float * float) list }

(* An ASCII scatter/line chart, 60 columns by 18 rows.  Each series is
   plotted with its label character; overlapping points show the later
   series.  Axes are scaled to the data, y from 0. *)
let line_chart ?(x_label = "") ?(y_label = "") series =
  let width = 60 and height = 18 in
  let all_points = List.concat_map (fun s -> s.points) series in
  match all_points with
  | [] -> "(no data)"
  | _ ->
      let xs = List.map fst all_points and ys = List.map snd all_points in
      let x_min = List.fold_left min infinity xs in
      let x_max = List.fold_left max neg_infinity xs in
      let y_min = 0.0 in
      let y_max = List.fold_left max neg_infinity ys in
      let y_max = if y_max <= y_min then y_min +. 1.0 else y_max in
      let x_max = if x_max <= x_min then x_min +. 1.0 else x_max in
      let grid = Array.make_matrix height width ' ' in
      let plot x y c =
        let col =
          int_of_float
            ((x -. x_min) /. (x_max -. x_min) *. float_of_int (width - 1))
        in
        let row =
          int_of_float
            ((y -. y_min) /. (y_max -. y_min) *. float_of_int (height - 1))
        in
        if col >= 0 && col < width && row >= 0 && row < height then
          grid.(height - 1 - row).(col) <- c
      in
      (* connect consecutive points of each series with interpolation *)
      List.iter
        (fun s ->
          let sorted =
            List.sort (fun (a, _) (b, _) -> compare a b) s.points
          in
          let rec walk = function
            | (x1, y1) :: ((x2, y2) :: _ as rest) ->
                let steps = 24 in
                for k = 0 to steps do
                  let t = float_of_int k /. float_of_int steps in
                  plot (x1 +. (t *. (x2 -. x1))) (y1 +. (t *. (y2 -. y1)))
                    s.label
                done;
                walk rest
            | [ (x, y) ] -> plot x y s.label
            | [] -> ()
          in
          walk sorted)
        series;
      let buf = Buffer.create 1024 in
      if y_label <> "" then Buffer.add_string buf (y_label ^ "\n");
      Array.iteri
        (fun i row ->
          let y =
            y_max
            -. (float_of_int i /. float_of_int (height - 1) *. (y_max -. y_min))
          in
          Buffer.add_string buf (Printf.sprintf "%8.2f |" y);
          Buffer.add_string buf (String.init width (fun j -> row.(j)));
          Buffer.add_char buf '\n')
        grid;
      Buffer.add_string buf (Printf.sprintf "%8s +%s\n" "" (String.make width '-'));
      Buffer.add_string buf
        (Printf.sprintf "%8s  %-8.2f%*s%8.2f   %s\n" "" x_min (width - 16) ""
           x_max x_label);
      Buffer.contents buf

let section title body =
  let bar = String.make (String.length title) '=' in
  Printf.sprintf "%s\n%s\n\n%s\n" title bar body
