(* Canonical program fingerprint — see the .mli for what is and is not
   covered.  The traversal order (globals, then functions in program
   order, blocks in layout order, instructions in block order) is the
   same order [Exec.layout] numbers the issue segments of a stored
   trace in. *)

open Ilp_ir

let program (p : Program.t) =
  let h = ref Checksum.Fnv.empty in
  let int x = h := Checksum.Fnv.int !h x in
  let str s = h := Checksum.Fnv.string !h s in
  let i64 x = h := Checksum.Fnv.int64 !h x in
  (* block labels canonicalized by ordinal of first appearance *)
  let ordinal = Hashtbl.create 64 in
  List.iter
    (fun (f : Func.t) ->
      List.iter
        (fun (b : Block.t) ->
          let name = Label.to_string b.Block.label in
          if not (Hashtbl.mem ordinal name) then
            Hashtbl.add ordinal name (Hashtbl.length ordinal))
        f.Func.blocks)
    p.Program.functions;
  let label l =
    let name = Label.to_string l in
    match Hashtbl.find_opt ordinal name with
    | Some k ->
        int 0;
        int k
    | None ->
        (* not a block label: a function-name target (source-derived,
           stable across processes) *)
        int 1;
        str name
  in
  int (List.length p.Program.globals);
  List.iter
    (fun (g : Program.global) ->
      str g.Program.gname;
      int g.Program.words;
      match g.Program.init with
      | Program.Zero -> int 0
      | Program.Ints xs ->
          int 1;
          int (List.length xs);
          List.iter int xs
      | Program.Floats xs ->
          int 2;
          int (List.length xs);
          List.iter (fun x -> i64 (Int64.bits_of_float x)) xs)
    p.Program.globals;
  int (List.length p.Program.functions);
  List.iter
    (fun (f : Func.t) ->
      str f.Func.name;
      int f.Func.frame_size;
      int f.Func.n_params;
      int (List.length f.Func.blocks);
      List.iter
        (fun (b : Block.t) ->
          label b.Block.label;
          int (List.length b.Block.instrs);
          List.iter
            (fun (i : Instr.t) ->
              str (Opcode.show i.Instr.op);
              (match i.Instr.dst with
              | None -> int min_int
              | Some r -> int (Reg.index r));
              int (List.length i.Instr.srcs);
              List.iter
                (function
                  | Instr.Oreg r ->
                      int 0;
                      int (Reg.index r)
                  | Instr.Oimm n ->
                      int 1;
                      int n
                  | Instr.Ofimm x ->
                      int 2;
                      i64 (Int64.bits_of_float x))
                i.Instr.srcs;
              (match i.Instr.target with None -> int min_int | Some l -> label l);
              int i.Instr.offset)
            b.Block.instrs)
        f.Func.blocks)
    p.Program.functions;
  !h
