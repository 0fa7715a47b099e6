(* Control-flow graph view of a function: blocks as an array, successor
   and predecessor edges, and a reverse postorder for dataflow passes. *)

open Ilp_ir

type t = {
  func : Func.t;
  blocks : Block.t array;
  index_of : (string, int) Hashtbl.t;
  succs : int list array;
  preds : int list array;
  rpo : int array;  (** reverse postorder of reachable blocks *)
}

let build (f : Func.t) =
  let blocks = Array.of_list f.Func.blocks in
  let n = Array.length blocks in
  let index_of = Hashtbl.create (2 * n) in
  Array.iteri
    (fun i b -> Hashtbl.replace index_of (Label.to_string b.Block.label) i)
    blocks;
  let succs = Array.make n [] in
  let preds = Array.make n [] in
  Array.iteri
    (fun i b ->
      let explicit =
        List.filter_map
          (fun l -> Hashtbl.find_opt index_of (Label.to_string l))
          (Block.branch_targets b)
      in
      let fallthrough =
        if Block.falls_through b && i + 1 < n then [ i + 1 ] else []
      in
      succs.(i) <- List.sort_uniq compare (explicit @ fallthrough))
    blocks;
  Array.iteri
    (fun i ss -> List.iter (fun s -> preds.(s) <- i :: preds.(s)) ss)
    succs;
  (* reverse postorder from the entry *)
  let visited = Array.make n false in
  let order = ref [] in
  let rec dfs i =
    if not visited.(i) then begin
      visited.(i) <- true;
      List.iter dfs succs.(i);
      order := i :: !order
    end
  in
  if n > 0 then dfs 0;
  { func = f; blocks; index_of; succs; preds; rpo = Array.of_list !order }

let n_blocks t = Array.length t.blocks

let positions t =
  let first = Array.make (n_blocks t + 1) 0 in
  Array.iteri
    (fun b (blk : Block.t) ->
      first.(b + 1) <- first.(b) + List.length blk.Block.instrs)
    t.blocks;
  let instrs =
    Array.of_list
      (List.concat_map (fun (b : Block.t) -> b.Block.instrs)
         (Array.to_list t.blocks))
  in
  (first, instrs)

let reachable t i = Array.exists (fun j -> j = i) t.rpo

(* Rebuild the function from (possibly rewritten) blocks. *)
let to_func t blocks =
  { t.func with Func.blocks = Array.to_list blocks }
