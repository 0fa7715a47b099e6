(* Filesystem layer of the trace store.  See the .mli. *)

type t = {
  root : string;
  hits : int Atomic.t;
  misses : int Atomic.t;
  rejects : int Atomic.t;
  writes : int Atomic.t;
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    | Unix.Unix_error (e, _, _) ->
        raise (Sys_error (dir ^ ": " ^ Unix.error_message e))
  end
  else if not (Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": exists and is not a directory"))

let open_root root =
  mkdir_p root;
  { root;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    rejects = Atomic.make 0;
    writes = Atomic.make 0;
  }

let root t = t.root

let key_for ~workload ~unroll_mode ~unroll_factor ~opt_level
    ~(config : Ilp_machine.Config.t) ~fingerprint =
  { Codec.workload;
    unroll_mode;
    unroll_factor;
    opt_level;
    temp_regs = config.Ilp_machine.Config.temp_regs;
    home_regs = config.Ilp_machine.Config.home_regs;
    fingerprint;
  }

let path_of t key = Filename.concat t.root (Codec.key_id key ^ ".trace")

(* one read: the whole file into a Bytes, then decode in memory *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let n = in_channel_length ic in
      let b = Bytes.create n in
      really_input ic b 0 n;
      b)

let touch path = try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ()

let lookup t key =
  let path = path_of t key in
  if not (Sys.file_exists path) then begin
    Atomic.incr t.misses;
    Ok None
  end
  else
    match Codec.decode_for key (read_file path) with
    | Ok packed ->
        Atomic.incr t.hits;
        touch path;
        Ok (Some packed)
    | Error msg ->
        Atomic.incr t.rejects;
        Error (Printf.sprintf "%s: %s" path msg)
    | exception Sys_error msg ->
        Atomic.incr t.rejects;
        Error msg

let save t key packed =
  let bytes = Codec.encode key packed in
  let path = path_of t key in
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Domain.self () :> int)
  in
  let oc = open_out_bin tmp in
  (try
     output_bytes oc bytes;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path;
  Atomic.incr t.writes

type stats = { hits : int; misses : int; rejects : int; writes : int }

let stats (t : t) =
  { hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    rejects = Atomic.get t.rejects;
    writes = Atomic.get t.writes;
  }

let reset_stats (t : t) =
  Atomic.set t.hits 0;
  Atomic.set t.misses 0;
  Atomic.set t.rejects 0;
  Atomic.set t.writes 0

(* ---- maintenance --------------------------------------------------- *)

let is_trace f = Filename.check_suffix f ".trace"

type entry = {
  file : string;
  bytes : int;
  mtime : float;
  info : (Codec.key * Ilp_sim.Trace_buffer.packed, string) result;
}

let trace_files t =
  match Sys.readdir t.root with
  | files ->
      Array.to_list files
      |> List.filter is_trace
      |> List.map (Filename.concat t.root)
      |> List.sort compare
  | exception Sys_error _ -> []

let list t =
  trace_files t
  |> List.filter_map (fun file ->
         match Unix.stat file with
         | { Unix.st_size; st_mtime; _ } ->
             let info =
               try Codec.decode (read_file file)
               with Sys_error msg -> Error msg
             in
             Some { file; bytes = st_size; mtime = st_mtime; info }
         | exception Unix.Unix_error _ -> None)
  |> List.sort (fun a b -> compare b.mtime a.mtime)

let verify t =
  trace_files t
  |> List.map (fun file ->
         let base = Filename.basename file in
         let result =
           match
             try Codec.decode (read_file file)
             with Sys_error msg -> Error msg
           with
           | Error _ as e -> e
           | Ok (key, pk) ->
               let expected = Codec.key_id key ^ ".trace" in
               if String.equal base expected then Ok (key, pk)
               else
                 Error
                   (Printf.sprintf
                      "file name does not match its content address \
                       (key %s hashes to %s)"
                      (Codec.describe_key key) expected)
         in
         (base, result))

let gc t ~max_bytes =
  let entries =
    (* oldest first: eviction order *)
    List.sort (fun a b -> compare a.mtime b.mtime) (list t)
  in
  let total = List.fold_left (fun acc e -> acc + e.bytes) 0 entries in
  let rec evict total removed = function
    | [] -> List.rev removed
    | _ when total <= max_bytes -> List.rev removed
    | e :: rest ->
        (try Sys.remove e.file with Sys_error _ -> ());
        evict (total - e.bytes) ((Filename.basename e.file, e.bytes) :: removed)
          rest
  in
  evict total [] entries

let clear t =
  match Sys.readdir t.root with
  | files ->
      Array.fold_left
        (fun n f ->
          let is_tmp =
            (* leftover "<hash>.trace.tmp.<pid>.<domain>" files *)
            let rec has_tmp i =
              i + 4 <= String.length f
              && (String.sub f i 4 = ".tmp" || has_tmp (i + 1))
            in
            has_tmp 0
          in
          if is_trace f || is_tmp then begin
            (try Sys.remove (Filename.concat t.root f) with Sys_error _ -> ());
            n + 1
          end
          else n)
        0 files
  | exception Sys_error _ -> 0
