(* In-memory spans for the traced runs.

   A span is one timed call into a library, recorded from the
   benchmark's own code: its name (the layer and the call), start and
   end wall-clock times, the span that caused it, and the work item
   (cell, compile or program) it belongs to.  Spans stay in memory until
   the run ends; nothing is written while timing.  Any domain may record
   a span; the list is guarded by one mutex, which is cheap at the few
   thousand spans a traced unit of work produces. *)

type t = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  item : int;
  start : float;
  stop : float;
}

let now = Unix.gettimeofday
let next_id = Atomic.make 1
let lock = Mutex.create ()
let recorded : t list ref = ref []

(* An identifier for a span whose children are recorded before it. *)
let fresh () = Atomic.fetch_and_add next_id 1

let push ~id ~parent ~item name start stop =
  let s = { id; parent; name; item; start; stop } in
  Mutex.protect lock (fun () -> recorded := s :: !recorded)

let add ?(parent = 0) ~item name start stop =
  push ~id:(fresh ()) ~parent ~item name start stop

(* [time ~item name f]: run [f id] as span [id], recorded even when [f]
   raises. *)
let time ?(parent = 0) ~item name f =
  let id = fresh () in
  let start = now () in
  Fun.protect
    ~finally:(fun () -> push ~id ~parent ~item name start (now ()))
    (fun () -> f id)

(* Counts recorded at the same boundaries as the spans (instructions
   left after a pass, edges pruned, bytes captured), so that ratios are
   taken where the work happens. *)
let counts : (string, int) Hashtbl.t = Hashtbl.create 16

let count name n =
  Mutex.protect lock (fun () ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt counts name) in
      Hashtbl.replace counts name (prev + n))

(* Every span recorded so far, oldest first, and the counts; the store
   is emptied. *)
let take () =
  Mutex.protect lock (fun () ->
      let all = List.rev !recorded in
      let totals = Hashtbl.copy counts in
      recorded := [];
      Hashtbl.reset counts;
      (all, fun name -> Option.value ~default:0 (Hashtbl.find_opt totals name)))

let duration s = s.stop -. s.start

let total name spans =
  List.fold_left
    (fun acc s -> if String.equal s.name name then acc +. duration s else acc)
    0.0 spans

(* Self time by span name: each span's duration minus the part of it its
   children cover.  Children of one span run one after another on the
   parent's domain, so their durations add up without overlap. *)
let self_times spans =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt children s.parent) in
      Hashtbl.replace children s.parent (prev +. duration s))
    spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let covered = Option.value ~default:0.0 (Hashtbl.find_opt children s.id) in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (prev +. duration s -. covered))
    spans;
  List.sort compare (List.of_seq (Hashtbl.to_seq by_name))
