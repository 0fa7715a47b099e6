(* Domain pool with deterministic indexed batches.

   A batch is [n] independent items and one atomic claim counter.
   Every participant (the caller is participant 0, plus [size - 1]
   worker domains) claims the next unclaimed index with a single
   [fetch_and_add] and runs that item, until the counter passes [n].
   Items are coarse (a whole capture, or a whole trace replay), so one
   shared counter is all the balancing a batch needs: a participant
   that finishes early simply claims more.

   Determinism is by construction, not by scheduling: every result is
   written into a caller-owned slot at its item's index, and the batch
   only returns when every item has finished, so [map] is exactly
   [Array.map]-equivalent whatever the interleaving.

   Idle workers block on a condition variable (no busy-waiting — this
   must also behave on a single-core host).  A worker only sleeps after
   seeing, under the pool's mutex, that the published batch has no
   unclaimed item left, and a new batch is published and broadcast
   under the same mutex, so no worker can sleep through one. *)

type batch = {
  n : int;
  run : int -> unit;  (* item [i]; exception-free, see [map] *)
  next : int Atomic.t;  (* the next unclaimed index *)
  unfinished : int Atomic.t;  (* items not yet finished *)
}

type t = {
  size : int;  (* parallel width, including the calling domain *)
  mutex : Mutex.t;  (* guards [batch], [stop] and both conditions *)
  wake : Condition.t;  (* workers: a batch started, or stop *)
  all_done : Condition.t;  (* caller: the current batch has finished *)
  mutable batch : batch option;  (* the batch in progress *)
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

let jobs t = t.size

(* Claim and run items of [b] until none is left.  Whoever finishes the
   last item closes the batch and wakes the caller. *)
let work t b =
  let rec claim () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < b.n then begin
      b.run i;
      if Atomic.fetch_and_add b.unfinished (-1) = 1 then begin
        Mutex.lock t.mutex;
        t.batch <- None;
        Condition.broadcast t.all_done;
        Mutex.unlock t.mutex
      end;
      claim ()
    end
  in
  claim ()

let worker_loop t =
  Mutex.lock t.mutex;
  while not t.stop do
    match t.batch with
    | Some b when Atomic.get b.next < b.n ->
        Mutex.unlock t.mutex;
        work t b;
        Mutex.lock t.mutex
    | Some _ | None -> Condition.wait t.wake t.mutex
  done;
  Mutex.unlock t.mutex

let shutdown t =
  Mutex.lock t.mutex;
  let workers = t.workers in
  t.workers <- [];
  t.stop <- true;
  Condition.broadcast t.wake;
  Mutex.unlock t.mutex;
  List.iter Domain.join workers

(* The runtime caps the number of live domains.  If it refuses one, the
   workers already started are stopped and joined before [create]
   fails, so the slots they held are free for the next pool. *)
let create ~jobs =
  let size = max 1 jobs in
  let t =
    { size;
      mutex = Mutex.create ();
      wake = Condition.create ();
      all_done = Condition.create ();
      batch = None;
      stop = false;
      workers = [];
    }
  in
  (try
     for _ = 2 to size do
       t.workers <- Domain.spawn (fun () -> worker_loop t) :: t.workers
     done
   with Failure msg ->
     let started = List.length t.workers + 1 in
     shutdown t;
     invalid_arg
       (Printf.sprintf "Pool.create: only %d of %d jobs could start (%s)"
          started size msg));
  t

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Run items [0 .. n - 1] to completion: publish the batch, wake the
   workers, join in as participant 0, and wait for the stragglers.
   Misuse that would hang is detected here: a batch submitted while
   another is in flight (a nested [map] on the same pool, or concurrent
   use from two domains) and use after [shutdown] both raise
   [Invalid_argument]. *)
let run_batch t n run =
  if n > 0 then begin
    Mutex.lock t.mutex;
    if t.stop then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool: used after shutdown"
    end;
    if Option.is_some t.batch then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool: nested batch on the same pool"
    end;
    let b =
      { n; run; next = Atomic.make 0; unfinished = Atomic.make n }
    in
    t.batch <- Some b;
    Condition.broadcast t.wake;
    Mutex.unlock t.mutex;
    work t b;
    Mutex.lock t.mutex;
    while Option.is_some t.batch do
      Condition.wait t.all_done t.mutex
    done;
    Mutex.unlock t.mutex
  end

(* Every item runs, failing or not; afterwards the results are read in
   index order, so the exception of the lowest-index failing item is
   the one re-raised, whatever order the items finished in. *)
let map t f (xs : 'a array) : 'b array =
  let out = Array.make (Array.length xs) None in
  run_batch t (Array.length xs) (fun i ->
      out.(i) <-
        Some
          (match f xs.(i) with
          | y -> Ok y
          | exception e -> Error (e, Printexc.get_raw_backtrace ())));
  Array.map
    (function
      | Some (Ok y) -> y
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | None -> assert false)
    out
