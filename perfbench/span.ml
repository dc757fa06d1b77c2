(* In-memory host-time spans for the traced run.

   [span name f] times [f] and books it to layer [name] under whatever
   span is open on the current domain. Spans are kept in memory and only
   read back (or written out) when the run ends. When tracing is off,
   [span] is a flag test and a call. *)

type rec_ = {
  s : Arith.span;
  point : string;  (** the point the call served; "" for whole-pass work *)
  minor_words : float;  (** minor-heap words allocated inside the span *)
  cycles : int;  (** simulated cycles the call produced, 0 if none *)
  domain : int;
}

let enabled = ref false
let next_id = Atomic.make 1
let lock = Mutex.create ()
let recorded : rec_ list ref = ref []

(* The open-span stack and the booking weight of the current domain. *)
type ctx = { mutable stack : int list; mutable weight : float }

let ctx = Domain.DLS.new_key (fun () -> { stack = []; weight = 1. })
let current () = match (Domain.DLS.get ctx).stack with id :: _ -> id | [] -> 0

let reset () =
  Mutex.lock lock;
  recorded := [];
  Mutex.unlock lock

let push r =
  Mutex.lock lock;
  recorded := r :: !recorded;
  Mutex.unlock lock

(* [on_exn] renames the span when [f] raises (a replay that ends in a
   deadlock is booked apart from one that completes); [cycles] reads the
   simulated cycles off a result. *)
let span ?(point = "") ?on_exn ?(cycles = fun _ -> 0) name f =
  if not !enabled then f ()
  else begin
    let c = Domain.DLS.get ctx in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match c.stack with p :: _ -> p | [] -> 0 in
    c.stack <- id :: c.stack;
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let finish name cyc =
      let t1 = Unix.gettimeofday () in
      c.stack <- List.tl c.stack;
      push
        {
          s = { Arith.id; parent; name; t0; t1; weight = c.weight };
          point;
          minor_words = Gc.minor_words () -. w0;
          cycles = cyc;
          domain = (Domain.self () :> int);
        }
    in
    match f () with
    | v ->
      finish name (cycles v);
      v
    | exception e ->
      finish (Option.value ~default:name on_exn) 0;
      raise e
  end

(* Run a pool job on a worker domain as a child of span [parent] (opened
   on the submitting domain), booking its spans at weight 1/[domains]. *)
let job ~parent ~domains f =
  if not !enabled then f ()
  else begin
    let c = Domain.DLS.get ctx in
    let stack = c.stack and weight = c.weight in
    c.stack <- [ parent ];
    c.weight <- 1. /. float_of_int domains;
    Fun.protect
      ~finally:(fun () ->
        c.stack <- stack;
        c.weight <- weight)
      f
  end

let all () =
  Mutex.lock lock;
  let r = !recorded in
  Mutex.unlock lock;
  List.rev r
