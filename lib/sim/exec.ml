(* Functional co-simulation of the decoupled machine.

   The AGU and CU slices run as round-robin small-step interpreters over
   unbounded FIFOs; the DU is modelled functionally per array: it serves
   the request stream in order, fills pending store allocations with
   (value, poison) tags from the CU and commits or drops them in
   allocation order.

   This is where the paper's §6 guarantees are *checked dynamically*:

   - Lemma 6.1: the store-value/kill stream per array must match the store
     request stream mem-id by mem-id ([Stream_mismatch] otherwise);
   - sequential consistency: the final memory (and the per-array commit
     order) must equal the sequential interpreter's;
   - deadlock freedom: a global round with no progress raises [Deadlock].

   As a side effect the run produces the per-unit channel traces the
   timing engine replays.

   The fast path ([run_lowered]) interprets the dense micro-op form of
   {!Lower}: flat slot arrays instead of Hashtbl environments, int-indexed
   ring queues instead of string-keyed Queue tables, and compact trace
   append. The original tree-walking interpreter is kept under
   test/reference/ — the qcheck equivalence property in test/test_lower.ml
   holds the two to identical results, commit orders and traces. *)

open Dae_ir

exception Deadlock of string
exception Stream_mismatch of string
exception Desync of string

type commit = { c_arr : string; c_addr : int; c_value : int }

type result = {
  memory : Interp.Memory.t;
  agu_trace : Trace.unit_trace;
  au_traces : Trace.unit_trace array;
      (* extra access units 1 .. n-1 of an N-way partition; [||] for 2-way *)
  cu_trace : Trace.unit_trace;
  commits : commit list; (* program order per array *)
  killed_stores : int;
  committed_stores : int;
  loads_served : int;
  agu_steps : int;
  cu_steps : int;
}

(* All unit traces in dense Trace.unit_index order. *)
let traces (r : result) : Trace.unit_trace array =
  Array.append [| r.agu_trace; r.cu_trace |] r.au_traces

type step_result = Progress | Finished

exception Blocked_on_value

(* --- unboxed ring queues ------------------------------------------------- *)

(* Growable circular int queue; capacity stays a power of two. Multi-word
   channel entries are pushed/popped as consecutive words. *)
module Iq = struct
  type t = { mutable buf : int array; mutable head : int; mutable len : int }

  let create () = { buf = Array.make 16 0; head = 0; len = 0 }
  let[@inline] is_empty q = q.len = 0

  let[@inline never] grow q =
    let cap = Array.length q.buf in
    let bigger = Array.make (2 * cap) 0 in
    for i = 0 to q.len - 1 do
      bigger.(i) <- q.buf.((q.head + i) land (cap - 1))
    done;
    q.buf <- bigger;
    q.head <- 0

  (* ring indices are masked to the power-of-two capacity: in range *)
  let[@inline] push q x =
    if q.len = Array.length q.buf then grow q;
    Array.unsafe_set q.buf ((q.head + q.len) land (Array.length q.buf - 1)) x;
    q.len <- q.len + 1

  (* caller checks [is_empty] *)
  let[@inline] pop q =
    let x = Array.unsafe_get q.buf q.head in
    q.head <- (q.head + 1) land (Array.length q.buf - 1);
    q.len <- q.len - 1;
    x

  let[@inline] peek q = Array.unsafe_get q.buf q.head
end

(* Same ring, for consume cells. *)
module Rq = struct
  type 'a t = {
    mutable buf : 'a array;
    mutable head : int;
    mutable len : int;
    dummy : 'a;
  }

  let create dummy = { buf = Array.make 16 dummy; head = 0; len = 0; dummy }
  let[@inline] is_empty q = q.len = 0

  let[@inline never] grow q =
    let cap = Array.length q.buf in
    let bigger = Array.make (2 * cap) q.dummy in
    for i = 0 to q.len - 1 do
      bigger.(i) <- q.buf.((q.head + i) land (cap - 1))
    done;
    q.buf <- bigger;
    q.head <- 0

  let[@inline] push q x =
    if q.len = Array.length q.buf then grow q;
    q.buf.((q.head + q.len) land (Array.length q.buf - 1)) <- x;
    q.len <- q.len + 1

  let[@inline] pop q =
    let x = q.buf.(q.head) in
    q.buf.(q.head) <- q.dummy;
    q.head <- (q.head + 1) land (Array.length q.buf - 1);
    q.len <- q.len - 1;
    x
end

(* --- lowered interpreter state ------------------------------------------- *)

(* A lazily-issued consume: the value lands here when the DU responds.
   φ-nodes and selects copy slots (a mux does not force its input), so a
   pending consume can flow through joins without blocking the unit; only a
   computational *use* forces it. Cells per channel fill in FIFO order. *)
type cell = { mutable full : bool; mutable cv : int }

let dummy_cell = { full = false; cv = 0 }

(* Inter-unit channels, one ring per dense array id. Request entries are
   (mem lsl 1) lor is_store, then the address; store-value entries are
   (mem lsl 1) lor poisoned, then the value. All rings exist from the
   start — no lazy creation on the hot path. *)
type channels = { requests : Iq.t array; store_values : Iq.t array }

type urt = {
  prog : Lower.uprog;
  vals : int array; (* slot -> value (booleans 0/1) *)
  pend : cell option array; (* slot -> unforced consume cell, if any *)
  ldv : Iq.t array; (* load mem -> values the DU delivered to this unit *)
  promises : cell Rq.t array; (* load mem -> outstanding cells, pop order *)
  last_consume : int array; (* dense consume id -> last trace index *)
  scratch_v : int array; (* φ copies are simultaneous: read all, *)
  scratch_p : cell option array; (* then write all *)
  tb : Trace.Builder.t;
  mutable cur : int; (* dense block id *)
  mutable came_from : int; (* dense block id, -1 before entry *)
  mutable phase : int; (* -1 φs | k in [0,n) uop k | n pre-term | n+1 term *)
  mutable finished : bool;
  mutable iter : int; (* becomes 0 on first hot-header entry *)
  mutable depth : int;
  mutable steps : int;
}

let[@inline] int_of_arg = function
  | Types.Vint n -> n
  | Types.Vbool b -> if b then 1 else 0

let make_urt (prog : Lower.uprog) ~n_mems ~(args : (string * Types.value) list)
    : urt =
  let vals = Array.make (max prog.Lower.n_slots 1) 0 in
  let pend = Array.make (max prog.Lower.n_slots 1) None in
  List.iter
    (fun (name, s) ->
      match List.assoc_opt name args with
      | Some v -> vals.(s) <- int_of_arg v
      | None -> Fmt.invalid_arg "Exec: missing argument %s" name)
    prog.Lower.params;
  {
    prog;
    vals;
    pend;
    ldv = Array.init (max n_mems 1) (fun _ -> Iq.create ());
    promises = Array.init (max n_mems 1) (fun _ -> Rq.create dummy_cell);
    last_consume = Array.make (max prog.Lower.n_consumes 1) (-1);
    scratch_v = Array.make (max prog.Lower.max_phis 1) 0;
    scratch_p = Array.make (max prog.Lower.max_phis 1) None;
    tb = Trace.Builder.create ();
    cur = prog.Lower.entry;
    came_from = -1;
    phase = -1;
    finished = false;
    iter = -1;
    depth = 0;
    steps = 0;
  }

(* Force a slot: resolve a filled cell in place, block on an unfilled one.
   Slots are assigned densely by Lower, so accesses are in range. *)
let[@inline] force (u : urt) s =
  match Array.unsafe_get u.pend s with
  | None -> Array.unsafe_get u.vals s
  | Some c ->
    if c.full then begin
      Array.unsafe_set u.vals s c.cv;
      Array.unsafe_set u.pend s None;
      c.cv
    end
    else raise Blocked_on_value

let[@inline] read (u : urt) = function
  | Lower.Imm n -> n
  | Lower.Slot s -> force u s

(* Copy a slot without forcing it. *)
let[@inline] copy_to (u : urt) dst = function
  | Lower.Imm n ->
    u.vals.(dst) <- n;
    u.pend.(dst) <- None
  | Lower.Slot s ->
    u.vals.(dst) <- u.vals.(s);
    u.pend.(dst) <- u.pend.(s)

let[@inline] push_ev (u : urt) ~meta ~payload =
  Trace.Builder.push u.tb ~meta
    ~iter:(if u.iter >= 0 then u.iter else 0)
    ~depth:u.depth ~payload

let gate_meta = Trace.pack_meta ~tag:Trace.t_gate ~ctrl:false ~arr:0 ~mem:0

let apply_phis (u : urt) (phis : (int * Lower.copy array) array) =
  let copies = ref [||] in
  (let found = ref false in
   Array.iter
     (fun (pred, cs) ->
       if (not !found) && pred = u.came_from then begin
         found := true;
         copies := cs
       end)
     phis;
   if not !found then
     Fmt.invalid_arg "Exec(%s): bb%d entered from unexpected bb%d"
       (Trace.unit_name u.prog.Lower.u_unit)
       u.prog.Lower.blocks.(u.cur).Lower.orig_bid
       u.prog.Lower.blocks.(u.came_from).Lower.orig_bid);
  let copies = !copies in
  let n = Array.length copies in
  for i = 0 to n - 1 do
    match copies.(i).Lower.c_src with
    | Lower.Imm k ->
      u.scratch_v.(i) <- k;
      u.scratch_p.(i) <- None
    | Lower.Slot s ->
      u.scratch_v.(i) <- u.vals.(s);
      u.scratch_p.(i) <- u.pend.(s)
  done;
  for i = 0 to n - 1 do
    let c = copies.(i) in
    u.vals.(c.Lower.c_dst) <- u.scratch_v.(i);
    u.pend.(c.Lower.c_dst) <- u.scratch_p.(i)
  done

let[@inline] advance (u : urt) =
  u.phase <- u.phase + 1;
  u.depth <- u.depth + 1;
  u.steps <- u.steps + 1;
  Progress

let exec_uop (ch : channels) (u : urt) (uop : Lower.uop) : step_result =
  match uop with
  | Lower.Ubinop { dst; op; a; b } ->
    let r = Instr.eval_binop op (read u a) (read u b) in
    u.vals.(dst) <- r;
    u.pend.(dst) <- None;
    advance u
  | Lower.Ucmp { dst; op; a; b } ->
    let r = Instr.eval_cmp op (read u a) (read u b) in
    u.vals.(dst) <- (if r then 1 else 0);
    u.pend.(dst) <- None;
    advance u
  | Lower.Uselect { dst; c; a; b } ->
    copy_to u dst (if read u c <> 0 then a else b);
    advance u
  | Lower.Unot { dst; a } ->
    u.vals.(dst) <- (if read u a <> 0 then 0 else 1);
    u.pend.(dst) <- None;
    advance u
  | Lower.Usend_ld { arr; idx; mem; meta } ->
    let addr = read u idx in
    let q = ch.requests.(arr) in
    Iq.push q (mem lsl 1);
    Iq.push q addr;
    push_ev u ~meta ~payload:addr;
    advance u
  | Lower.Usend_st { arr; idx; mem; meta } ->
    let addr = read u idx in
    let q = ch.requests.(arr) in
    Iq.push q ((mem lsl 1) lor 1);
    Iq.push q addr;
    push_ev u ~meta ~payload:addr;
    advance u
  | Lower.Uconsume { dst; mem; cid; meta } ->
    let q = u.ldv.(mem) in
    let pq = u.promises.(mem) in
    (if Iq.is_empty q || not (Rq.is_empty pq) then begin
       (* channel empty (or earlier pops still pending): issue the pop
          lazily and keep going — only a use of the value blocks *)
       let c = { full = false; cv = 0 } in
       u.pend.(dst) <- Some c;
       Rq.push pq c
     end
     else begin
       u.vals.(dst) <- Iq.pop q;
       u.pend.(dst) <- None
     end);
    push_ev u ~meta ~payload:0;
    u.last_consume.(cid) <- Trace.Builder.length u.tb - 1;
    advance u
  | Lower.Uproduce { arr; value; mem; meta } ->
    let v = read u value in
    let q = ch.store_values.(arr) in
    Iq.push q (mem lsl 1);
    Iq.push q v;
    push_ev u ~meta ~payload:v;
    advance u
  | Lower.Upoison { arr; mem; meta } ->
    let q = ch.store_values.(arr) in
    Iq.push q ((mem lsl 1) lor 1);
    Iq.push q 0;
    push_ev u ~meta ~payload:0;
    advance u

let exec_term (u : urt) (b : Lower.blk) : step_result =
  (* evaluate the branch first: a blocked condition must not record the
     gate or advance any state *)
  let target =
    match b.Lower.term with
    | Lower.Tbr t -> t
    | Lower.Tcond (c, t, e) -> if read u c <> 0 then t else e
    | Lower.Tswitch (c, ts) ->
      let n = Array.length ts in
      let k = read u c in
      ts.(if k < 0 then 0 else if k >= n then n - 1 else k)
    | Lower.Tret -> -1
  in
  u.steps <- u.steps + 1;
  let g = b.Lower.gate in
  if Array.length g > 0 then begin
    let dep = ref (-1) in
    for i = 0 to Array.length g - 1 do
      let d = u.last_consume.(g.(i)) in
      if d > !dep then dep := d
    done;
    push_ev u ~meta:gate_meta ~payload:!dep
  end;
  if target >= 0 then begin
    if u.prog.Lower.blocks.(target).Lower.is_hot then begin
      u.iter <- u.iter + 1;
      u.depth <- 0
    end;
    u.came_from <- u.cur;
    u.cur <- target;
    u.phase <- -1;
    Progress
  end
  else begin
    u.finished <- true;
    Finished
  end

let step_inner (ch : channels) (u : urt) : step_result =
  if u.finished then Finished
  else begin
    let b = u.prog.Lower.blocks.(u.cur) in
    let ph = u.phase in
    if ph = -1 then begin
      if u.came_from >= 0 && Array.length b.Lower.phis > 0 then
        apply_phis u b.Lower.phis;
      u.phase <- 0;
      u.steps <- u.steps + 1;
      Progress
    end
    else begin
      let n = Array.length b.Lower.uops in
      if ph < n then exec_uop ch u b.Lower.uops.(ph)
      else if ph = n then begin
        u.phase <- n + 1;
        Progress
      end
      else exec_term u b
    end
  end

(* Fill outstanding consume cells from their channels, FIFO per channel.
   Returns true on progress. *)
let fulfill (u : urt) : bool =
  let progress = ref false in
  for m = 0 to Array.length u.promises - 1 do
    let pq = u.promises.(m) in
    if not (Rq.is_empty pq) then begin
      let q = u.ldv.(m) in
      while (not (Rq.is_empty pq)) && not (Iq.is_empty q) do
        let c = Rq.pop pq in
        c.cv <- Iq.pop q;
        c.full <- true;
        progress := true
      done
    end
  done;
  !progress

(* --- functional DU ------------------------------------------------------- *)

type du_state = {
  names : string array; (* dense array id -> name *)
  memory : Interp.Memory.t;
  marr : int array option array; (* dense array id -> backing store *)
  pending : Iq.t array; (* per array: (mem, addr) stores awaiting value *)
  ldvs : Iq.t array array; (* unit index -> per-mem delivered load values *)
  mutable commits : commit list; (* reverse order *)
  mutable killed : int;
  mutable committed : int;
  mutable loads_served : int;
}

let[@inline] arr_data (du : du_state) a =
  match du.marr.(a) with
  | Some d -> d
  | None ->
    let d = Interp.Memory.array du.memory du.names.(a) in
    du.marr.(a) <- Some d;
    d

(* Same bounds behaviour as Interp.Memory.set / get_speculative: a store to
   an out-of-range address is an error, a speculative read returns 0. *)
let mem_set (du : du_state) a idx v =
  let d = arr_data du a in
  if idx < 0 || idx >= Array.length d then
    Fmt.invalid_arg "Interp.Memory: %s[%d] out of bounds (len %d)" du.names.(a)
      idx (Array.length d)
  else d.(idx) <- v

let[@inline] mem_get_spec (du : du_state) a idx =
  let d = arr_data du a in
  if idx < 0 || idx >= Array.length d then 0 else d.(idx)

(* Drain store values into pending allocations (checking Lemma 6.1), commit
   or drop resolved heads, and serve load requests whose earlier stores are
   all resolved. Returns true if any progress was made. Arrays are visited
   in dense-id order — the same sorted-name order the pre-lowering DU
   established — so the global commit interleaving is unchanged. *)
let du_pump (l : Lower.t) (ch : channels) (du : du_state) : bool =
  let progress = ref false in
  for a = 0 to Array.length du.names - 1 do
    let reqs = ch.requests.(a) in
    let vals = ch.store_values.(a) in
    let pend = du.pending.(a) in
    let continue_ = ref true in
    while !continue_ do
      continue_ := false;
      (* resolve the pending head with an arrived value *)
      if (not (Iq.is_empty pend)) && not (Iq.is_empty vals) then begin
        let p_mem = Iq.pop pend in
        let p_addr = Iq.pop pend in
        let tagw = Iq.pop vals in
        let value = Iq.pop vals in
        let t_mem = tagw lsr 1 in
        if t_mem <> p_mem then
          raise
            (Stream_mismatch
               (Fmt.str
                  "array %s: store request stream has mem%d at head but \
                   value stream delivered mem%d — AGU/CU order mismatch"
                  du.names.(a) p_mem t_mem));
        if tagw land 1 = 1 then du.killed <- du.killed + 1
        else begin
          mem_set du a p_addr value;
          du.commits <-
            { c_arr = du.names.(a); c_addr = p_addr; c_value = value }
            :: du.commits;
          du.committed <- du.committed + 1
        end;
        progress := true;
        continue_ := true
      end;
      (* serve the request head *)
      if not (Iq.is_empty reqs) then begin
        let w0 = Iq.peek reqs in
        if w0 land 1 = 1 then begin
          (* store allocation *)
          ignore (Iq.pop reqs);
          let addr = Iq.pop reqs in
          Iq.push pend (w0 lsr 1);
          Iq.push pend addr;
          progress := true;
          continue_ := true
        end
        else if Iq.is_empty pend then begin
          (* strict in-order disambiguation: a load waits until every
             earlier store of this array is resolved *)
          ignore (Iq.pop reqs);
          let addr = Iq.pop reqs in
          let m = w0 lsr 1 in
          (* speculative request: the address may be out of bounds on a
             mis-speculated path; the read must not trap *)
          let v = mem_get_spec du a addr in
          let subs = l.Lower.subscribers.(m) in
          for i = 0 to Array.length subs - 1 do
            Iq.push du.ldvs.(subs.(i)).(m) v
          done;
          du.loads_served <- du.loads_served + 1;
          progress := true;
          continue_ := true
        end
      end
    done
  done;
  !progress

(* --- co-simulation driver ------------------------------------------------ *)

let finalize_trace ~(arrays : string array) (u : urt) : Trace.unit_trace =
  Trace.Builder.finalize u.tb ~unit:u.prog.Lower.u_unit ~arrays
    ~iterations:(u.iter + 1)
    ~control_synchronized:u.prog.Lower.control_synchronized

let run_lowered ?(fuel = 50_000_000) (l : Lower.t)
    ~(args : (string * Types.value) list) ~(mem : Interp.Memory.t) : result =
  let n_arr = Array.length l.Lower.arrays in
  let ch =
    {
      requests = Array.init n_arr (fun _ -> Iq.create ());
      store_values = Array.init n_arr (fun _ -> Iq.create ());
    }
  in
  let units =
    Array.map
      (fun p -> make_urt p ~n_mems:l.Lower.n_mems ~args)
      (Lower.units l)
  in
  let agu = units.(0) and cu = units.(1) in
  let du =
    {
      names = l.Lower.arrays;
      memory = mem;
      marr = Array.make (max n_arr 1) None;
      pending = Array.init n_arr (fun _ -> Iq.create ());
      ldvs = Array.map (fun u -> u.ldv) units;
      commits = [];
      killed = 0;
      committed = 0;
      loads_served = 0;
    }
  in
  let total_steps = ref 0 in
  (* Run one unit as far as it can go this round; a block on an unfulfilled
     consume retries after draining the unit's channels. The handler is
     installed once per blocked episode, not once per micro-op: a raise of
     [Blocked_on_value] happens before the micro-op has any side effect, so
     re-entering [step_inner] after a successful [fulfill] replays it. *)
  let run_unit u ~progress =
    let go = ref true in
    while !go do
      match
        while not u.finished do
          match step_inner ch u with
          | Progress ->
            progress := true;
            incr total_steps;
            if !total_steps > fuel then raise (Deadlock "out of fuel")
          | Finished -> ()
        done
      with
      | () -> go := false
      | exception Blocked_on_value -> if not (fulfill u) then go := false
    done
  in
  let all_finished () = Array.for_all (fun u -> u.finished) units in
  let running = ref true in
  while !running do
    let progress = ref false in
    Array.iter (fun u -> run_unit u ~progress) units;
    if du_pump l ch du then progress := true;
    if all_finished () then begin
      (* final drain: let the DU retire trailing stores and fulfill any
         consumes that were issued lazily and never used *)
      while
        du_pump l ch du || Array.exists (fun u -> fulfill u) units
      do
        ()
      done;
      running := false
    end
    else if not !progress then
      raise
        (Deadlock
           (Fmt.str "no progress: %s"
              (String.concat ", "
                 (Array.to_list
                    (Array.map
                       (fun u ->
                         Fmt.str "%s %s at bb%d"
                           (Trace.unit_name u.prog.Lower.u_unit)
                           (if u.finished then "finished" else "blocked")
                           u.prog.Lower.blocks.(u.cur).Lower.orig_bid)
                       units)))))
  done;
  (* post-run invariants: every channel must be fully drained *)
  for a = 0 to n_arr - 1 do
    if not (Iq.is_empty ch.requests.(a)) then
      raise
        (Desync (Fmt.str "unserved requests remain for array %s" du.names.(a)));
    if not (Iq.is_empty ch.store_values.(a)) then
      raise
        (Desync
           (Fmt.str "unmatched store values remain for array %s" du.names.(a)));
    if not (Iq.is_empty du.pending.(a)) then
      raise
        (Desync
           (Fmt.str "store allocations never resolved for array %s"
              du.names.(a)))
  done;
  Array.iter
    (fun u ->
      Array.iteri
        (fun m q ->
          if not (Iq.is_empty q) then
            raise
              (Desync
                 (Fmt.str "load values for mem%d never consumed by %s" m
                    (Trace.unit_name u.prog.Lower.u_unit))))
        u.ldv)
    units;
  {
    memory = mem;
    agu_trace = finalize_trace ~arrays:l.Lower.arrays agu;
    au_traces =
      Array.map
        (fun u -> finalize_trace ~arrays:l.Lower.arrays u)
        (Array.sub units 2 (Array.length units - 2));
    cu_trace = finalize_trace ~arrays:l.Lower.arrays cu;
    commits = List.rev du.commits;
    killed_stores = du.killed;
    committed_stores = du.committed;
    loads_served = du.loads_served;
    agu_steps = agu.steps;
    cu_steps = cu.steps;
  }

let run ?fuel (p : Dae_core.Pipeline.t) ~(args : (string * Types.value) list)
    ~(mem : Interp.Memory.t) : result =
  run_lowered ?fuel (Lower.compile p) ~args ~mem

(* Mis-speculation rate: fraction of store requests whose value was a kill. *)
let misspeculation_rate (r : result) : float =
  let total = r.killed_stores + r.committed_stores in
  if total = 0 then 0.0 else float_of_int r.killed_stores /. float_of_int total

(* Check a decoupled execution against the sequential golden model: same
   final memory, and the same per-array sequence of committed stores. *)
let check_against_golden ~(golden_mem : Interp.Memory.t)
    ~(golden : Interp.result) (r : result) : (unit, string) Stdlib.result =
  if not (Interp.Memory.equal golden_mem r.memory) then
    Error
      (Fmt.str "final memory differs@.golden:@.%a@.decoupled:@.%a"
         Interp.Memory.pp golden_mem Interp.Memory.pp r.memory)
  else begin
    (* group stores per array in one pass over each trace (the golden trace
       is long; walking it once per array was the old cost) *)
    let group seq =
      let tbl : (string, (int * int) list ref) Hashtbl.t = Hashtbl.create 8 in
      seq (fun arr p ->
          match Hashtbl.find_opt tbl arr with
          | Some r -> r := p :: !r
          | None -> Hashtbl.replace tbl arr (ref [ p ]));
      tbl
    in
    let golden_tbl =
      group (fun emit ->
          let tr = golden.Interp.trace in
          for k = 0 to Interp.trace_length tr - 1 do
            if Interp.t_is_store tr k then
              emit (Interp.t_arr tr k) (Interp.t_idx tr k, Interp.t_value tr k)
          done)
    in
    let sim_tbl =
      group (fun emit ->
          List.iter (fun c -> emit c.c_arr (c.c_addr, c.c_value)) r.commits)
    in
    let arrays =
      List.sort_uniq compare (List.map (fun c -> c.c_arr) r.commits)
    in
    let stores_of tbl arr =
      match Hashtbl.find_opt tbl arr with
      | Some l -> List.rev !l
      | None -> []
    in
    let mismatch =
      List.find_map
        (fun arr ->
          let golden_stores = stores_of golden_tbl arr in
          let sim_stores = stores_of sim_tbl arr in
          if golden_stores <> sim_stores then
            Some
              (Fmt.str
                 "commit order for %s differs: golden %d stores, sim %d stores"
                 arr
                 (List.length golden_stores)
                 (List.length sim_stores))
          else None)
        arrays
    in
    match mismatch with None -> Ok () | Some m -> Error m
  end
