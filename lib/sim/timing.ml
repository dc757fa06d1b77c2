(* Cycle-level timing simulation of the DAE architecture template
   (paper Figure 1): pipelined AGU and CU loop engines, latency-carrying
   bounded FIFOs, a per-array load-store queue in the DU, and dual-ported
   SRAM.

   The engine replays the channel traces produced by the functional
   co-simulation (Exec). Unit model: events may retire out of order across
   channels but in order per channel, no earlier than
   [iteration × unit_ii + depth] (pipeline shape), and never past an
   unresolved [Gate] — a branch whose condition consumed a value. Gates are
   what serialize the non-speculative DAE AGU (Figure 2(b)); the
   speculation transformation removes them from the AGU and the engine
   then streams requests at II=1.

   DU model per array: requests pop in order (1/cycle) into the LSQ when a
   queue slot is free; store values resolve allocations in order; loads
   issue out of order once every older store is address-disambiguated —
   waiting only on same-address stores (forwarding when the value is
   ready); stores commit in order through the store port; poisoned stores
   are dropped without a port. A mis-speculated store thus occupies its
   store-queue slot from allocation to kill, which is exactly the paper's
   §8.2.1 cost mechanism.

   Engine: event-driven. The main loop visits only cycles at which work can
   retire. After a productive cycle the next wake-up is t+1 (units and DUs
   may have more same-state work: in-order retirement admits one event per
   channel per cycle, the store port one commit per cycle). When a cycle
   makes no progress, the engine jumps straight to the earliest next-wake
   candidate — earliest schedulable event, in-order successor, gate
   resolution, FIFO arrival, load completion, MSHR fill. The production
   scheduler is an incremental event wheel: each unit and DU array owns a
   sorted candidate bucket that is recomputed only when the engine marked
   it dirty (its state changed since the last fill), so a stall costs O(1)
   amortized per clean component instead of a full candidate rescan; the
   seed calendar path (rescan everything per stall) is kept selectable as
   the reference for the equivalence suite. Wake times are monotone (every
   candidate is > t), so cycle counts are exactly those of a naive
   cycle-by-cycle loop; the per-cycle work is O(live state), not
   O(total events). *)

type lsq_stats = {
  mutable alloc_stall_cycles : int; (* request pop blocked on full queue *)
  mutable raw_wait_cycles : int; (* load blocked on unresolved same-addr store *)
  mutable forwards : int;
  mutable kills : int;
  mutable commits : int;
  mutable loads : int;
}

(* Committed-order memory events, recorded only under
   [run_units ~record_mem] — the input to the Mem_model SC/ordering
   oracle. List order is execution order (the engine is sequential), which
   the oracle uses to order events within one cycle. *)
type mem_event =
  | Ev_st_alloc of { arr : string; seq : int; addr : int; t : int }
  | Ev_st_resolve of { arr : string; seq : int; poisoned : bool; t : int }
  | Ev_st_commit of { arr : string; seq : int; addr : int; t : int }
  | Ev_st_kill of { arr : string; seq : int; t : int }
  | Ev_ld_issue of {
      arr : string;
      seq : int;
      addr : int;
      older_sts : int;
      forwarded : bool;
      t : int;
      complete_at : int;
    }

type result = {
  cycles : int;
  agu_finish : int;
  cu_finish : int;
  au_finish : int array; (* extra access units, trace order; [||] for 2-way *)
  lsq : (string * lsq_stats) list;
  agu_retire : int array; (* per-event retire cycles, for timeline views *)
  cu_retire : int array;
  au_retire : int array array;
  stats : Stats.keyed;
      (* per-unit cycle attribution ("AGU", "CU", "DU:<arr>"); for every
         unit the counters sum exactly to [cycles] — each visited
         cycle-span is classified once, and between visited cycles the
         blocking state is frozen (the same invariant that makes the
         calendar jump sound), so span attribution is exact *)
  depth_samples : (int * string * int) array;
      (* (cycle, channel, depth) — emitted on change, in cycle order, only
         when [run_units ~record_depths:true]; channels are "<arr>.req_ld",
         "<arr>.req_st", "<arr>.stv", "<arr>.sq", "<arr>.lq" and
         "ldv<mem>.<unit>" *)
  mem_events : mem_event array;
      (* execution-order LSQ/memory event log; empty unless
         [run_units ~record_mem:true] *)
}

exception Timing_error of string

(* The dynamic deadlock detector's verdict, distinct from Timing_error so
   the sizing analyzer's boundary probes can tell "the model deadlocked"
   from engine misuse or a cycle overrun. *)
exception Deadlock of string

(* --- FIFO with arrival latency and bounded capacity ---------------------- *)

module Fifo = struct
  (* Ring buffer: [buf]/[avail] are parallel arrays of the physical
     capacity; [buf] stays [||] until the first push fixes the element
     type's representative. Pushes happen at nondecreasing [now], so
     arrival times are nondecreasing from head to tail. *)
  type 'a t = {
    capacity : int;
    phys : int; (* max capacity 1, the allocated ring size *)
    latency : int;
    mutable buf : 'a array;
    avail : int array; (* available-at cycle per slot *)
    mutable head : int; (* slot index of the oldest entry *)
    mutable size : int; (* pushed, not yet popped *)
  }

  let create ~capacity ~latency =
    let phys = max capacity 1 in
    {
      capacity;
      phys;
      latency;
      buf = [||];
      avail = Array.make phys 0;
      head = 0;
      size = 0;
    }

  let has_space t = t.size < t.capacity
  let is_empty t = t.size = 0

  let push t ~now payload =
    if not (has_space t) then raise (Timing_error "push into full FIFO");
    if Array.length t.buf = 0 then t.buf <- Array.make t.phys payload;
    let slot = (t.head + t.size) mod t.phys in
    t.buf.(slot) <- payload;
    t.avail.(slot) <- now + t.latency;
    t.size <- t.size + 1

  (* Non-allocating head accessors for the engine's hot path. *)
  let ready t ~now = t.size > 0 && t.avail.(t.head) <= now
  let head_avail t = t.avail.(t.head)

  let peek t ~now = if ready t ~now then Some t.buf.(t.head) else None

  let pop t =
    if t.size = 0 then raise (Timing_error "pop from empty FIFO");
    let v = t.buf.(t.head) in
    t.head <- (t.head + 1) mod t.phys;
    t.size <- t.size - 1;
    v
end

(* --- calendar --------------------------------------------------------------- *)

module Calendar = struct
  (* The stall path only ever advances to the *earliest* wake-up candidate,
     so the calendar is a running minimum, not a heap: components push their
     candidates and the engine jumps to [min]. Kept as the seed reference
     scheduler: it rescans every component on every stall, which the event
     wheel below replaces — the equivalence suite runs both. *)
  type t = { mutable min : int }

  let create () = { min = max_int }
  let clear c = c.min <- max_int
  let push c x = if x < c.min then c.min <- x
  let pop_min c = c.min
end

(* --- incremental event wheel ----------------------------------------------- *)

module Wheel = struct
  (* Incremental wake-candidate wheel: each component — replay unit or DU
     array — owns a bucket holding its future wake candidates, sorted
     ascending behind a consume cursor. The engine marks a bucket dirty
     whenever the component's state changes (it made progress, or a unit
     pushed into a DU's input FIFO); at a stall only dirty buckets
     recompute their candidates, clean ones advance their cursor past [t]
     in O(1) amortized. The candidate sets are exactly the ones the seed
     calendar would gather — the wheel only memoizes them between stalls —
     so jump targets, cycle counts and stall spans are bit-identical. *)
  type bucket = {
    mutable cands : int array; (* sorted ascending over [0, len) *)
    mutable len : int;
    mutable cur : int; (* first candidate not yet behind t *)
    mutable dirty : bool;
  }

  let create cap =
    { cands = Array.make (max cap 1) 0; len = 0; cur = 0; dirty = true }

  let reset b =
    b.len <- 0;
    b.cur <- 0

  let push b x =
    if b.len = Array.length b.cands then begin
      let grown = Array.make (2 * b.len) 0 in
      Array.blit b.cands 0 grown 0 b.len;
      b.cands <- grown
    end;
    b.cands.(b.len) <- x;
    b.len <- b.len + 1

  (* Candidate lists are short (bounded by the scan window) and arrive
     nearly sorted, so insertion sort beats a comparator closure. *)
  let seal b =
    let a = b.cands in
    for i = 1 to b.len - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done;
    b.dirty <- false

  (* Earliest cached candidate strictly after [t]; [max_int] when none. *)
  let head b ~t =
    while b.cur < b.len && b.cands.(b.cur) <= t do
      b.cur <- b.cur + 1
    done;
    if b.cur < b.len then b.cands.(b.cur) else max_int
end

(* Stall-path scheduler choice: the event wheel is the production path;
   the seed calendar is kept as the reference the qcheck equivalence
   suite replays against. *)
type scheduler = Event_wheel | Seed_calendar

(* --- LSQ / DU per array --------------------------------------------------- *)

(* Store states, packed as ints in the ring: 0 = awaiting, 1 = ready,
   2 = poisoned. *)
let st_awaiting = 0

let st_ready = 1
let st_poisoned = 2

type load_slot = {
  mutable live : bool;
  mutable pos : int; (* allocation order, monotone per array *)
  mutable ld_seq : int;
  mutable ld_addr : int;
  mutable ld_older_sts : int; (* stores preceding this load in program order *)
  mutable issued : bool;
  mutable complete_at : int; (* valid when issued *)
  mutable delayed : bool; (* hierarchy: DRAM start was pushed by contention *)
  mutable subs : unit Fifo.t array; (* subscriber value FIFOs of its mem *)
}

type ld_request = {
  rq_addr : int;
  rq_seq : int;
  rq_older : int;
  rq_subs : unit Fifo.t array;
}

type st_request = { sq_addr : int; sq_seq : int }

(* Load and store requests travel on separate channels (the paper's LSQ has
   distinct load/store queues with 4/32 entries); program order is carried
   by per-array sequence tags assigned from the AGU trace order.

   The store queue is a ring indexed by absolute allocation number:
   [sq_head_abs, sq_tail_abs) are live, [sq_resolved] is the awaiting-head —
   the next allocation a store value resolves. Store values arrive in
   allocation order and stores pop only at the head, so both pointers are
   O(1) cursors and never scan. RAW disambiguation uses [by_addr]: per
   address, the live store allocation numbers in (ascending) program
   order — a load consults only same-address stores. *)
type du_array = {
  arr : string;
  arr_id : int; (* dense creation-order id — the hierarchy's array key *)
  req_ld : ld_request Fifo.t;
  req_st : st_request Fifo.t;
  stv : bool Fifo.t; (* payload: poisoned? *)
  sq_phys : int;
  sq_seq : int array;
  sq_addr : int array;
  sq_state : int array;
  mutable sq_head_abs : int;
  mutable sq_tail_abs : int; (* = total stores accepted so far *)
  mutable sq_resolved : int; (* awaiting-head: next store-value target *)
  by_addr : (int, int list ref) Hashtbl.t;
  lq : load_slot array;
  mutable lq_live : int;
  mutable lq_unissued : int;
  mutable lq_next_pos : int;
  stats : lsq_stats;
  cstats : Stats.t; (* cycle attribution for this DU array *)
  (* per-cycle condition flags, reset at the top of [step_du] and read by
     the classifier after it; when a whole span of cycles is skipped the
     machine made no progress, so the flags are frozen and span
     attribution stays exact *)
  mutable f_progress : bool;
  mutable f_alloc_block : bool; (* ready request turned away: queue full *)
  mutable f_subs_full : bool; (* issuable load held by full subscriber FIFO *)
  mutable f_extra_adm : bool; (* admissible work beyond the scalar ports *)
  mutable f_mshr_full : bool; (* issuable load turned away: no free MSHR *)
  w_bucket : Wheel.bucket;
      (* this array's wake-candidate bucket; dirtied by [step_du] progress
         and by unit-side pushes into its input FIFOs *)
}

let sq_live a = a.sq_tail_abs - a.sq_head_abs
let sq_slot a abs = abs mod a.sq_phys

(* Pop the (resolved) head store and prune it from its address chain; the
   head is the globally oldest live store, so it is the chain's front. *)
let sq_pop a =
  let s = sq_slot a a.sq_head_abs in
  let addr = a.sq_addr.(s) in
  (match Hashtbl.find_opt a.by_addr addr with
  | Some r -> (
    match !r with
    | x :: tl when x = a.sq_head_abs ->
      if tl = [] then Hashtbl.remove a.by_addr addr else r := tl
    | _ -> ())
  | None -> ());
  a.sq_head_abs <- a.sq_head_abs + 1

(* --- unit replay ---------------------------------------------------------- *)

(* Channel identity packed as an int: (dense id lsl 2) lor kind. Request
   and store-value channels are keyed by array id, load-value channels by
   mem id (per unit by construction). *)
let k_req_ld = 0

let k_req_st = 1
let k_stv = 2
let k_ldv = 3

(* Per-event action with its targets resolved up front: the hot loop never
   hashes an array name or allocates a request payload. *)
type action =
  | Agate of int (* dep *)
  | Asend_ld of du_array * ld_request
  | Asend_st of du_array * st_request
  | Aproduce of du_array
  | Akill of du_array
  | Aconsume of unit Fifo.t

type urep = {
  tr : Trace.unit_trace;
  retire : int array; (* retire cycle per event; -1 = not retired *)
  prev_chan : int array; (* index of previous event on same channel; -1 *)
  sched : int array; (* iteration × unit_ii + depth, precomputed per event *)
  acts : action array;
  mutable n_retired : int;
  mutable scan_from : int; (* first unretired index *)
}

let window = 24

(* --- engine --------------------------------------------------------------- *)

type env = {
  cfg : Config.t;
  vector_width : int;
  branch_latency : int;
  forward_latency : int;
  memory_load_latency : int;
  store_queue_size : int;
  load_queue_size : int;
  arrays : (string, du_array) Hashtbl.t;
  mutable du_list : du_array list; (* creation order; step/idle iteration *)
  ldv : (int * Trace.unit_id, unit Fifo.t) Hashtbl.t;
  mutable ldv_list : unit Fifo.t list;
  mutable ldv_named : (string * unit Fifo.t) list; (* creation order, rev *)
  sub_fifos : (int, unit Fifo.t array) Hashtbl.t;
  mem : Mem.t option; (* None = scratchpad: the pre-hierarchy load path *)
  record_mem : bool;
  mutable mem_log : mem_event list; (* reversed execution order *)
}

let logm env ev = if env.record_mem then env.mem_log <- ev :: env.mem_log

let du_array env arr =
  match Hashtbl.find_opt env.arrays arr with
  | Some a -> a
  | None ->
    let cfg = env.cfg in
    let sq_phys = max cfg.Config.store_queue_size 1 in
    let lq_phys = max cfg.Config.load_queue_size 1 in
    let a =
      {
        arr;
        arr_id = Hashtbl.length env.arrays;
        req_ld =
          Fifo.create ~capacity:cfg.Config.request_fifo_capacity
            ~latency:cfg.Config.fifo_latency;
        req_st =
          Fifo.create ~capacity:cfg.Config.request_fifo_capacity
            ~latency:cfg.Config.fifo_latency;
        stv =
          Fifo.create ~capacity:cfg.Config.store_value_fifo_capacity
            ~latency:cfg.Config.fifo_latency;
        sq_phys;
        sq_seq = Array.make sq_phys 0;
        sq_addr = Array.make sq_phys 0;
        sq_state = Array.make sq_phys st_awaiting;
        sq_head_abs = 0;
        sq_tail_abs = 0;
        sq_resolved = 0;
        by_addr = Hashtbl.create 16;
        lq =
          Array.init lq_phys (fun _ ->
              {
                live = false;
                pos = 0;
                ld_seq = 0;
                ld_addr = 0;
                ld_older_sts = 0;
                issued = false;
                complete_at = 0;
                delayed = false;
                subs = [||];
              });
        lq_live = 0;
        lq_unissued = 0;
        lq_next_pos = 0;
        stats =
          {
            alloc_stall_cycles = 0;
            raw_wait_cycles = 0;
            forwards = 0;
            kills = 0;
            commits = 0;
            loads = 0;
          };
        cstats = Stats.create ();
        f_progress = false;
        f_alloc_block = false;
        f_subs_full = false;
        f_extra_adm = false;
        f_mshr_full = false;
        w_bucket = Wheel.create (3 + lq_phys);
      }
    in
    Hashtbl.replace env.arrays arr a;
    env.du_list <- env.du_list @ [ a ];
    a

let ldv_fifo env key =
  match Hashtbl.find_opt env.ldv key with
  | Some f -> f
  | None ->
    let f =
      Fifo.create ~capacity:env.cfg.Config.value_fifo_capacity
        ~latency:env.cfg.Config.fifo_latency
    in
    Hashtbl.replace env.ldv key f;
    env.ldv_list <- f :: env.ldv_list;
    let mem, u = key in
    env.ldv_named <-
      (Printf.sprintf "ldv%d.%s" mem (Trace.unit_name u), f) :: env.ldv_named;
    f

let make_urep env (tr : Trace.unit_trace) ~unit_ii =
  let n = Trace.length tr in
  let prev_chan = Array.make n (-1) in
  let sched = Array.make n 0 in
  let last : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let n_arr = Array.length tr.Trace.arrays in
  let seq_counter = Array.make (max n_arr 1) 0 in
  let st_counter = Array.make (max n_arr 1) 0 in
  let subs_of mem =
    match Hashtbl.find_opt env.sub_fifos mem with Some a -> a | None -> [||]
  in
  let acts = Array.make n (Agate (-1)) in
  (* ascending: seq/st counters, DU creation order and prev_chan wiring all
     depend on trace order *)
  for k = 0 to n - 1 do
    sched.(k) <- (Trace.iter tr k * unit_ii) + Trace.depth tr k;
    let tag = Trace.tag tr k in
    let chan = ref (-1) in
    let act =
      if tag = Trace.t_send_ld then begin
        let a = Trace.arr_id tr k in
        let seq = seq_counter.(a) in
        seq_counter.(a) <- seq + 1;
        chan := (a lsl 2) lor k_req_ld;
        Asend_ld
          ( du_array env tr.Trace.arrays.(a),
            { rq_addr = Trace.payload tr k; rq_seq = seq;
              rq_older = st_counter.(a); rq_subs = subs_of (Trace.mem tr k) }
          )
      end
      else if tag = Trace.t_send_st then begin
        let a = Trace.arr_id tr k in
        let seq = seq_counter.(a) in
        seq_counter.(a) <- seq + 1;
        st_counter.(a) <- st_counter.(a) + 1;
        chan := (a lsl 2) lor k_req_st;
        Asend_st
          ( du_array env tr.Trace.arrays.(a),
            { sq_addr = Trace.payload tr k; sq_seq = seq } )
      end
      else if tag = Trace.t_produce then begin
        let a = Trace.arr_id tr k in
        chan := (a lsl 2) lor k_stv;
        Aproduce (du_array env tr.Trace.arrays.(a))
      end
      else if tag = Trace.t_kill then begin
        let a = Trace.arr_id tr k in
        chan := (a lsl 2) lor k_stv;
        Akill (du_array env tr.Trace.arrays.(a))
      end
      else if tag = Trace.t_consume then begin
        let mem = Trace.mem tr k in
        chan := (mem lsl 2) lor k_ldv;
        Aconsume (ldv_fifo env (mem, tr.Trace.unit))
      end
      else Agate (Trace.payload tr k)
    in
    acts.(k) <- act;
    if !chan >= 0 then begin
      (match Hashtbl.find_opt last !chan with
      | Some j -> prev_chan.(k) <- j
      | None -> ());
      Hashtbl.replace last !chan k
    end
  done;
  {
    tr;
    retire = Array.make n (-1);
    prev_chan;
    sched;
    acts;
    n_retired = 0;
    scan_from = 0;
  }

(* Attempt to retire events of [u] at cycle [t]. Returns true on progress. *)
let step_unit env (u : urep) ~t : bool =
  let n = Array.length u.retire in
  let progress = ref false in
  (* earliest unresolved gate index before which everything must retire *)
  let idx = ref u.scan_from in
  let stop = min n (u.scan_from + window) in
  let blocked_by_gate = ref false in
  (* indices are bounded by [stop <= n] and prev_chan/dep entries are -1 or
     earlier in-range indices, so the scan reads unchecked *)
  let retire = u.retire in
  while !idx < stop && not !blocked_by_gate do
    let k = !idx in
    if Array.unsafe_get retire k < 0 then begin
      (* in-order per channel: the previous event on this channel must have
         retired, and at most [vector_width] ops share a cycle on one
         channel (§10's vectorized requests; width 1 = the paper's scalar
         port) *)
      let chan_ok () =
        let w = env.vector_width in
        let p = Array.unsafe_get u.prev_chan k in
        p < 0
        || (let rp = Array.unsafe_get retire p in
            rp >= 0
            &&
            if rp < t then true
            else if w = 1 then false
            else begin
              (* count how many chain predecessors already retired at t *)
              let rec same_cycle p n =
                if p < 0 || Array.unsafe_get retire p < t then n
                else same_cycle (Array.unsafe_get u.prev_chan p) (n + 1)
              in
              same_cycle p 0 < w
            end)
      in
      let retire_now () =
        Array.unsafe_set retire k t;
        u.n_retired <- u.n_retired + 1;
        progress := true
      in
      if Array.unsafe_get u.sched k <= t && chan_ok () then begin
        match Array.unsafe_get u.acts k with
        | Agate dep ->
          let resolved =
            if dep < 0 then true
            else
              let rd = Array.unsafe_get retire dep in
              rd >= 0 && rd + env.branch_latency <= t
          in
          if resolved then retire_now () else blocked_by_gate := true
        | Asend_ld (a, rq) ->
          if Fifo.has_space a.req_ld then begin
            Fifo.push a.req_ld ~now:t rq;
            a.w_bucket.Wheel.dirty <- true;
            retire_now ()
          end
        | Asend_st (a, rq) ->
          if Fifo.has_space a.req_st then begin
            Fifo.push a.req_st ~now:t rq;
            a.w_bucket.Wheel.dirty <- true;
            retire_now ()
          end
        | Aproduce a ->
          if Fifo.has_space a.stv then begin
            Fifo.push a.stv ~now:t false;
            a.w_bucket.Wheel.dirty <- true;
            retire_now ()
          end
        | Akill a ->
          if Fifo.has_space a.stv then begin
            Fifo.push a.stv ~now:t true;
            a.w_bucket.Wheel.dirty <- true;
            retire_now ()
          end
        | Aconsume f ->
          if Fifo.ready f ~now:t then begin
            ignore (Fifo.pop f);
            retire_now ()
          end
      end;
      (* a gate that has not retired blocks everything after it *)
      (match Array.unsafe_get u.acts k with
      | Agate _ when Array.unsafe_get retire k < 0 -> blocked_by_gate := true
      | _ -> ())
    end;
    incr idx
  done;
  while u.scan_from < n && Array.unsafe_get retire u.scan_from >= 0 do
    u.scan_from <- u.scan_from + 1
  done;
  !progress

(* RAW check for one load: every older store must have been *allocated*
   (address known) before the load can be disambiguated at all; then only
   same-address stores hold it. 0 = blocked, 1 = memory, 2 = forward. *)
let can_issue (a : du_array) (l : load_slot) =
  if l.issued then 0
  else if a.sq_tail_abs < l.ld_older_sts then 0
  else
    match Hashtbl.find_opt a.by_addr l.ld_addr with
    | None -> 1
    | Some r ->
      (* chain is in ascending program order: stop at the first younger *)
      let rec scan = function
        | [] -> 1
        | abs :: tl ->
          let s = sq_slot a abs in
          if a.sq_seq.(s) >= l.ld_seq then 1
          else if a.sq_state.(s) = st_awaiting then 0
          else if a.sq_state.(s) = st_ready then
            if scan_rest tl l.ld_seq then 2 else 0
          else scan tl
      and scan_rest lst seq =
        (* saw a ready conflict: the rest must not contain an awaiting one *)
        match lst with
        | [] -> true
        | abs :: tl ->
          let s = sq_slot a abs in
          if a.sq_seq.(s) >= seq then true
          else if a.sq_state.(s) = st_awaiting then false
          else scan_rest tl seq
      in
      scan !r

(* One DU cycle for one array. *)
let step_du env (a : du_array) ~t : bool =
  let w = env.vector_width in
  let progress = ref false in
  a.f_alloc_block <- false;
  a.f_subs_full <- false;
  a.f_extra_adm <- false;
  a.f_mshr_full <- false;
  (* 1. apply store values (up to the vector width) to the oldest awaiting
     allocations — the awaiting-head cursor, no scan *)
  let k = ref 0 in
  let continue_ = ref true in
  while !continue_ && !k < w do
    if Fifo.ready a.stv ~now:t && a.sq_resolved < a.sq_tail_abs then begin
      let poisoned = Fifo.pop a.stv in
      let s = sq_slot a a.sq_resolved in
      a.sq_state.(s) <- (if poisoned then st_poisoned else st_ready);
      logm env (Ev_st_resolve { arr = a.arr; seq = a.sq_seq.(s); poisoned; t });
      a.sq_resolved <- a.sq_resolved + 1;
      progress := true;
      incr k
    end
    else continue_ := false
  done;
  (* 2. drop poisoned heads (up to the vector width — a store mask kills a
     whole vector, §10) and commit at most one ready head through the
     scalar store port *)
  let k = ref 0 in
  let continue_ = ref true in
  while !continue_ && !k < w do
    if sq_live a > 0 && a.sq_state.(sq_slot a a.sq_head_abs) = st_poisoned
    then begin
      logm env
        (Ev_st_kill
           { arr = a.arr; seq = a.sq_seq.(sq_slot a a.sq_head_abs); t });
      sq_pop a;
      a.stats.kills <- a.stats.kills + 1;
      progress := true;
      incr k
    end
    else continue_ := false
  done;
  if sq_live a > 0 && a.sq_state.(sq_slot a a.sq_head_abs) = st_ready then begin
    (* store port: one commit per cycle *)
    let s = sq_slot a a.sq_head_abs in
    let st_addr = a.sq_addr.(s) in
    logm env (Ev_st_commit { arr = a.arr; seq = a.sq_seq.(s); addr = st_addr; t });
    (* write-through to the hierarchy: posted, but it occupies the DRAM
       bank and bus, delaying load misses *)
    (match env.mem with
    | Some mem -> Mem.store mem ~now:t ~arr:a.arr_id ~addr:st_addr
    | None -> ());
    sq_pop a;
    a.stats.commits <- a.stats.commits + 1;
    progress := true;
    (* a second ready head wanted the write port this cycle *)
    if sq_live a > 0 && a.sq_state.(sq_slot a a.sq_head_abs) = st_ready then
      a.f_extra_adm <- true
  end;
  (* 3. issue one ready load (out of order within the LQ): the oldest
     unissued load the RAW check admits *)
  if a.lq_unissued > 0 then begin
    let best = ref None in
    let admissible = ref 0 in
    Array.iter
      (fun l ->
        if l.live && not l.issued then begin
          let c = can_issue a l in
          if c <> 0 then begin
            incr admissible;
            match !best with
            | Some (bl, _) when bl.pos < l.pos -> ()
            | _ -> best := Some (l, c)
          end
        end)
      a.lq;
    match !best with
    | Some (l, code) ->
      (* all subscriber FIFOs must have space (reserved at issue) *)
      if Array.for_all Fifo.has_space l.subs then begin
        (* forwarded loads bypass the hierarchy (LSQ-internal); memory
           loads either take the fixed scratchpad latency or consult the
           cache/DRAM model, which may turn them away (MSHR exhaustion) *)
        let outcome =
          if code = 2 then begin
            a.stats.forwards <- a.stats.forwards + 1;
            Mem.Load_done { complete_at = t + env.forward_latency;
                            delayed = false }
          end
          else
            match env.mem with
            | None ->
              Mem.Load_done { complete_at = t + env.memory_load_latency;
                              delayed = false }
            | Some mem -> Mem.load mem ~now:t ~arr:a.arr_id ~addr:l.ld_addr
        in
        match outcome with
        | Mem.Load_mshr_full -> a.f_mshr_full <- true
        | Mem.Load_done { complete_at; delayed } ->
          l.issued <- true;
          l.complete_at <- complete_at;
          l.delayed <- delayed;
          a.lq_unissued <- a.lq_unissued - 1;
          a.stats.loads <- a.stats.loads + 1;
          logm env
            (Ev_ld_issue
               { arr = a.arr; seq = l.ld_seq; addr = l.ld_addr;
                 older_sts = l.ld_older_sts; forwarded = code = 2; t;
                 complete_at });
          Array.iter (fun f -> Fifo.push f ~now:complete_at ()) l.subs;
          progress := true;
          if !admissible >= 2 then a.f_extra_adm <- true
      end
      else a.f_subs_full <- true
    | None -> a.stats.raw_wait_cycles <- a.stats.raw_wait_cycles + 1
  end;
  (* 4. retire completed loads from the LQ *)
  if a.lq_live > a.lq_unissued then
    Array.iter
      (fun l ->
        if l.live && l.issued && l.complete_at <= t then begin
          l.live <- false;
          a.lq_live <- a.lq_live - 1;
          progress := true
        end)
      a.lq;
  (* 5. accept up to [vector_width] store and load requests into the LSQ *)
  let k = ref 0 in
  let continue_ = ref true in
  while !continue_ && !k < w do
    if Fifo.ready a.req_st ~now:t then
      if sq_live a < env.store_queue_size then begin
        let rq = Fifo.pop a.req_st in
        let s = sq_slot a a.sq_tail_abs in
        a.sq_seq.(s) <- rq.sq_seq;
        a.sq_addr.(s) <- rq.sq_addr;
        a.sq_state.(s) <- st_awaiting;
        logm env
          (Ev_st_alloc { arr = a.arr; seq = rq.sq_seq; addr = rq.sq_addr; t });
        (match Hashtbl.find_opt a.by_addr rq.sq_addr with
        | Some r -> r := !r @ [ a.sq_tail_abs ]
        | None -> Hashtbl.replace a.by_addr rq.sq_addr (ref [ a.sq_tail_abs ]));
        a.sq_tail_abs <- a.sq_tail_abs + 1;
        progress := true;
        incr k
      end
      else begin
        a.stats.alloc_stall_cycles <- a.stats.alloc_stall_cycles + 1;
        a.f_alloc_block <- true;
        continue_ := false
      end
    else continue_ := false
  done;
  let k = ref 0 in
  let continue_ = ref true in
  while !continue_ && !k < w do
    if Fifo.ready a.req_ld ~now:t then
      if a.lq_live < env.load_queue_size then begin
        let rq = Fifo.pop a.req_ld in
        let slot = ref None in
        Array.iter
          (fun l -> if (not l.live) && !slot = None then slot := Some l)
          a.lq;
        let l = match !slot with Some l -> l | None -> assert false in
        l.live <- true;
        l.pos <- a.lq_next_pos;
        a.lq_next_pos <- a.lq_next_pos + 1;
        l.ld_seq <- rq.rq_seq;
        l.ld_addr <- rq.rq_addr;
        l.ld_older_sts <- rq.rq_older;
        l.issued <- false;
        l.complete_at <- 0;
        l.subs <- rq.rq_subs;
        a.lq_live <- a.lq_live + 1;
        a.lq_unissued <- a.lq_unissued + 1;
        progress := true;
        incr k
      end
      else begin
        a.stats.alloc_stall_cycles <- a.stats.alloc_stall_cycles + 1;
        a.f_alloc_block <- true;
        continue_ := false
      end
    else continue_ := false
  done;
  !progress

let du_idle (a : du_array) =
  Fifo.is_empty a.req_ld && Fifo.is_empty a.req_st && Fifo.is_empty a.stv
  && sq_live a = 0 && a.lq_live = 0

(* --- cycle attribution ------------------------------------------------------ *)

(* Classify what one unit spent cycle [t] (and, when the engine then jumps,
   every cycle of the frozen span) on. Runs after [step_unit]: when the
   unit made no progress and is not done, the head event [scan_from] is the
   blocker — its in-order channel predecessor retired on an earlier cycle
   (nothing retired at [t]), so the block is its issue slot, its gate, or
   its channel resource. *)
let classify_unit (u : urep) ~progress ~t : Stats.cause =
  if progress then Stats.Busy
  else if u.n_retired = Array.length u.retire then Stats.Drain
  else begin
    let k = u.scan_from in
    if u.sched.(k) > t then Stats.Sched_wait
    else
      match u.acts.(k) with
      | Agate _ -> Stats.Gate_wait
      | Asend_ld _ | Asend_st _ | Aproduce _ | Akill _ -> Stats.Fifo_full
      | Aconsume _ -> Stats.Fifo_empty
  end

(* Classify one DU array's cycle from the flags [step_du] left behind.
   Priority: a request turned away by a full queue is the §8.2.1 cost
   mechanism and outranks everything; then useful work (downgraded to
   port contention when admissible work exceeded the scalar ports); then
   the stall causes. In a no-progress cycle a non-empty store queue means
   its head is still awaiting the CU's value/poison verdict (a ready or
   poisoned head would have progressed). *)
let classify_du (a : du_array) ~progress : Stats.cause =
  if a.f_alloc_block then Stats.Lsq_alloc
  else if progress then
    if a.f_extra_adm then Stats.Port_contention else Stats.Busy
  else if du_idle a then Stats.Drain
  else if sq_live a > 0 then Stats.Poison_wait
  else if a.lq_unissued > 0 then
    if a.f_subs_full then Stats.Fifo_full
    else if a.f_mshr_full then Stats.Mshr_full
    else Stats.Raw_wait
  else if a.lq_live > 0 then
    (* hierarchy only: if an in-flight miss's DRAM access was pushed past
       its allocation cycle by bank/bus contention, the wait is
       contention, not pure latency *)
    if Array.exists (fun l -> l.live && l.issued && l.delayed) a.lq then
      Stats.Dram_bank
    else Stats.Mem_wait
  else Stats.Fifo_empty (* only in-flight tokens on the input channels *)

(* --- next-wake candidates --------------------------------------------------- *)

(* Contribute every cycle at which [u] might retire something: scheduled
   issue slots, in-order successors of retired events, gate resolutions.
   The scan stops at the first unresolved gate, as [step_unit]'s does:
   nothing past it can retire before the gate does, and the gate's own
   resolution candidate is pushed before stopping. *)
let unit_wakes env (u : urep) ~t ~(push : int -> unit) =
  let cand x = if x > t then push x in
  let n = Array.length u.retire in
  let stop = min n (u.scan_from + window) in
  let k = ref u.scan_from in
  let blocked = ref false in
  while !k < stop && not !blocked do
    if u.retire.(!k) < 0 then begin
      cand u.sched.(!k);
      let p = u.prev_chan.(!k) in
      if p >= 0 && u.retire.(p) >= 0 then cand (u.retire.(p) + 1);
      match u.acts.(!k) with
      | Agate dep ->
        if dep >= 0 && u.retire.(dep) >= 0 then
          cand (u.retire.(dep) + env.branch_latency);
        blocked := true
      | _ -> ()
    end;
    incr k
  done

(* FIFO arrivals and load completions of one DU array. *)
let du_wakes (a : du_array) ~t ~(push : int -> unit) =
  let cand x = if x > t then push x in
  if a.req_ld.Fifo.size > 0 then cand (Fifo.head_avail a.req_ld);
  if a.req_st.Fifo.size > 0 then cand (Fifo.head_avail a.req_st);
  if a.stv.Fifo.size > 0 then cand (Fifo.head_avail a.stv);
  Array.iter
    (fun l -> if l.live && l.issued then cand l.complete_at)
    a.lq

(* --- top level ------------------------------------------------------------ *)

let run_units ?(cfg = Config.default) ?(validate = true)
    ?(max_cycles = 50_000_000) ?(record_depths = false)
    ?(record_mem = false) ?(scheduler = Event_wheel)
    ~(subscribers : (int * Trace.unit_id list) list)
    (trs : Trace.unit_trace array) : result =
  if Array.length trs < 2 then
    raise (Timing_error "run_units: need at least AGU and CU traces");
  if validate then Config.validate cfg;
  let env =
    {
      cfg;
      vector_width = cfg.Config.vector_width;
      branch_latency = cfg.Config.branch_latency;
      forward_latency = cfg.Config.forward_latency;
      memory_load_latency = cfg.Config.memory_load_latency;
      store_queue_size = cfg.Config.store_queue_size;
      load_queue_size = cfg.Config.load_queue_size;
      arrays = Hashtbl.create 8;
      du_list = [];
      ldv = Hashtbl.create 16;
      ldv_list = [];
      ldv_named = [];
      sub_fifos = Hashtbl.create 16;
      mem =
        (match cfg.Config.hierarchy with
        | Config.Scratchpad -> None
        | Config.Hierarchy g -> Some (Mem.create g));
      record_mem;
      mem_log = [];
    }
  in
  (* last binding wins for duplicate mems, as with Hashtbl.replace *)
  List.iter
    (fun (m, subs) ->
      Hashtbl.replace env.sub_fifos m
        (Array.of_list (List.map (fun u -> ldv_fifo env (m, u)) subs)))
    subscribers;
  (* units in dense Trace.unit_index order: [agu; cu; au1; ...]. Build in
     order — DU arrays and load-value FIFOs are interned at first
     appearance, and their creation order is observable (stats, samples). *)
  let n_units = Array.length trs in
  let units =
    (* explicit left-to-right loop: Array.init's application order is
       unspecified and interning order must follow trace order *)
    let u0 = make_urep env trs.(0) ~unit_ii:cfg.Config.unit_ii in
    let a = Array.make n_units u0 in
    for i = 1 to n_units - 1 do
      a.(i) <- make_urep env trs.(i) ~unit_ii:cfg.Config.unit_ii
    done;
    a
  in
  let n_ev = Array.map (fun tr -> Trace.length tr) trs in
  let t = ref 0 in
  let finish = Array.make n_units 0 in
  let idle_rounds = ref 0 in
  let calendar = Calendar.create () in
  (* one wake bucket per replay unit (DU buckets live on the arrays) *)
  let ubuckets = Array.init n_units (fun _ -> Wheel.create (3 * window)) in
  let ustats = Array.init n_units (fun _ -> Stats.create ()) in
  let retired_summary () =
    String.concat ", "
      (Array.to_list
         (Array.mapi
            (fun i u ->
              Fmt.str "%s %d/%d"
                (Trace.unit_name u.tr.Trace.unit)
                u.n_retired n_ev.(i))
            units))
  in
  (* depth sampling (only when requested): channel occupancies are
     piecewise constant between visited cycles — size changes only on a
     push or pop, which is machine progress — so sampling at visited
     cycles, emitting on change, is exact *)
  let samples = ref [] in
  let sample_last : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let sample ~t chan depth =
    match Hashtbl.find_opt sample_last chan with
    | Some d when d = depth -> ()
    | _ ->
      Hashtbl.replace sample_last chan depth;
      samples := (t, chan, depth) :: !samples
  in
  let sample_depths ~t =
    List.iter
      (fun a ->
        sample ~t (a.arr ^ ".req_ld") a.req_ld.Fifo.size;
        sample ~t (a.arr ^ ".req_st") a.req_st.Fifo.size;
        sample ~t (a.arr ^ ".stv") a.stv.Fifo.size;
        sample ~t (a.arr ^ ".sq") (sq_live a);
        sample ~t (a.arr ^ ".lq") a.lq_live)
      env.du_list;
    List.iter
      (fun (name, (f : unit Fifo.t)) -> sample ~t name f.Fifo.size)
      (List.rev env.ldv_named)
  in
  (* [make_urep] has resolved every event's targets, so the DU array and
     load-value FIFO sets are final: freeze them for the hot loop. *)
  let dus = Array.of_list env.du_list in
  let n_dus = Array.length dus in
  let ldvs = Array.of_list env.ldv_list in
  let n_ldvs = Array.length ldvs in
  let done_ () =
    (let ok = ref true in
     for i = 0 to n_units - 1 do
       if units.(i).n_retired <> n_ev.(i) then ok := false
     done;
     !ok)
    &&
    let ok = ref true in
    for i = 0 to n_dus - 1 do
      if not (du_idle (Array.unsafe_get dus i)) then ok := false
    done;
    for i = 0 to n_ldvs - 1 do
      if not (Fifo.is_empty (Array.unsafe_get ldvs i)) then ok := false
    done;
    !ok
  in
  while not (done_ ()) do
    if !t > max_cycles then
      raise
        (Timing_error
           (Fmt.str "exceeded %d cycles (%s retired)" max_cycles
              (retired_summary ())));
    let pu = Array.make n_units false in
    for i = 0 to n_units - 1 do
      pu.(i) <- step_unit env units.(i) ~t:!t;
      if pu.(i) then (Array.unsafe_get ubuckets i).Wheel.dirty <- true
    done;
    let p3 = ref false in
    for i = 0 to n_dus - 1 do
      let a = Array.unsafe_get dus i in
      (* a fully drained array is a no-op step: skip it, clearing the
         flags [step_du] would have cleared *)
      let p =
        if du_idle a then begin
          a.f_alloc_block <- false;
          a.f_subs_full <- false;
          a.f_extra_adm <- false;
          a.f_mshr_full <- false;
          false
        end
        else step_du env a ~t:!t
      in
      a.f_progress <- p;
      if p then begin
        p3 := true;
        a.w_bucket.Wheel.dirty <- true
      end
    done;
    let p3 = !p3 in
    for i = 0 to n_units - 1 do
      if units.(i).n_retired = n_ev.(i) && finish.(i) = 0 then
        finish.(i) <- !t
    done;
    let next_t =
      if Array.exists (fun p -> p) pu || p3 then begin
        (* more same-state work may be admissible next cycle (per-channel
           in-order retirement, the scalar store port): wake at t+1 *)
        idle_rounds := 0;
        !t + 1
      end
      else begin
        (* Nothing moved this cycle: find the earliest time-driven
           constraint (FIFO arrival, load completion, scheduled issue,
           gate resolution) and jump to it. If no future time can unblock
           anything, the architecture model has deadlocked. *)
        let wake =
          match scheduler with
          | Seed_calendar ->
            (* reference path: rebuild the full candidate set per stall *)
            Calendar.clear calendar;
            let push x = Calendar.push calendar x in
            Array.iter (fun u -> unit_wakes env u ~t:!t ~push) units;
            for i = 0 to n_dus - 1 do
              du_wakes (Array.unsafe_get dus i) ~t:!t ~push
            done;
            for i = 0 to n_ldvs - 1 do
              let f = Array.unsafe_get ldvs i in
              if f.Fifo.size > 0 then begin
                let avail = Fifo.head_avail f in
                if avail > !t then push avail
              end
            done;
            (match env.mem with
            | Some mem -> (
              match Mem.next_wake mem ~now:!t with
              | Some w -> push w
              | None -> ())
            | None -> ());
            Calendar.pop_min calendar
          | Event_wheel ->
            (* incremental path: only components whose state changed since
               their last fill recompute; clean buckets advance a cursor *)
            let best = ref max_int in
            for i = 0 to n_units - 1 do
              let b = Array.unsafe_get ubuckets i in
              if b.Wheel.dirty then begin
                Wheel.reset b;
                unit_wakes env units.(i) ~t:!t ~push:(fun x ->
                    Wheel.push b x);
                Wheel.seal b
              end;
              let h = Wheel.head b ~t:!t in
              if h < !best then best := h
            done;
            for i = 0 to n_dus - 1 do
              let a = Array.unsafe_get dus i in
              let b = a.w_bucket in
              if b.Wheel.dirty then begin
                Wheel.reset b;
                du_wakes a ~t:!t ~push:(fun x -> Wheel.push b x);
                Wheel.seal b
              end;
              let h = Wheel.head b ~t:!t in
              if h < !best then best := h
            done;
            (* load-value FIFOs and the hierarchy are O(1) per stall
               already (head cursor; cached fill minimum): re-reading
               them beats tracking their cross-component dirtiness *)
            for i = 0 to n_ldvs - 1 do
              let f = Array.unsafe_get ldvs i in
              if f.Fifo.size > 0 then begin
                let avail = Fifo.head_avail f in
                if avail > !t && avail < !best then best := avail
              end
            done;
            (match env.mem with
            | Some mem -> (
              (* an MSHR freeing (its fill completing) can admit a
                 previously turned-away load. The fill time is also the
                 allocating load's complete_at, so this is usually
                 redundant with du_wakes — kept for the frozen-span
                 invariant's sake. *)
              match Mem.next_wake mem ~now:!t with
              | Some w when w < !best -> best := w
              | _ -> ())
            | None -> ());
            !best
        in
        if wake = max_int then begin
          incr idle_rounds;
          if !idle_rounds > 4 then
            raise
              (Deadlock
                 (Fmt.str "timing deadlock at cycle %d (%s retired)" !t
                    (retired_summary ())));
          !t + 1
        end
        else begin
          idle_rounds := 0;
          wake
        end
      end
    in
    (* attribute the whole [t, next_t) span: when the span is longer than
       one cycle no unit progressed, so every classification below is a
       stall state frozen until the earliest calendar wake *)
    let span = next_t - !t in
    for i = 0 to n_units - 1 do
      Stats.add ustats.(i)
        (classify_unit units.(i) ~progress:pu.(i) ~t:!t)
        span
    done;
    Array.iter
      (fun a -> Stats.add a.cstats (classify_du a ~progress:a.f_progress) span)
      dus;
    if record_depths then sample_depths ~t:!t;
    t := next_t
  done;
  {
    cycles = !t;
    agu_finish = finish.(0);
    cu_finish = finish.(1);
    au_finish = Array.sub finish 2 (n_units - 2);
    lsq =
      Hashtbl.fold (fun arr a acc -> (arr, a.stats) :: acc) env.arrays []
      |> List.sort compare;
    agu_retire = units.(0).retire;
    cu_retire = units.(1).retire;
    au_retire = Array.map (fun u -> u.retire) (Array.sub units 2 (n_units - 2));
    stats =
      (Array.to_list
         (Array.mapi
            (fun i u -> (Trace.unit_name u.tr.Trace.unit, ustats.(i)))
            units)
      @ List.map (fun a -> ("DU:" ^ a.arr, a.cstats)) env.du_list)
      |> List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2);
    depth_samples = Array.of_list (List.rev !samples);
    mem_events = Array.of_list (List.rev env.mem_log);
  }

(* The out-of-order scan depth, exposed so the static sizing analyzer's
   abstract causality replay matches the engine's retirement window. *)
let scan_window = window

(* --- ORACLE trace filtering ----------------------------------------------- *)

(* The ORACLE bound (paper §8.1.1) runs the same architecture with perfect
   speculation: mis-speculated store requests never enter the AGU stream
   and the CU never issues kills. Which store requests die is decided by
   matching, per array, the k-th store request against the k-th store value
   tag — exactly the pairing Lemma 6.1 guarantees. *)
let oracle_filter (agu_tr : Trace.unit_trace) (cu_tr : Trace.unit_trace) :
    Trace.unit_trace * Trace.unit_trace =
  (* per array, the kill flags in CU store-value order; both traces share
     one dense array-id table *)
  let n_arr =
    max (Array.length agu_tr.Trace.arrays) (Array.length cu_tr.Trace.arrays)
  in
  let counts = Array.make (max n_arr 1) 0 in
  let n_cu = Trace.length cu_tr in
  for k = 0 to n_cu - 1 do
    let tag = Trace.tag cu_tr k in
    if tag = Trace.t_produce || tag = Trace.t_kill then begin
      let a = Trace.arr_id cu_tr k in
      counts.(a) <- counts.(a) + 1
    end
  done;
  let kill_flags = Array.map (fun c -> Array.make (max c 1) false) counts in
  let fill = Array.make (max n_arr 1) 0 in
  for k = 0 to n_cu - 1 do
    let tag = Trace.tag cu_tr k in
    if tag = Trace.t_produce || tag = Trace.t_kill then begin
      let a = Trace.arr_id cu_tr k in
      kill_flags.(a).(fill.(a)) <- tag = Trace.t_kill;
      fill.(a) <- fill.(a) + 1
    end
  done;
  (* rebuild each trace, dropping killed store sends and kill events, and
     remapping gate dependency indices *)
  let filter_trace (tr : Trace.unit_trace) =
    let n = Trace.length tr in
    let cursor = Array.make (max n_arr 1) 0 in
    let killed a =
      let i = cursor.(a) in
      cursor.(a) <- i + 1;
      i < counts.(a) && kill_flags.(a).(i)
    in
    let keep = Array.make (max n 1) true in
    for i = 0 to n - 1 do
      let tag = Trace.tag tr i in
      if tag = Trace.t_send_st || tag = Trace.t_kill then begin
        if killed (Trace.arr_id tr i) then keep.(i) <- false
      end
      else if tag = Trace.t_produce then
        (* advances the same per-array cursor as kills: the k-th store
           value tag pairs with the k-th store request *)
        ignore (killed (Trace.arr_id tr i))
    done;
    (* new index of the latest kept entry at or before each old index *)
    let before = Array.make (max n 1) (-1) in
    let kept_count = ref 0 in
    for i = 0 to n - 1 do
      if keep.(i) then begin
        before.(i) <- !kept_count;
        incr kept_count
      end
      else before.(i) <- (if i = 0 then -1 else before.(i - 1))
    done;
    let stride = Trace.stride in
    let out = Array.make (!kept_count * stride) 0 in
    let j = ref 0 in
    for i = 0 to n - 1 do
      if keep.(i) then begin
        Array.blit tr.Trace.data (i * stride) out (!j * stride) stride;
        if Trace.tag tr i = Trace.t_gate then begin
          let dep = Trace.payload tr i in
          out.((!j * stride) + 3) <- (if dep < 0 then -1 else before.(dep))
        end;
        incr j
      end
    done;
    { tr with Trace.data = out; n = !kept_count }
  in
  (filter_trace agu_tr, filter_trace cu_tr)
