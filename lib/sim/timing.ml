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

   Compile once, time many: everything about a replay that does not
   depend on the configuration — channel predecessor links, per-array
   program-order tags, the interning of DU arrays and load-value FIFOs —
   is computed by [compile] once per recorded execution. [run] then only
   instantiates FIFOs, LSQ rings and the memory hierarchy from the
   configuration and reads every other per-event fact from the trace's
   own words, so the steady-state loop allocates nothing.

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

(* Committed-order memory events, recorded only under [run ~record_mem] —
   the input to the Mem_model SC/ordering oracle. List order is execution
   order (the engine is sequential), which the oracle uses to order events
   within one cycle. *)
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
  agu_retire : int array;
      (* per-event retire cycles, for timeline views; [||] unless
         [run ~record_depths:true] *)
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
         when [run ~record_depths:true]; channels are "<arr>.req_ld",
         "<arr>.req_st", "<arr>.stv", "<arr>.sq", "<arr>.lq" and
         "ldv<mem>.<unit>" *)
  mem_events : mem_event array;
      (* execution-order LSQ/memory event log; empty unless
         [run ~record_mem:true] *)
}

exception Timing_error of string

(* The dynamic deadlock detector's verdict, distinct from Timing_error so
   the sizing analyzer's boundary probes can tell "the model deadlocked"
   from engine misuse or a cycle overrun. *)
exception Deadlock of string

(* Rings are sized to a power of two so a slot is an [land], not a
   division; the extra slots are never used. *)
let pow2_above n =
  let p = ref 1 in
  while !p < n do
    p := 2 * !p
  done;
  !p

(* --- FIFO with arrival latency and bounded capacity ---------------------- *)

module Fifo = struct
  (* Ring buffer of int payloads: [buf]/[avail] are parallel arrays of the
     physical capacity. Pushes happen at nondecreasing [now], so arrival
     times are nondecreasing from head to tail. *)
  type t = {
    capacity : int;
    mask : int; (* ring size - 1; the ring is a power of two >= capacity *)
    latency : int;
    buf : int array;
    avail : int array; (* available-at cycle per slot *)
    mutable head : int; (* slot index of the oldest entry *)
    mutable size : int; (* pushed, not yet popped *)
  }

  let create ~capacity ~latency =
    let phys = pow2_above capacity in
    {
      capacity;
      mask = phys - 1;
      latency;
      buf = Array.make phys 0;
      avail = Array.make phys 0;
      head = 0;
      size = 0;
    }

  let has_space t = t.size < t.capacity
  let is_empty t = t.size = 0

  let push t ~now payload =
    if not (has_space t) then raise (Timing_error "push into full FIFO");
    let slot = (t.head + t.size) land t.mask in
    t.buf.(slot) <- payload;
    t.avail.(slot) <- now + t.latency;
    t.size <- t.size + 1

  let ready t ~now = t.size > 0 && t.avail.(t.head) <= now
  let head_avail t = t.avail.(t.head)

  let pop t =
    if t.size = 0 then raise (Timing_error "pop from empty FIFO");
    let v = t.buf.(t.head) in
    t.head <- (t.head + 1) land t.mask;
    t.size <- t.size - 1;
    v
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

  (* Smallest pushed candidate, unsorted; [max_int] when empty — the seed
     calendar's running minimum over one full rescan. *)
  let min b =
    let m = ref max_int in
    for i = 0 to b.len - 1 do
      if b.cands.(i) < !m then m := b.cands.(i)
    done;
    !m
end

(* Stall-path scheduler choice: the event wheel is the production path;
   the seed calendar is kept as the reference the qcheck equivalence
   suite replays against. *)
type scheduler = Event_wheel | Seed_calendar

(* --- compiled replay ------------------------------------------------------- *)

(* Channel predecessors and program-order send tags of one unit trace,
   computed once per recorded execution. Every other per-event fact —
   tag, array and mem ids, iteration, depth, address, gate dependency —
   is read from the trace's own words. *)
type cunit = {
  tr : Trace.unit_trace;
  prev_chan : int array; (* previous event on the same channel; -1 *)
  send_tag : int array;
      (* sends: per-array program-order seq in the low [seq_bits], and on
         loads the number of same-array stores preceding it above them;
         0 for every other event *)
  du_of_arr : int array; (* trace array id -> DU index; -1 when unused *)
  ldv_of_mem : int array; (* mem id -> this unit's load-value FIFO; -1 *)
}

type replay = {
  units : cunit array; (* dense Trace.unit_index order *)
  du_names : string array;
      (* DU arrays in first-appearance order over [agu; cu; au1; ...]
         traces. The index is the hierarchy's array id (Mem line ids) and
         orders stats and depth samples, so it is observable. *)
  ldv_names : string array;
      (* "ldv<mem>.<unit>": subscriber FIFOs first, then first consume *)
  subs_of_mem : int array array; (* mem id -> subscriber load-value FIFOs *)
  spare : int array array option Atomic.t;
      (* retire arrays a finished run handed back for the next one: taken
         and returned atomically, so concurrent runs never share them *)
}

let seq_bits = 31
let seq_mask = (1 lsl seq_bits) - 1

(* A request FIFO entry names the event that sent it: its trace index
   above [ev_bits], its unit below. *)
let ev_bits = 16
let ev_mask = (1 lsl ev_bits) - 1

let traces rp = Array.map (fun c -> c.tr) rp.units

let compile ~(subscribers : (int * Trace.unit_id list) list)
    (trs : Trace.unit_trace array) : replay =
  let n_units = Array.length trs in
  if n_units < 2 then
    raise (Timing_error "compile: need at least AGU and CU traces");
  if n_units > ev_mask then raise (Timing_error "compile: too many units");
  (* mem ids index flat tables: size them to every mem a send, a consume
     or a subscriber list names *)
  let n_mems =
    Array.fold_left
      (fun acc tr ->
        Trace.fold
          (fun acc tr k ->
            let tag = Trace.tag tr k in
            if tag = Trace.t_send_ld || tag = Trace.t_consume then
              max acc (Trace.mem tr k + 1)
            else acc)
          acc tr)
      (List.fold_left (fun acc (m, _) -> max acc (m + 1)) 1 subscribers)
      trs
  in
  let du_ids : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let du_names = ref [] in
  let intern_du name =
    match Hashtbl.find_opt du_ids name with
    | Some i -> i
    | None ->
      let i = Hashtbl.length du_ids in
      Hashtbl.replace du_ids name i;
      du_names := name :: !du_names;
      i
  in
  let ldv_ids : (int * Trace.unit_id, int) Hashtbl.t = Hashtbl.create 16 in
  let ldv_names = ref [] in
  let intern_ldv mem u =
    match Hashtbl.find_opt ldv_ids (mem, u) with
    | Some i -> i
    | None ->
      let i = Hashtbl.length ldv_ids in
      Hashtbl.replace ldv_ids (mem, u) i;
      ldv_names :=
        Printf.sprintf "ldv%d.%s" mem (Trace.unit_name u) :: !ldv_names;
      i
  in
  (* subscriber FIFOs intern first; last binding wins for duplicate mems *)
  let subs_of_mem = Array.make n_mems [||] in
  List.iter
    (fun (m, subs) ->
      subs_of_mem.(m) <- Array.of_list (List.map (intern_ldv m) subs))
    subscribers;
  let compile_unit (tr : Trace.unit_trace) =
    let n = Trace.length tr in
    let n_arr = max (Array.length tr.Trace.arrays) 1 in
    let prev_chan = Array.make n (-1) in
    let send_tag = Array.make n 0 in
    let du_of_arr = Array.make n_arr (-1) in
    let ldv_of_mem = Array.make n_mems (-1) in
    let seq = Array.make n_arr 0 in
    let stores = Array.make n_arr 0 in
    (* last event per channel: [3a + kind] for the load-request,
       store-request and store-value channels of array [a]; per mem for
       load values *)
    let last_arr = Array.make (3 * n_arr) (-1) in
    let last_mem = Array.make n_mems (-1) in
    (* ascending: seq/store counters, interning order and the
       predecessor links all follow trace order *)
    for k = 0 to n - 1 do
      let tag = Trace.tag tr k in
      if tag = Trace.t_consume then begin
        let m = Trace.mem tr k in
        if ldv_of_mem.(m) < 0 then
          ldv_of_mem.(m) <- intern_ldv m tr.Trace.unit;
        prev_chan.(k) <- last_mem.(m);
        last_mem.(m) <- k
      end
      else if tag <> Trace.t_gate then begin
        let a = Trace.arr_id tr k in
        if du_of_arr.(a) < 0 then
          du_of_arr.(a) <- intern_du tr.Trace.arrays.(a);
        let kind =
          if tag = Trace.t_send_ld then begin
            send_tag.(k) <- seq.(a) lor (stores.(a) lsl seq_bits);
            seq.(a) <- seq.(a) + 1;
            0
          end
          else if tag = Trace.t_send_st then begin
            send_tag.(k) <- seq.(a);
            seq.(a) <- seq.(a) + 1;
            stores.(a) <- stores.(a) + 1;
            1
          end
          else 2 (* produce or kill: the store-value channel *)
        in
        let c = (3 * a) + kind in
        prev_chan.(k) <- last_arr.(c);
        last_arr.(c) <- k
      end
    done;
    { tr; prev_chan; send_tag; du_of_arr; ldv_of_mem }
  in
  (* explicit left-to-right loop: Array.map's application order is
     unspecified and interning order must follow unit order *)
  let u0 = compile_unit trs.(0) in
  let units = Array.make n_units u0 in
  for i = 1 to n_units - 1 do
    units.(i) <- compile_unit trs.(i)
  done;
  {
    units;
    du_names = Array.of_list (List.rev !du_names);
    ldv_names = Array.of_list (List.rev !ldv_names);
    subs_of_mem;
    spare = Atomic.make None;
  }

(* --- LSQ / DU per array --------------------------------------------------- *)

(* Store states, packed as ints in the ring: 0 = awaiting, 1 = ready,
   2 = poisoned. *)
let st_awaiting = 0

let st_ready = 1
let st_poisoned = 2

(* Open-addressing map from a store address to the allocation number of
   the youngest live store at that address (linear probing, backward-shift
   deletion). It holds at most one key per live store and is sized to at
   least twice the store queue, so probes stay short and it never fills.
   [empty] marks a free slot: a store address is a word index, never
   [min_int]. *)
module Addr_map = struct
  type t = { keys : int array; vals : int array; mask : int }

  let empty = min_int

  let create n =
    let cap = pow2_above (max 8 (2 * n)) in
    { keys = Array.make cap empty; vals = Array.make cap 0; mask = cap - 1 }

  let home m key = ((key * 0x2545F4914F6CDD1D) lsr 17) land m.mask

  (* the slot holding [key], or the free slot ending its probe run *)
  let rec slot m key i =
    let k = m.keys.(i) in
    if k = key || k = empty then i else slot m key ((i + 1) land m.mask)

  (* the value bound to [key]; -1 when unbound *)
  let find m key =
    let i = slot m key (home m key) in
    if m.keys.(i) = key then m.vals.(i) else -1

  (* bind [key] to [v] and return its previous value (-1 when unbound) *)
  let swap m key v =
    let i = slot m key (home m key) in
    let old =
      if m.keys.(i) = key then m.vals.(i)
      else begin
        m.keys.(i) <- key;
        -1
      end
    in
    m.vals.(i) <- v;
    old

  (* unbind [key] if it is bound to [v]; later entries of the probe run
     shift back so that no lookup ever crosses a hole *)
  let remove_if m key v =
    let i = slot m key (home m key) in
    if m.keys.(i) = key && m.vals.(i) = v then begin
      let hole = ref i in
      let j = ref ((i + 1) land m.mask) in
      while m.keys.(!j) <> empty do
        let h = home m m.keys.(!j) in
        (* the entry at [j] may fill the hole unless its home lies
           cyclically in (hole, j] *)
        let stays =
          if !hole <= !j then !hole < h && h <= !j else !hole < h || h <= !j
        in
        if not stays then begin
          m.keys.(!hole) <- m.keys.(!j);
          m.vals.(!hole) <- m.vals.(!j);
          hole := !j
        end;
        j := (!j + 1) land m.mask
      done;
      m.keys.(!hole) <- empty
    end
end

type load_slot = {
  mutable live : bool;
  mutable pos : int; (* allocation order, monotone per array *)
  mutable ld_seq : int;
  mutable ld_addr : int;
  mutable ld_older_sts : int; (* stores preceding this load in program order *)
  mutable ld_mem : int; (* mem id: selects the subscriber value FIFOs *)
  mutable issued : bool;
  mutable complete_at : int; (* valid when issued *)
  mutable delayed : bool; (* hierarchy: DRAM start was pushed by contention *)
}

(* Load and store requests travel on separate channels (the paper's LSQ has
   distinct load/store queues with 4/32 entries); program order is carried
   by per-array sequence tags assigned from the AGU trace order.

   The store queue is a ring indexed by absolute allocation number:
   [sq_head_abs, sq_tail_abs) are live, [sq_resolved] is the awaiting-head —
   the next allocation a store value resolves. Store values arrive in
   allocation order and stores pop only at the head, so both pointers are
   O(1) cursors and never scan. RAW disambiguation walks same-address
   chains: [by_addr] maps an address to its youngest live store and
   [sq_prev] links each store to the previous one at its address — a link
   below [sq_head_abs] has popped and ends the chain — so a load consults
   only same-address stores and an allocation appends in O(1). *)
type du_array = {
  arr : string;
  arr_id : int; (* dense creation-order id — the hierarchy's array key *)
  req_ld : Fifo.t; (* payload: the sending event *)
  req_st : Fifo.t; (* payload: the sending event *)
  stv : Fifo.t; (* payload: 1 = poisoned *)
  sq_mask : int; (* store ring size - 1 *)
  sq_seq : int array;
  sq_addr : int array;
  sq_state : int array;
  sq_prev : int array;
  mutable sq_head_abs : int;
  mutable sq_tail_abs : int; (* = total stores accepted so far *)
  mutable sq_resolved : int; (* awaiting-head: next store-value target *)
  by_addr : Addr_map.t;
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

let make_du (cfg : Config.t) arr_id arr =
  let sq_phys = pow2_above cfg.Config.store_queue_size in
  let lq_phys = max cfg.Config.load_queue_size 1 in
  let fifo capacity = Fifo.create ~capacity ~latency:cfg.Config.fifo_latency in
  {
    arr;
    arr_id;
    req_ld = fifo cfg.Config.request_fifo_capacity;
    req_st = fifo cfg.Config.request_fifo_capacity;
    stv = fifo cfg.Config.store_value_fifo_capacity;
    sq_mask = sq_phys - 1;
    sq_seq = Array.make sq_phys 0;
    sq_addr = Array.make sq_phys 0;
    sq_state = Array.make sq_phys st_awaiting;
    sq_prev = Array.make sq_phys (-1);
    sq_head_abs = 0;
    sq_tail_abs = 0;
    sq_resolved = 0;
    by_addr = Addr_map.create sq_phys;
    lq =
      Array.init lq_phys (fun _ ->
          {
            live = false;
            pos = 0;
            ld_seq = 0;
            ld_addr = 0;
            ld_older_sts = 0;
            ld_mem = 0;
            issued = false;
            complete_at = 0;
            delayed = false;
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

let sq_live a = a.sq_tail_abs - a.sq_head_abs
let sq_slot a abs = abs land a.sq_mask

(* Pop the (resolved) head store. It is the oldest store at its address,
   so its chain ends with it only when the map still names it as the
   youngest. *)
let sq_pop a =
  let s = sq_slot a a.sq_head_abs in
  Addr_map.remove_if a.by_addr a.sq_addr.(s) a.sq_head_abs;
  a.sq_head_abs <- a.sq_head_abs + 1

(* --- engine --------------------------------------------------------------- *)

(* A unit's replay state: the compiled unit plus its retire cycles. *)
type urep = {
  c : cunit;
  ui : int; (* dense unit index *)
  retire : int array; (* retire cycle per event; -1 = not retired *)
  mutable n_retired : int;
  mutable scan_from : int; (* first unretired index *)
}

let window = 24

type env = {
  vector_width : int;
  branch_latency : int;
  forward_latency : int;
  memory_load_latency : int;
  store_queue_size : int;
  load_queue_size : int;
  unit_ii : int;
  units : urep array;
  dus : du_array array; (* creation order *)
  ldvs : Fifo.t array; (* creation order *)
  subs_of_mem : int array array;
  mem : Mem.t option; (* None = scratchpad: the pre-hierarchy load path *)
  record_mem : bool;
  mutable mem_log : mem_event list; (* reversed execution order *)
}

(* Callers test [env.record_mem] first, so no event is built unless it is
   logged. *)
let logm env ev = env.mem_log <- ev :: env.mem_log

(* Trace words read in place, from Trace's documented layout: the unit
   scan decodes a tag and a schedule slot for every event it visits, and
   calls into Trace are not inlined across modules in every build
   profile. *)
let stride = Trace.stride

let ev_tag (tr : Trace.unit_trace) k =
  tr.Trace.data.(k * stride) land Trace.tag_mask

let ev_arr (tr : Trace.unit_trace) k =
  (tr.Trace.data.(k * stride) lsr Trace.arr_shift) land Trace.max_arr

let ev_mem (tr : Trace.unit_trace) k =
  tr.Trace.data.(k * stride) lsr Trace.mem_shift

let ev_payload (tr : Trace.unit_trace) k = tr.Trace.data.((k * stride) + 3)

(* [iteration × unit_ii + depth]: the earliest cycle event [k] may
   retire *)
let sched env (tr : Trace.unit_trace) k =
  (tr.Trace.data.((k * stride) + 1) * env.unit_ii)
  + tr.Trace.data.((k * stride) + 2)

let imin (a : int) b = if a <= b then a else b

(* Chain predecessors of [p] on its channel that retired at [t] or later,
   counting [p] itself. *)
let rec same_cycle retire prev_chan p t n =
  if p < 0 || Array.unsafe_get retire p < t then n
  else same_cycle retire prev_chan (Array.unsafe_get prev_chan p) t (n + 1)

(* In-order per channel: the previous event on this channel must have
   retired, and at most [vector_width] ops share a cycle on one channel
   (§10's vectorized requests; width 1 = the paper's scalar port). *)
let chan_ok env retire prev_chan k t =
  let p = Array.unsafe_get prev_chan k in
  p < 0
  ||
  let rp = Array.unsafe_get retire p in
  rp >= 0
  && (rp < t
     || (env.vector_width > 1
        && same_cycle retire prev_chan p t 0 < env.vector_width))

(* Push [payload] into DU [a]'s input FIFO [f] if it has space; true on
   success. *)
let push_du (a : du_array) f ~t payload =
  Fifo.has_space f
  && begin
       Fifo.push f ~now:t payload;
       a.w_bucket.Wheel.dirty <- true;
       true
     end

(* Attempt to retire events of [u] at cycle [t]. Returns true on progress. *)
let step_unit env (u : urep) ~t : bool =
  let c = u.c in
  let tr = c.tr in
  let retire = u.retire in
  let n = Array.length retire in
  let progress = ref false in
  let idx = ref u.scan_from in
  let stop = imin n (u.scan_from + window) in
  let blocked_by_gate = ref false in
  (* indices are bounded by [stop <= n] and prev_chan/dep entries are -1 or
     earlier in-range indices, so the scan reads them unchecked *)
  while !idx < stop && not !blocked_by_gate do
    let k = !idx in
    if Array.unsafe_get retire k < 0 then begin
      let tag = ev_tag tr k in
      let issuable =
        sched env tr k <= t && chan_ok env retire c.prev_chan k t
      in
      let retired =
        if tag = Trace.t_gate then begin
          (* a gate that has not retired blocks everything after it *)
          let dep = ev_payload tr k in
          let resolved =
            issuable
            && (dep < 0
               ||
               let rd = Array.unsafe_get retire dep in
               rd >= 0 && rd + env.branch_latency <= t)
          in
          if not resolved then blocked_by_gate := true;
          resolved
        end
        else if not issuable then false
        else if tag = Trace.t_consume then begin
          let f = env.ldvs.(c.ldv_of_mem.(ev_mem tr k)) in
          Fifo.ready f ~now:t
          && begin
               ignore (Fifo.pop f : int);
               true
             end
        end
        else begin
          let a = env.dus.(c.du_of_arr.(ev_arr tr k)) in
          if tag = Trace.t_send_ld then
            push_du a a.req_ld ~t ((k lsl ev_bits) lor u.ui)
          else if tag = Trace.t_send_st then
            push_du a a.req_st ~t ((k lsl ev_bits) lor u.ui)
          else push_du a a.stv ~t (if tag = Trace.t_kill then 1 else 0)
        end
      in
      if retired then begin
        Array.unsafe_set retire k t;
        u.n_retired <- u.n_retired + 1;
        progress := true
      end
    end;
    incr idx
  done;
  while u.scan_from < n && Array.unsafe_get retire u.scan_from >= 0 do
    u.scan_from <- u.scan_from + 1
  done;
  !progress

(* RAW check for one load: every older store must have been *allocated*
   (address known) before the load can be disambiguated at all; then only
   same-address stores hold it. 0 = blocked, 1 = memory, 2 = forward. An
   older same-address store still awaiting its value blocks the load;
   otherwise any ready one forwards (poisoned ones never do). The chain is
   walked youngest first, skipping stores younger than the load. *)
let can_issue (a : du_array) (l : load_slot) =
  if l.issued || a.sq_tail_abs < l.ld_older_sts then 0
  else begin
    let code = ref 1 in
    let abs = ref (Addr_map.find a.by_addr l.ld_addr) in
    while !abs >= a.sq_head_abs && !code <> 0 do
      let s = sq_slot a !abs in
      if a.sq_seq.(s) < l.ld_seq then begin
        let st = a.sq_state.(s) in
        if st = st_awaiting then code := 0
        else if st = st_ready then code := 2
      end;
      abs := a.sq_prev.(s)
    done;
    !code
  end

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
  while !k < w && Fifo.ready a.stv ~now:t && a.sq_resolved < a.sq_tail_abs do
    let poisoned = Fifo.pop a.stv = 1 in
    let s = sq_slot a a.sq_resolved in
    a.sq_state.(s) <- (if poisoned then st_poisoned else st_ready);
    if env.record_mem then
      logm env (Ev_st_resolve { arr = a.arr; seq = a.sq_seq.(s); poisoned; t });
    a.sq_resolved <- a.sq_resolved + 1;
    progress := true;
    incr k
  done;
  (* 2. drop poisoned heads (up to the vector width — a store mask kills a
     whole vector, §10) and commit at most one ready head through the
     scalar store port *)
  let k = ref 0 in
  while
    !k < w && sq_live a > 0
    && a.sq_state.(sq_slot a a.sq_head_abs) = st_poisoned
  do
    if env.record_mem then
      logm env
        (Ev_st_kill
           { arr = a.arr; seq = a.sq_seq.(sq_slot a a.sq_head_abs); t });
    sq_pop a;
    a.stats.kills <- a.stats.kills + 1;
    progress := true;
    incr k
  done;
  if sq_live a > 0 && a.sq_state.(sq_slot a a.sq_head_abs) = st_ready then begin
    (* store port: one commit per cycle *)
    let s = sq_slot a a.sq_head_abs in
    let st_addr = a.sq_addr.(s) in
    if env.record_mem then
      logm env
        (Ev_st_commit { arr = a.arr; seq = a.sq_seq.(s); addr = st_addr; t });
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
    let best = ref (-1) in
    let best_code = ref 0 in
    let admissible = ref 0 in
    for i = 0 to Array.length a.lq - 1 do
      let l = a.lq.(i) in
      if l.live && not l.issued then begin
        let c = can_issue a l in
        if c <> 0 then begin
          incr admissible;
          if !best < 0 || l.pos <= a.lq.(!best).pos then begin
            best := i;
            best_code := c
          end
        end
      end
    done;
    if !best < 0 then a.stats.raw_wait_cycles <- a.stats.raw_wait_cycles + 1
    else begin
      let l = a.lq.(!best) in
      let code = !best_code in
      (* all subscriber FIFOs must have space (reserved at issue) *)
      let subs = env.subs_of_mem.(l.ld_mem) in
      let space = ref true in
      for i = 0 to Array.length subs - 1 do
        if not (Fifo.has_space env.ldvs.(subs.(i))) then space := false
      done;
      if not !space then a.f_subs_full <- true
      else begin
        (* forwarded loads bypass the hierarchy (LSQ-internal); memory
           loads either take the fixed scratchpad latency or consult the
           cache/DRAM model, which may turn them away (MSHR exhaustion) *)
        let delayed = ref false in
        let complete_at =
          if code = 2 then begin
            a.stats.forwards <- a.stats.forwards + 1;
            t + env.forward_latency
          end
          else
            match env.mem with
            | None -> t + env.memory_load_latency
            | Some mem ->
              let c = Mem.load mem ~now:t ~arr:a.arr_id ~addr:l.ld_addr in
              delayed := Mem.last_delayed mem;
              c
        in
        if complete_at = Mem.mshr_full then a.f_mshr_full <- true
        else begin
          l.issued <- true;
          l.complete_at <- complete_at;
          l.delayed <- !delayed;
          a.lq_unissued <- a.lq_unissued - 1;
          a.stats.loads <- a.stats.loads + 1;
          if env.record_mem then
            logm env
              (Ev_ld_issue
                 { arr = a.arr; seq = l.ld_seq; addr = l.ld_addr;
                   older_sts = l.ld_older_sts; forwarded = code = 2; t;
                   complete_at });
          for i = 0 to Array.length subs - 1 do
            Fifo.push env.ldvs.(subs.(i)) ~now:complete_at 0
          done;
          progress := true;
          if !admissible >= 2 then a.f_extra_adm <- true
        end
      end
    end
  end;
  (* 4. retire completed loads from the LQ *)
  if a.lq_live > a.lq_unissued then
    for i = 0 to Array.length a.lq - 1 do
      let l = a.lq.(i) in
      if l.live && l.issued && l.complete_at <= t then begin
        l.live <- false;
        a.lq_live <- a.lq_live - 1;
        progress := true
      end
    done;
  (* 5. accept up to [vector_width] store and load requests into the LSQ;
     a request names its sending event, whose trace words and send tag
     carry the address, program-order seq and older-store count *)
  let k = ref 0 in
  while !k < w && Fifo.ready a.req_st ~now:t do
    if sq_live a < env.store_queue_size then begin
      let ev = Fifo.pop a.req_st in
      let c = env.units.(ev land ev_mask).c and e = ev lsr ev_bits in
      let seq = c.send_tag.(e) land seq_mask in
      let addr = ev_payload c.tr e in
      let s = sq_slot a a.sq_tail_abs in
      a.sq_seq.(s) <- seq;
      a.sq_addr.(s) <- addr;
      a.sq_state.(s) <- st_awaiting;
      if env.record_mem then
        logm env (Ev_st_alloc { arr = a.arr; seq; addr; t });
      a.sq_prev.(s) <- Addr_map.swap a.by_addr addr a.sq_tail_abs;
      a.sq_tail_abs <- a.sq_tail_abs + 1;
      progress := true;
      incr k
    end
    else begin
      a.stats.alloc_stall_cycles <- a.stats.alloc_stall_cycles + 1;
      a.f_alloc_block <- true;
      k := w
    end
  done;
  let k = ref 0 in
  while !k < w && Fifo.ready a.req_ld ~now:t do
    if a.lq_live < env.load_queue_size then begin
      let ev = Fifo.pop a.req_ld in
      let c = env.units.(ev land ev_mask).c and e = ev lsr ev_bits in
      let slot = ref 0 in
      while a.lq.(!slot).live do
        incr slot
      done;
      let l = a.lq.(!slot) in
      let tag = c.send_tag.(e) in
      l.live <- true;
      l.pos <- a.lq_next_pos;
      a.lq_next_pos <- a.lq_next_pos + 1;
      l.ld_seq <- tag land seq_mask;
      l.ld_addr <- ev_payload c.tr e;
      l.ld_older_sts <- tag lsr seq_bits;
      l.ld_mem <- ev_mem c.tr e;
      l.issued <- false;
      l.complete_at <- 0;
      a.lq_live <- a.lq_live + 1;
      a.lq_unissued <- a.lq_unissued + 1;
      progress := true;
      incr k
    end
    else begin
      a.stats.alloc_stall_cycles <- a.stats.alloc_stall_cycles + 1;
      a.f_alloc_block <- true;
      k := w
    end
  done;
  !progress

let du_idle (a : du_array) =
  Fifo.is_empty a.req_ld && Fifo.is_empty a.req_st && Fifo.is_empty a.stv
  && sq_live a = 0 && a.lq_live = 0

(* Every unit retired all its events and every channel drained. *)
let finished env =
  let ok = ref true in
  for i = 0 to Array.length env.units - 1 do
    let u = env.units.(i) in
    if u.n_retired <> Array.length u.retire then ok := false
  done;
  for i = 0 to Array.length env.dus - 1 do
    if not (du_idle env.dus.(i)) then ok := false
  done;
  for i = 0 to Array.length env.ldvs - 1 do
    if not (Fifo.is_empty env.ldvs.(i)) then ok := false
  done;
  !ok

(* --- cycle attribution ------------------------------------------------------ *)

(* Classify what one unit spent cycle [t] (and, when the engine then jumps,
   every cycle of the frozen span) on. Runs after [step_unit]: when the
   unit made no progress and is not done, the head event [scan_from] is the
   blocker — its in-order channel predecessor retired on an earlier cycle
   (nothing retired at [t]), so the block is its issue slot, its gate, or
   its channel resource. *)
let classify_unit env (u : urep) ~progress ~t : Stats.cause =
  if progress then Stats.Busy
  else if u.n_retired = Array.length u.retire then Stats.Drain
  else begin
    let k = u.scan_from in
    let tag = ev_tag u.c.tr k in
    if sched env u.c.tr k > t then Stats.Sched_wait
    else if tag = Trace.t_gate then Stats.Gate_wait
    else if tag = Trace.t_consume then Stats.Fifo_empty
    else Stats.Fifo_full
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
    let delayed = ref false in
    for i = 0 to Array.length a.lq - 1 do
      let l = a.lq.(i) in
      if l.live && l.issued && l.delayed then delayed := true
    done;
    if !delayed then Stats.Dram_bank else Stats.Mem_wait
  else Stats.Fifo_empty (* only in-flight tokens on the input channels *)

(* --- next-wake candidates --------------------------------------------------- *)

let cand b ~t x = if x > t then Wheel.push b x

(* Push into [b] every cycle at which [u] might retire something:
   scheduled issue slots, in-order successors of retired events, gate
   resolutions. The scan stops at the first unresolved gate, as
   [step_unit]'s does: nothing past it can retire before the gate does,
   and the gate's own resolution candidate is pushed before stopping. *)
let unit_wakes env (u : urep) ~t b =
  let tr = u.c.tr in
  let n = Array.length u.retire in
  let stop = imin n (u.scan_from + window) in
  let k = ref u.scan_from in
  let blocked = ref false in
  while !k < stop && not !blocked do
    if u.retire.(!k) < 0 then begin
      cand b ~t (sched env tr !k);
      let p = u.c.prev_chan.(!k) in
      if p >= 0 && u.retire.(p) >= 0 then cand b ~t (u.retire.(p) + 1);
      if ev_tag tr !k = Trace.t_gate then begin
        let dep = ev_payload tr !k in
        if dep >= 0 && u.retire.(dep) >= 0 then
          cand b ~t (u.retire.(dep) + env.branch_latency);
        blocked := true
      end
    end;
    incr k
  done

(* FIFO arrivals and load completions of one DU array. *)
let du_wakes (a : du_array) ~t b =
  if a.req_ld.Fifo.size > 0 then cand b ~t (Fifo.head_avail a.req_ld);
  if a.req_st.Fifo.size > 0 then cand b ~t (Fifo.head_avail a.req_st);
  if a.stv.Fifo.size > 0 then cand b ~t (Fifo.head_avail a.stv);
  for i = 0 to Array.length a.lq - 1 do
    let l = a.lq.(i) in
    if l.live && l.issued then cand b ~t l.complete_at
  done

(* Earliest load-value FIFO arrival or MSHR fill after [t]; [max_int] when
   none. Both are O(1) per stall already (head cursor; cached fill
   minimum): re-reading them beats tracking their cross-component
   dirtiness. An MSHR freeing (its fill completing) can admit a previously
   turned-away load. The fill time is also the allocating load's
   complete_at, so this is usually redundant with [du_wakes] — kept for
   the frozen-span invariant's sake. *)
let shared_wake env ~t =
  let best = ref max_int in
  for i = 0 to Array.length env.ldvs - 1 do
    let f = env.ldvs.(i) in
    if f.Fifo.size > 0 then begin
      let avail = Fifo.head_avail f in
      if avail > t && avail < !best then best := avail
    end
  done;
  (match env.mem with
  | Some mem ->
    let w = Mem.next_wake mem ~now:t in
    if w < !best then best := w
  | None -> ());
  !best

(* Reference path: rebuild the full candidate set per stall into one
   scratch bucket and take its minimum. *)
let calendar_wake env scratch ~t =
  Wheel.reset scratch;
  for i = 0 to Array.length env.units - 1 do
    unit_wakes env env.units.(i) ~t scratch
  done;
  for i = 0 to Array.length env.dus - 1 do
    du_wakes env.dus.(i) ~t scratch
  done;
  imin (Wheel.min scratch) (shared_wake env ~t)

(* Incremental path: only components whose state changed since their last
   fill recompute; clean buckets advance a cursor. *)
let wheel_wake env ubuckets ~t =
  let best = ref max_int in
  for i = 0 to Array.length env.units - 1 do
    let b = ubuckets.(i) in
    if b.Wheel.dirty then begin
      Wheel.reset b;
      unit_wakes env env.units.(i) ~t b;
      Wheel.seal b
    end;
    let h = Wheel.head b ~t in
    if h < !best then best := h
  done;
  for i = 0 to Array.length env.dus - 1 do
    let a = env.dus.(i) in
    let b = a.w_bucket in
    if b.Wheel.dirty then begin
      Wheel.reset b;
      du_wakes a ~t b;
      Wheel.seal b
    end;
    let h = Wheel.head b ~t in
    if h < !best then best := h
  done;
  imin !best (shared_wake env ~t)

(* --- top level ------------------------------------------------------------ *)

let run ?(cfg = Config.default) ?(validate = true) ?(max_cycles = 50_000_000)
    ?(record_depths = false) ?(record_mem = false) ?(scheduler = Event_wheel)
    (rp : replay) : result =
  if validate then Config.validate cfg;
  let retire =
    match Atomic.exchange rp.spare None with
    | Some r ->
      Array.iter (fun a -> Array.fill a 0 (Array.length a) (-1)) r;
      r
    | None -> Array.map (fun c -> Array.make (Trace.length c.tr) (-1)) rp.units
  in
  (* a run that hands out no timeline returns its retire arrays, also
     when it raises: deadlock probes are a large share of a sweep *)
  let keep_retire = record_depths in
  Fun.protect
    ~finally:(fun () ->
      if not keep_retire then Atomic.set rp.spare (Some retire))
  @@ fun () ->
  let units =
    Array.mapi
      (fun ui c ->
        { c; ui; retire = retire.(ui); n_retired = 0; scan_from = 0 })
      rp.units
  in
  let env =
    {
      vector_width = cfg.Config.vector_width;
      branch_latency = cfg.Config.branch_latency;
      forward_latency = cfg.Config.forward_latency;
      memory_load_latency = cfg.Config.memory_load_latency;
      store_queue_size = cfg.Config.store_queue_size;
      load_queue_size = cfg.Config.load_queue_size;
      unit_ii = cfg.Config.unit_ii;
      units;
      dus = Array.mapi (make_du cfg) rp.du_names;
      ldvs =
        Array.map
          (fun _ ->
            Fifo.create ~capacity:cfg.Config.value_fifo_capacity
              ~latency:cfg.Config.fifo_latency)
          rp.ldv_names;
      subs_of_mem = rp.subs_of_mem;
      mem =
        (match cfg.Config.hierarchy with
        | Config.Scratchpad -> None
        | Config.Hierarchy g -> Some (Mem.create g));
      record_mem;
      mem_log = [];
    }
  in
  let n_units = Array.length units in
  let dus = env.dus in
  let n_dus = Array.length dus in
  let t = ref 0 in
  let finish = Array.make n_units 0 in
  let idle_rounds = ref 0 in
  (* one wake bucket per replay unit (DU buckets live on the arrays) *)
  let ubuckets = Array.init n_units (fun _ -> Wheel.create (3 * window)) in
  let scratch = Wheel.create (3 * window) in
  let ustats = Array.init n_units (fun _ -> Stats.create ()) in
  let pu = Array.make n_units false in
  let retired_summary () =
    String.concat ", "
      (Array.to_list
         (Array.map
            (fun u ->
              Fmt.str "%s %d/%d"
                (Trace.unit_name u.c.tr.Trace.unit)
                u.n_retired (Array.length u.retire))
            units))
  in
  (* depth sampling (only when requested): channel occupancies are
     piecewise constant between visited cycles — size changes only on a
     push or pop, which is machine progress — so sampling at visited
     cycles, emitting on change, is exact. Channels are numbered five per
     DU array in creation order, then the load-value FIFOs. *)
  let samples = ref [] in
  let chan_names =
    if not record_depths then [||]
    else
      Array.append
        (Array.concat
           (Array.to_list
              (Array.map
                 (fun arr ->
                   Array.map (( ^ ) arr)
                     [| ".req_ld"; ".req_st"; ".stv"; ".sq"; ".lq" |])
                 rp.du_names)))
        rp.ldv_names
  in
  let sample_last = Array.make (Array.length chan_names) (-1) in
  let sample ~t ch depth =
    if sample_last.(ch) <> depth then begin
      sample_last.(ch) <- depth;
      samples := (t, chan_names.(ch), depth) :: !samples
    end
  in
  let sample_depths ~t =
    Array.iteri
      (fun i a ->
        sample ~t (5 * i) a.req_ld.Fifo.size;
        sample ~t ((5 * i) + 1) a.req_st.Fifo.size;
        sample ~t ((5 * i) + 2) a.stv.Fifo.size;
        sample ~t ((5 * i) + 3) (sq_live a);
        sample ~t ((5 * i) + 4) a.lq_live)
      dus;
    Array.iteri (fun i f -> sample ~t ((5 * n_dus) + i) f.Fifo.size) env.ldvs
  in
  while not (finished env) do
    if !t > max_cycles then
      raise
        (Timing_error
           (Fmt.str "exceeded %d cycles (%s retired)" max_cycles
              (retired_summary ())));
    let progress = ref false in
    for i = 0 to n_units - 1 do
      let p = step_unit env units.(i) ~t:!t in
      pu.(i) <- p;
      if p then begin
        progress := true;
        ubuckets.(i).Wheel.dirty <- true
      end
    done;
    for i = 0 to n_dus - 1 do
      let a = dus.(i) in
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
        progress := true;
        a.w_bucket.Wheel.dirty <- true
      end
    done;
    for i = 0 to n_units - 1 do
      let u = units.(i) in
      if u.n_retired = Array.length u.retire && finish.(i) = 0 then
        finish.(i) <- !t
    done;
    let next_t =
      if !progress then begin
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
          | Seed_calendar -> calendar_wake env scratch ~t:!t
          | Event_wheel -> wheel_wake env ubuckets ~t:!t
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
        (classify_unit env units.(i) ~progress:pu.(i) ~t:!t)
        span
    done;
    for i = 0 to n_dus - 1 do
      let a = dus.(i) in
      Stats.add a.cstats (classify_du a ~progress:a.f_progress) span
    done;
    if record_depths then sample_depths ~t:!t;
    t := next_t
  done;
  let unit_name u = Trace.unit_name u.c.tr.Trace.unit in
  {
    cycles = !t;
    agu_finish = finish.(0);
    cu_finish = finish.(1);
    au_finish = Array.sub finish 2 (n_units - 2);
    lsq =
      List.sort compare
        (Array.to_list (Array.map (fun a -> (a.arr, a.stats)) dus));
    agu_retire = (if keep_retire then retire.(0) else [||]);
    cu_retire = (if keep_retire then retire.(1) else [||]);
    au_retire =
      (if keep_retire then Array.sub retire 2 (n_units - 2)
       else Array.make (n_units - 2) [||]);
    stats =
      List.sort
        (fun (k1, _) (k2, _) -> String.compare k1 k2)
        (Array.to_list (Array.mapi (fun i u -> (unit_name u, ustats.(i))) units)
        @ Array.to_list (Array.map (fun a -> ("DU:" ^ a.arr, a.cstats)) dus));
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
