(* Static channel sizing and deadlock-freedom.

   The abstract causality replay mirrors exactly the blocking structure of
   Timing.run while erasing time: a unit retires its next events within
   the same out-of-order scan window, in order per channel; a send needs
   channel slack, a consume needs a token; the DU applies store values in
   allocation order, pops resolved heads, admits requests against LSQ
   occupancy and issues the oldest load only when every older same-array
   store is resolved (worst-case address-oblivious RAW — per-array [older]
   counts are monotone in send order, so the oldest unissued load is
   admissible iff any is) and every subscriber value channel has space.
   Latency never blocks forever, so erasing it preserves reachability of
   completion: if the abstract machine finishes, every wait cycle in the
   channel/dependence graph had positive slack and the timed engine
   cannot deadlock on that event order; if it sticks, the frozen state is
   the zero-slack cycle.

   Event orders come from the checker's segment universe. Every dynamic
   trace is a concatenation of segments, and backpressure couples at most
   a bounded window of adjacent iterations, so replaying each segment
   composed with itself (and the whole universe concatenated) covers the
   steady-state shapes; the cross-validation against the simulator in
   test/test_sizing.ml and the bench sweep backs this empirically. *)

module Pipeline = Dae_core.Pipeline
module Config = Dae_sim.Config
module Timing = Dae_sim.Timing

type sized = {
  sz_chan : Channel.chan;
  sz_configured : int;
  sz_min : int;
  sz_matched : int;
  sz_score : int;
}

type verdict = Deadlock_free | Deadlock of string list

type t = {
  channels : sized list;
  verdict : verdict;
  critical : Channel.kind option;
  min_cfg : Config.t;
  bound_per_event : int;
  bound_fill : int;
  graph : Channel.t;
}

(* --- abstract machine ----------------------------------------------------- *)

type afifo = { cap : int; mutable used : int }

let space f = f.used < f.cap

type aload = { al_older : int; al_subs : (string * afifo) list }

type adu = {
  ad_arr : string;
  ad_req_ld : afifo;
  ad_req_ld_q : aload Queue.t; (* payloads of in-flight req_ld tokens *)
  ad_req_st : afifo;
  ad_stv : afifo;
  mutable ad_alloc : int; (* stores accepted into the SQ, cumulative *)
  mutable ad_resolved : int; (* store values applied, <= ad_alloc *)
  mutable ad_popped : int; (* resolved heads retired, <= ad_resolved *)
  ad_lq : aload Queue.t;
  ad_sq_size : int;
  ad_lq_size : int;
}

type aev =
  | A_send_ld of string * adu * aload
  | A_send_st of string * adu
  | A_stv of string * adu (* produce and kill are the same token *)
  | A_consume of string * afifo

type aunit = {
  au_name : string;
  au_evs : aev array;
  au_retired : bool array;
  mutable au_scan : int;
  mutable au_done : int;
}

type machine = { m_units : aunit list; m_dus : adu list }

(* Dense unit indexing [agu; cu; au1; ...], as everywhere else. *)
let tag_of = function 0 -> `Agu | 1 -> `Cu | k -> `Au (k - 1)

let name_of = function
  | 0 -> "AGU"
  | 1 -> "CU"
  | k -> "AU" ^ string_of_int (k - 1)

(* Build one machine for one composed per-unit event-stream array under a
   per-channel capacity assignment. *)
let build ~(caps : Channel.kind -> int) ~lq_size ~sq_size (g : Channel.t)
    (units : Replay.event list array) : machine =
  let dus : (string, adu) Hashtbl.t = Hashtbl.create 8 in
  let du_order = ref [] in
  let du arr =
    match Hashtbl.find_opt dus arr with
    | Some d -> d
    | None ->
      let d =
        {
          ad_arr = arr;
          ad_req_ld = { cap = caps (Channel.Req_ld arr); used = 0 };
          ad_req_ld_q = Queue.create ();
          ad_req_st = { cap = caps (Channel.Req_st arr); used = 0 };
          ad_stv = { cap = caps (Channel.Stv arr); used = 0 };
          ad_alloc = 0;
          ad_resolved = 0;
          ad_popped = 0;
          ad_lq = Queue.create ();
          ad_sq_size = sq_size;
          ad_lq_size = lq_size;
        }
      in
      Hashtbl.replace dus arr d;
      du_order := d :: !du_order;
      d
  in
  let ldvs : (int * [ `Agu | `Cu | `Au of int ], afifo) Hashtbl.t =
    Hashtbl.create 16
  in
  let ldv key =
    match Hashtbl.find_opt ldvs key with
    | Some f -> f
    | None ->
      let mem, u = key in
      let f = { cap = caps (Channel.Ldv (mem, u)); used = 0 } in
      Hashtbl.replace ldvs key f;
      f
  in
  let subs_of mem =
    match List.assoc_opt mem g.Channel.load_subscribers with
    | Some us ->
      List.map
        (fun u -> (Channel.name (Channel.Ldv (mem, u)), ldv (mem, u)))
        us
    | None -> []
  in
  let unit_of tag name evs =
    let st_counter : (string, int) Hashtbl.t = Hashtbl.create 4 in
    let acts =
      List.map
        (fun (e : Replay.event) ->
          match e.Replay.ev_kind with
          | Replay.Send_ld ->
            let d = du e.Replay.ev_arr in
            let older =
              match Hashtbl.find_opt st_counter e.Replay.ev_arr with
              | Some n -> n
              | None -> 0
            in
            A_send_ld
              ( Channel.name (Channel.Req_ld e.Replay.ev_arr),
                d,
                { al_older = older; al_subs = subs_of e.Replay.ev_mem } )
          | Replay.Send_st ->
            let d = du e.Replay.ev_arr in
            let n =
              match Hashtbl.find_opt st_counter e.Replay.ev_arr with
              | Some n -> n
              | None -> 0
            in
            Hashtbl.replace st_counter e.Replay.ev_arr (n + 1);
            A_send_st (Channel.name (Channel.Req_st e.Replay.ev_arr), d)
          | Replay.Produce | Replay.Kill ->
            A_stv
              ( Channel.name (Channel.Stv e.Replay.ev_arr),
                du e.Replay.ev_arr )
          | Replay.Consume ->
            let key = (e.Replay.ev_mem, tag) in
            A_consume
              ( Channel.name (Channel.Ldv (e.Replay.ev_mem, tag)),
                ldv key ))
        evs
    in
    let arr = Array.of_list acts in
    {
      au_name = name;
      au_evs = arr;
      au_retired = Array.make (Array.length arr) false;
      au_scan = 0;
      au_done = 0;
    }
  in
  let m_units =
    (* Array.iteri visits indices in order, so the DU/ldv interning order
       (and hence m_dus order) is the dense unit order, AGU first. *)
    let acc = ref [] in
    Array.iteri
      (fun i evs -> acc := unit_of (tag_of i) (name_of i) evs :: !acc)
      units;
    List.rev !acc
  in
  { m_units; m_dus = List.rev !du_order }

let step_unit (u : aunit) : bool =
  let n = Array.length u.au_evs in
  let progress = ref false in
  let stop = min n (u.au_scan + Timing.scan_window) in
  for k = u.au_scan to stop - 1 do
    if not u.au_retired.(k) then begin
      let retire () =
        u.au_retired.(k) <- true;
        u.au_done <- u.au_done + 1;
        progress := true
      in
      match u.au_evs.(k) with
      | A_send_ld (_, d, l) ->
        if space d.ad_req_ld then begin
          d.ad_req_ld.used <- d.ad_req_ld.used + 1;
          Queue.push l d.ad_req_ld_q;
          retire ()
        end
      | A_send_st (_, d) ->
        if space d.ad_req_st then begin
          d.ad_req_st.used <- d.ad_req_st.used + 1;
          retire ()
        end
      | A_stv (_, d) ->
        if space d.ad_stv then begin
          d.ad_stv.used <- d.ad_stv.used + 1;
          retire ()
        end
      | A_consume (_, f) ->
        if f.used > 0 then begin
          f.used <- f.used - 1;
          retire ()
        end
    end
  done;
  while u.au_scan < n && u.au_retired.(u.au_scan) do
    u.au_scan <- u.au_scan + 1
  done;
  !progress

let sq_live d = d.ad_alloc - d.ad_popped

let step_du (d : adu) : bool =
  let progress = ref false in
  (* store values resolve in allocation order, only against allocations *)
  while d.ad_stv.used > 0 && d.ad_resolved < d.ad_alloc do
    d.ad_stv.used <- d.ad_stv.used - 1;
    d.ad_resolved <- d.ad_resolved + 1;
    progress := true
  done;
  (* resolved heads drain (commit or kill — latency-free here) *)
  while d.ad_popped < d.ad_resolved do
    d.ad_popped <- d.ad_popped + 1;
    progress := true
  done;
  (* admit requests against LSQ occupancy *)
  while d.ad_req_st.used > 0 && sq_live d < d.ad_sq_size do
    d.ad_req_st.used <- d.ad_req_st.used - 1;
    d.ad_alloc <- d.ad_alloc + 1;
    progress := true
  done;
  while d.ad_req_ld.used > 0 && Queue.length d.ad_lq < d.ad_lq_size do
    d.ad_req_ld.used <- d.ad_req_ld.used - 1;
    Queue.push (Queue.pop d.ad_req_ld_q) d.ad_lq;
    progress := true
  done;
  (* issue: the head load, once worst-case RAW-clear, into every
     subscriber channel at once *)
  let continue_ = ref true in
  while !continue_ do
    match Queue.peek_opt d.ad_lq with
    | Some l
      when d.ad_resolved >= l.al_older
           && List.for_all (fun (_, f) -> space f) l.al_subs ->
      ignore (Queue.pop d.ad_lq);
      List.iter (fun (_, f) -> f.used <- f.used + 1) l.al_subs;
      progress := true
    | _ -> continue_ := false
  done;
  !progress

let du_drained d =
  sq_live d = 0 && d.ad_resolved = d.ad_alloc && d.ad_req_ld.used = 0
  && d.ad_req_st.used = 0 && d.ad_stv.used = 0
  && Queue.is_empty d.ad_lq

let describe_stuck (m : machine) : string =
  let unit_part (u : aunit) =
    if u.au_scan >= Array.length u.au_evs then None
    else
      let reason =
        match u.au_evs.(u.au_scan) with
        | A_send_ld (c, d, _) ->
          Fmt.str "send on %s blocked (%d/%d slots, zero slack)" c
            d.ad_req_ld.used d.ad_req_ld.cap
        | A_send_st (c, d) ->
          Fmt.str "send on %s blocked (%d/%d slots, zero slack)" c
            d.ad_req_st.used d.ad_req_st.cap
        | A_stv (c, d) ->
          Fmt.str "produce on %s blocked (%d/%d slots, zero slack)" c
            d.ad_stv.used d.ad_stv.cap
        | A_consume (c, _) -> Fmt.str "consume on %s blocked (channel empty)" c
      in
      Some
        (Fmt.str "%s at event %d/%d: %s" u.au_name u.au_scan
           (Array.length u.au_evs) reason)
  in
  let du_part d =
    if du_drained d then None
    else
      let bits = ref [] in
      if sq_live d >= d.ad_sq_size then
        bits :=
          Fmt.str "store queue full (%d/%d, head awaiting value)" (sq_live d)
            d.ad_sq_size
          :: !bits;
      (match Queue.peek_opt d.ad_lq with
      | Some l when d.ad_resolved < l.al_older ->
        bits :=
          Fmt.str "load head awaits %d unresolved older store(s)"
            (l.al_older - d.ad_resolved)
          :: !bits
      | Some l when not (List.for_all (fun (_, f) -> space f) l.al_subs) ->
        let full =
          List.filter_map
            (fun (n, f) -> if space f then None else Some n)
            l.al_subs
        in
        bits :=
          Fmt.str "load head held by full subscriber channel(s) %a"
            Fmt.(list ~sep:comma string)
            full
          :: !bits
      | _ -> ());
      if d.ad_stv.used > 0 && d.ad_resolved >= d.ad_alloc then
        bits :=
          Fmt.str "%d store value(s) await an allocation" d.ad_stv.used
          :: !bits;
      match !bits with
      | [] -> Some (Fmt.str "DU:%s undrained" d.ad_arr)
      | bs -> Some (Fmt.str "DU:%s %a" d.ad_arr Fmt.(list ~sep:semi string) bs)
  in
  let parts =
    List.filter_map unit_part m.m_units
    @ List.filter_map du_part m.m_dus
  in
  Fmt.str "zero-slack wait cycle: %a"
    Fmt.(list ~sep:(any "; ") string)
    (if parts = [] then [ "(no blocked actor recorded)" ] else parts)

(* Run one composition to the fixpoint. *)
let run_comp ~caps ~lq_size ~sq_size (g : Channel.t)
    (units : Replay.event list array) : (unit, string) result =
  let m = build ~caps ~lq_size ~sq_size g units in
  let rec fix () =
    let p =
      List.fold_left (fun acc u -> step_unit u || acc) false m.m_units
    in
    let p =
      List.fold_left (fun acc d -> step_du d || acc) p m.m_dus
    in
    if p then fix ()
  in
  fix ();
  let complete =
    List.for_all (fun u -> u.au_done = Array.length u.au_evs) m.m_units
    && List.for_all du_drained m.m_dus
  in
  if complete then Ok () else Error (describe_stuck m)

(* Steady-state compositions: each segment against itself (backpressure
   couples adjacent iterations) and the whole universe concatenated. *)
let compositions (g : Channel.t) =
  let rep n (streams : Replay.event list array) =
    Array.map
      (fun evs ->
        let rec go i acc =
          if i = 0 then List.concat (List.rev acc) else go (i - 1) (evs :: acc)
        in
        go n [])
      streams
  in
  let per_seg = List.map (rep 3) g.Channel.seg_raw in
  let all =
    match g.Channel.seg_raw with
    | [] -> [||]
    | first :: _ ->
      rep 2
        (Array.init (Array.length first) (fun i ->
             List.concat_map
               (fun (streams : Replay.event list array) -> streams.(i))
               g.Channel.seg_raw))
  in
  per_seg @ [ all ]

(* --- sizing --------------------------------------------------------------- *)

let big = 1024

let service (cfg : Config.t) = function
  | Channel.Req_ld _ ->
    cfg.Config.fifo_latency + cfg.Config.memory_load_latency
  | Channel.Req_st _ ->
    (* a store slot lives from allocation until its value (or poison)
       makes the full CU round trip back *)
    (2 * cfg.Config.fifo_latency)
    + cfg.Config.memory_store_latency + cfg.Config.alu_latency
  | Channel.Stv _ -> cfg.Config.fifo_latency + 1
  | Channel.Ldv _ -> cfg.Config.fifo_latency + 1

(* Max per-segment demand on any scalar resource: a channel moves one
   token per cycle, each array issues one load and commits one store per
   cycle — the steady-state initiation interval is at least this. *)
let demand (g : Channel.t) =
  let per_chan =
    List.fold_left (fun acc c -> max acc c.Channel.rate.Channel.hi) 0
      g.Channel.chans
  in
  let arr_sum pred =
    let tbl = Hashtbl.create 4 in
    List.iter
      (fun (c : Channel.chan) ->
        if pred c.Channel.kind then begin
          let cur =
            match Hashtbl.find_opt tbl c.Channel.arr with
            | Some n -> n
            | None -> 0
          in
          Hashtbl.replace tbl c.Channel.arr
            (cur + c.Channel.rate.Channel.hi)
        end)
      g.Channel.chans;
    Hashtbl.fold (fun _ n acc -> max acc n) tbl 0
  in
  let ld_port = arr_sum (function Channel.Req_ld _ -> true | _ -> false) in
  let st_port = arr_sum (function Channel.Stv _ -> true | _ -> false) in
  max 1 (max per_chan (max ld_port st_port))

let analyze ?path_limit ~(cfg : Config.t) (p : Pipeline.t) :
    (t, Segments.budget) result =
  match Channel.of_pipeline ?path_limit p with
  | Error b -> Error b
  | Ok g ->
    let comps = compositions g in
    let lq_size = cfg.Config.load_queue_size
    and sq_size = cfg.Config.store_queue_size in
    let ok caps =
      List.for_all
        (fun c -> run_comp ~caps ~lq_size ~sq_size g c = Ok ())
        comps
    in
    let candidates = [ 1; 2; 3; 4; 6; 8; 12; 16; 24; 32; 48; 64; 256; big ] in
    let feasible = ok (fun _ -> big) in
    let min_of kind =
      if not feasible then Channel.capacity cfg kind
      else
        let rec try_ = function
          | [] -> big
          | c :: rest ->
            if ok (fun k -> if k = kind then c else big) then c
            else try_ rest
        in
        try_ candidates
    in
    let mins =
      List.map (fun (c : Channel.chan) -> (c.Channel.kind, min_of c.Channel.kind)) g.Channel.chans
    in
    (* the per-channel minima must also hold jointly *)
    let caps_of mins k =
      match List.assoc_opt k mins with Some v -> v | None -> big
    in
    let mins =
      if not feasible then mins
      else
        let rec settle mins n =
          if n > 6 || ok (caps_of mins) then mins
          else
            settle (List.map (fun (k, v) -> (k, min big (2 * v))) mins) (n + 1)
        in
        settle mins 0
    in
    let d = demand g in
    let channels =
      List.map
        (fun (c : Channel.chan) ->
          let mn = caps_of mins c.Channel.kind in
          let s = service cfg c.Channel.kind in
          let r = c.Channel.rate.Channel.hi in
          let matched =
            max mn (((r * s) + d - 1) / d)
          in
          {
            sz_chan = c;
            sz_configured = Channel.capacity cfg c.Channel.kind;
            sz_min = mn;
            sz_matched = matched;
            sz_score = r * s;
          })
        g.Channel.chans
    in
    let critical =
      List.fold_left
        (fun acc sz ->
          if sz.sz_chan.Channel.rate.Channel.hi = 0 then acc
          else
            match acc with
            | None -> Some sz
            | Some best ->
              if
                sz.sz_score > best.sz_score
                || sz.sz_score = best.sz_score
                   && Channel.name sz.sz_chan.Channel.kind
                      < Channel.name best.sz_chan.Channel.kind
              then Some sz
              else acc)
        None channels
      |> Option.map (fun sz -> sz.sz_chan.Channel.kind)
    in
    (* verdict for the analyzed configuration: certain structural zero-
       capacity deadlocks first, then the abstract replay at cfg depths *)
    let structural =
      List.filter_map
        (fun (c : Channel.chan) ->
          let cap = Channel.capacity cfg c.Channel.kind in
          if cap < 1 && c.Channel.rate.Channel.hi > 0 then
            Some
              (Fmt.str
                 "%s has capacity %d but moves up to %d token(s) per \
                  iteration: the first send can never retire (zero slack \
                  on every cycle through the edge)"
                 (Channel.name c.Channel.kind) cap c.Channel.rate.Channel.hi)
          else None)
        g.Channel.chans
    in
    let structural =
      structural
      @ (if
           sq_size < 1
           && List.exists
                (fun (c : Channel.chan) ->
                  match c.Channel.kind with
                  | Channel.Req_st _ -> c.Channel.rate.Channel.hi > 0
                  | _ -> false)
                g.Channel.chans
         then
           [
             Fmt.str
               "store queue size %d admits no allocation but the AGU sends \
                store requests"
               sq_size;
           ]
         else [])
      @
      if
        lq_size < 1
        && List.exists
             (fun (c : Channel.chan) ->
               match c.Channel.kind with
               | Channel.Req_ld _ -> c.Channel.rate.Channel.hi > 0
               | _ -> false)
             g.Channel.chans
      then
        [
          Fmt.str
            "load queue size %d admits no allocation but the AGU sends load \
             requests"
            lq_size;
        ]
      else []
    in
    let verdict =
      if structural <> [] then Deadlock structural
      else begin
        let caps k = Channel.capacity cfg k in
        let stuck =
          List.filter_map
            (fun c ->
              match run_comp ~caps ~lq_size ~sq_size g c with
              | Ok () -> None
              | Error d -> Some d)
            comps
        in
        match stuck with
        | [] -> Deadlock_free
        | ds -> Deadlock (List.sort_uniq compare ds)
      end
    in
    let class_min pred dflt =
      let ms =
        List.filter_map
          (fun sz ->
            if pred sz.sz_chan.Channel.kind then Some sz.sz_min else None)
          channels
      in
      List.fold_left max dflt ms
    in
    let min_cfg =
      {
        cfg with
        Config.request_fifo_capacity =
          class_min
            (function Channel.Req_ld _ | Channel.Req_st _ -> true | _ -> false)
            1;
        value_fifo_capacity =
          class_min (function Channel.Ldv _ -> true | _ -> false) 1;
        store_value_fifo_capacity =
          class_min (function Channel.Stv _ -> true | _ -> false) 1;
      }
    in
    (* Engineering bound on the timed run: every event's retirement is
       separated from its enabling event by a bounded pipeline of channel
       hops, memory services and the unit scheduler; idle loop iterations
       cost unit_ii each (accounted via the iters term). The factor is
       deliberately generous — the point is a static linear certificate,
       cross-validated by the simulator. *)
    let bound_per_event =
      12
      * (cfg.Config.fifo_latency + cfg.Config.memory_load_latency
        + cfg.Config.memory_store_latency + cfg.Config.forward_latency
        + cfg.Config.branch_latency + cfg.Config.alu_latency
        + cfg.Config.unit_ii + 4)
    in
    let bound_fill =
      64 * (cfg.Config.fifo_latency + cfg.Config.memory_load_latency + 4)
    in
    Ok
      {
        channels;
        verdict;
        critical;
        min_cfg;
        bound_per_event;
        bound_fill;
        graph = g;
      }

let bound (t : t) ~events ~iters =
  (t.bound_per_event * events)
  + (t.min_cfg.Config.unit_ii * iters)
  + t.bound_fill

let bound_of_timelines (t : t) (tls : Dae_sim.Machine.timeline list) =
  List.fold_left
    (fun acc (tl : Dae_sim.Machine.timeline) ->
      let events =
        Dae_sim.Trace.length tl.Dae_sim.Machine.t_agu
        + Dae_sim.Trace.length tl.Dae_sim.Machine.t_cu
        + Array.fold_left
            (fun n tr -> n + Dae_sim.Trace.length tr)
            0 tl.Dae_sim.Machine.t_aus
      in
      let iters =
        Array.fold_left
          (fun m (tr : Dae_sim.Trace.unit_trace) ->
            max m tr.Dae_sim.Trace.iterations)
          (max tl.Dae_sim.Machine.t_agu.Dae_sim.Trace.iterations
             tl.Dae_sim.Machine.t_cu.Dae_sim.Trace.iterations)
          tl.Dae_sim.Machine.t_aus
      in
      acc + bound t ~events ~iters)
    0 tls

let deadlocks (t : t) = match t.verdict with Deadlock _ -> true | _ -> false

let critical_decrement (t : t) : (Channel.kind * Config.t) option =
  match t.critical with
  | None -> None
  | Some kind ->
    let class_min = Channel.capacity t.min_cfg kind in
    Some (kind, Channel.with_capacity t.min_cfg kind (class_min - 1))

let pp ppf (t : t) =
  (match t.verdict with
  | Deadlock_free ->
    Fmt.pf ppf
      "verdict: deadlock-free (every wait cycle has positive slack at the \
       analyzed depths)@."
  | Deadlock ds ->
    Fmt.pf ppf "verdict: PROVABLE DEADLOCK@.";
    List.iter (fun d -> Fmt.pf ppf "  %s@." d) ds);
  Fmt.pf ppf "  %-14s %10s %5s %8s %10s@." "channel" "configured" "min"
    "matched" "rate";
  List.iter
    (fun sz ->
      Fmt.pf ppf "  %-14s %10d %5d %8d %10s%s@."
        (Channel.name sz.sz_chan.Channel.kind)
        sz.sz_configured sz.sz_min sz.sz_matched
        (Fmt.str "[%d,%d]" sz.sz_chan.Channel.rate.Channel.lo
           sz.sz_chan.Channel.rate.Channel.hi)
        (if t.critical = Some sz.sz_chan.Channel.kind then
           "  <- critical (expected Fifo_full source)"
         else ""))
    t.channels;
  Fmt.pf ppf
    "  predicted cycle bound: <= %d*events + %d*iters + %d@."
    t.bound_per_event t.min_cfg.Config.unit_ii t.bound_fill
