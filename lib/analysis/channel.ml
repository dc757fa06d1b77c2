(* Channel dependence graph extraction.

   The edge set comes straight from the compiled pipeline (channel uses +
   load subscribers: exactly the FIFOs Timing.run instantiates). Rates
   come from the checker's segment universe: every dynamic trace is a
   concatenation of segments, so per-edge token counts over the
   scope-owned events of each segment give sound per-iteration rate
   intervals, and the raw per-segment streams (kept in [seg_raw]) are the
   emission orders the sizing analyzer's abstract causality replay
   composes. *)

open Dae_ir
module Pipeline = Dae_core.Pipeline
module Hoist = Dae_core.Hoist
module Config = Dae_sim.Config

type kind =
  | Req_ld of string
  | Req_st of string
  | Stv of string
  | Ldv of Instr.mem_id * [ `Agu | `Cu | `Au of int ]

type rate = { lo : int; hi : int; spec_hi : int; kill_hi : int }
type chan = { kind : kind; arr : string; rate : rate }

type t = {
  chans : chan list;
  sync_consumes : int;
  events_hi : int;
  n_segments : int;
  seg_raw : Replay.event list array list;
  load_subscribers : (Instr.mem_id * [ `Agu | `Cu | `Au of int ] list) list;
}

let unit_suffix = function
  | `Agu -> "AGU"
  | `Cu -> "CU"
  | `Au k -> "AU" ^ string_of_int k

let dense_of = function `Agu -> 0 | `Cu -> 1 | `Au k -> k + 1

let name = function
  | Req_ld arr -> arr ^ ".req_ld"
  | Req_st arr -> arr ^ ".req_st"
  | Stv arr -> arr ^ ".stv"
  | Ldv (mem, u) -> Printf.sprintf "ldv%d.%s" mem (unit_suffix u)

let knob = function
  | Req_ld _ | Req_st _ -> "req-fifo"
  | Ldv _ -> "val-fifo"
  | Stv _ -> "stv-fifo"

let capacity (cfg : Config.t) = function
  | Req_ld _ | Req_st _ -> cfg.Config.request_fifo_capacity
  | Ldv _ -> cfg.Config.value_fifo_capacity
  | Stv _ -> cfg.Config.store_value_fifo_capacity

let with_capacity (cfg : Config.t) kind v =
  match kind with
  | Req_ld _ | Req_st _ -> { cfg with Config.request_fifo_capacity = v }
  | Ldv _ -> { cfg with Config.value_fifo_capacity = v }
  | Stv _ -> { cfg with Config.store_value_fifo_capacity = v }

(* Count the events a segment moves on one edge. The counting functions
   see only the scope-owned events (Checker.seg_events filtering), so the
   interval is per iteration of the edge's own scope. [units] holds one
   stream per unit in dense order [agu; cu; au1; ...]; per-array single
   ownership means requests for an array appear in exactly one access
   unit's stream, so counting sends over every access-unit stream counts
   the owner's. *)
let access_streams (units : Replay.event list array) =
  List.concat
    (List.filteri
       (fun i _ -> i <> 1)
       (Array.to_list units))

let count_kind kind ~(units : Replay.event list array) =
  let count pred evs = List.length (List.filter pred evs) in
  match kind with
  | Req_ld arr ->
    count
      (fun (e : Replay.event) ->
        e.Replay.ev_kind = Replay.Send_ld && e.Replay.ev_arr = arr)
      (access_streams units)
  | Req_st arr ->
    count
      (fun (e : Replay.event) ->
        e.Replay.ev_kind = Replay.Send_st && e.Replay.ev_arr = arr)
      (access_streams units)
  | Stv arr ->
    count
      (fun (e : Replay.event) ->
        (e.Replay.ev_kind = Replay.Produce || e.Replay.ev_kind = Replay.Kill)
        && e.Replay.ev_arr = arr)
      units.(1)
  | Ldv (mem, u) ->
    count
      (fun (e : Replay.event) ->
        e.Replay.ev_kind = Replay.Consume && e.Replay.ev_mem = mem)
      units.(dense_of u)

let count_spec kind ~hoisted ~(units : Replay.event list array) =
  let count pred evs = List.length (List.filter pred evs) in
  match kind with
  | Req_ld arr ->
    count
      (fun (e : Replay.event) ->
        e.Replay.ev_kind = Replay.Send_ld && e.Replay.ev_arr = arr
        && List.mem e.Replay.ev_mem hoisted)
      (access_streams units)
  | Req_st arr ->
    count
      (fun (e : Replay.event) ->
        e.Replay.ev_kind = Replay.Send_st && e.Replay.ev_arr = arr
        && List.mem e.Replay.ev_mem hoisted)
      (access_streams units)
  | Stv arr ->
    count
      (fun (e : Replay.event) ->
        e.Replay.ev_kind = Replay.Kill && e.Replay.ev_arr = arr)
      units.(1)
  | Ldv _ -> 0

let count_kill kind ~(units : Replay.event list array) =
  match kind with
  | Stv arr ->
    List.length
      (List.filter
         (fun (e : Replay.event) ->
           e.Replay.ev_kind = Replay.Kill && e.Replay.ev_arr = arr)
         units.(1))
  | _ -> 0

let of_pipeline ?path_limit (p : Pipeline.t) : (t, Segments.budget) result =
  match Checker.segment_events ?path_limit p with
  | Error b -> Error b
  | Ok segs ->
    let hoisted =
      match p.Pipeline.spec with
      | Some si -> si.Pipeline.hoist.Hoist.hoisted_mems
      | None -> []
    in
    (* one edge per (class, array) plus one per subscribed load value *)
    let kinds =
      let ld_arrs = ref [] and st_arrs = ref [] in
      List.iter
        (fun (c : Dae_core.Decouple.channel_use) ->
          let tgt = if c.Dae_core.Decouple.is_store then st_arrs else ld_arrs in
          if not (List.mem c.Dae_core.Decouple.arr !tgt) then
            tgt := c.Dae_core.Decouple.arr :: !tgt)
        p.Pipeline.channels;
      let ld_arrs = List.sort compare !ld_arrs
      and st_arrs = List.sort compare !st_arrs in
      List.map (fun a -> Req_ld a) ld_arrs
      @ List.map (fun a -> Req_st a) st_arrs
      @ List.map (fun a -> Stv a) st_arrs
      @ List.concat_map
          (fun (mem, subs) -> List.map (fun u -> Ldv (mem, u)) subs)
          p.Pipeline.load_subscribers
    in
    let arr_of_mem mem =
      match
        List.find_opt
          (fun (c : Dae_core.Decouple.channel_use) ->
            c.Dae_core.Decouple.mem = mem)
          p.Pipeline.channels
      with
      | Some c -> c.Dae_core.Decouple.arr
      | None -> "?"
    in
    let chans =
      List.map
        (fun kind ->
          let arr =
            match kind with
            | Req_ld a | Req_st a | Stv a -> a
            | Ldv (mem, _) -> arr_of_mem mem
          in
          let lo = ref max_int and hi = ref 0 in
          let spec_hi = ref 0 and kill_hi = ref 0 in
          List.iter
            (fun (se : Checker.seg_events) ->
              let n = count_kind kind ~units:se.Checker.se_units in
              if n < !lo then lo := n;
              if n > !hi then hi := n;
              let s =
                count_spec kind ~hoisted ~units:se.Checker.se_units
              in
              if s > !spec_hi then spec_hi := s;
              let k = count_kill kind ~units:se.Checker.se_units in
              if k > !kill_hi then kill_hi := k)
            segs;
          let lo = if !lo = max_int then 0 else !lo in
          {
            kind;
            arr;
            rate = { lo; hi = !hi; spec_hi = !spec_hi; kill_hi = !kill_hi };
          })
        kinds
    in
    (* synchronizing back-edges: most load values any segment makes one
       access unit itself consume *)
    let sync_consumes =
      List.fold_left
        (fun acc (se : Checker.seg_events) ->
          let per_unit = ref 0 in
          Array.iteri
            (fun i evs ->
              if i <> 1 then
                per_unit :=
                  max !per_unit
                    (List.length
                       (List.filter
                          (fun (e : Replay.event) ->
                            e.Replay.ev_kind = Replay.Consume)
                          evs)))
            se.Checker.se_units;
          max acc !per_unit)
        0 segs
    in
    let events_hi =
      List.fold_left
        (fun acc (se : Checker.seg_events) ->
          max acc
            (Array.fold_left
               (fun n evs -> n + List.length evs)
               0 se.Checker.se_units))
        0 segs
    in
    Ok
      {
        chans;
        sync_consumes;
        events_hi;
        n_segments = List.length segs;
        seg_raw =
          List.map
            (fun (se : Checker.seg_events) -> se.Checker.se_units_raw)
            segs;
        load_subscribers = p.Pipeline.load_subscribers;
      }

let pp ppf (g : t) =
  Fmt.pf ppf
    "channel graph: %d edge(s) over %d segment(s), <=%d events/segment, \
     <=%d synchronizing consume(s)@."
    (List.length g.chans) g.n_segments g.events_hi g.sync_consumes;
  List.iter
    (fun c ->
      Fmt.pf ppf "  %-14s rate [%d,%d]%s%s@." (name c.kind) c.rate.lo
        c.rate.hi
        (if c.rate.spec_hi > 0 then
           Fmt.str " spec<=%d" c.rate.spec_hi
         else "")
        (if c.rate.kill_hi > 0 then
           Fmt.str " kills<=%d" c.rate.kill_hi
         else ""))
    g.chans
