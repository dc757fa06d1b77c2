(** Cycle-level timing simulation of the DAE architecture template (paper
    Figure 1): pipelined AGU/CU loop engines replaying their channel
    traces, bounded latency-carrying FIFOs, a per-array LSQ with separate
    load/store request channels, disambiguation by program-order tags,
    store-to-load forwarding and poison kill, and dual-ported SRAM.

    A unit retires events out of order across channels but in order per
    channel (one op per channel per cycle), no earlier than
    [iteration × unit_ii + depth], and never past an unresolved {!Trace.ev}
    [Gate] — which is what serializes the non-speculative DAE AGU. A
    mis-speculated store occupies its store-queue slot from allocation to
    kill: the paper's §8.2.1 cost mechanism. *)

type lsq_stats = {
  mutable alloc_stall_cycles : int;
  mutable raw_wait_cycles : int;
  mutable forwards : int;
  mutable kills : int;
  mutable commits : int;
  mutable loads : int;
}

(** Committed-order LSQ/memory events, recorded under
    [run_units ~record_mem] in execution order — the trace the
    {!Mem_model} SC/ordering oracle replays. [seq] is the per-array
    program-order tag the AGU assigned; [older_sts] on a load is the
    number of same-array stores preceding it in program order. *)
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
  au_finish : int array;
      (** finish cycles of the extra access units of an N-way partition,
          in trace order; [[||]] for the classic 2-way split *)
  lsq : (string * lsq_stats) list;
  agu_retire : int array;
      (** per-event retire cycles, index-aligned with the trace entries —
          for pipeline timeline views (the paper's Figure 2) *)
  cu_retire : int array;
  au_retire : int array array;  (** extra access units, trace order *)
  stats : Stats.keyed;
      (** cycle attribution per unit, keyed ["AGU"], ["CU"], ["AU<k>"],
          ["DU:<arr>"];
          for every unit [Stats.total] equals [cycles] exactly — the
          engine classifies each unit once per visited cycle-span, and
          between visited cycles the blocking state is frozen (the same
          invariant that makes the calendar jump sound) *)
  depth_samples : (int * string * int) array;
      (** [(cycle, channel, depth)] occupancy samples, emitted on change
          in cycle order; empty unless [run_units ~record_depths:true].
          Channels are ["<arr>.req_ld"], ["<arr>.req_st"], ["<arr>.stv"],
          ["<arr>.sq"], ["<arr>.lq"] and ["ldv<mem>.<unit>"]. *)
  mem_events : mem_event array;
      (** execution-order memory event log; empty unless
          [run_units ~record_mem:true] *)
}

exception Timing_error of string

exception Deadlock of string
(** The dynamic deadlock detector's verdict: no unit can make progress and
    no future calendar wake exists. Distinct from {!Timing_error} (engine
    misuse, cycle overrun) so deadlock-boundary probes can discriminate. *)

(** Stall-path scheduler. {!Event_wheel} (the default) keeps one sorted
    wake-candidate bucket per unit and DU array and recomputes a bucket
    only when that component's state changed — O(1) amortized per clean
    component per stall. {!Seed_calendar} is the seed's
    rescan-everything-per-stall reference path; both produce bit-identical
    results (pinned by the equivalence suite in [test/test_wheel.ml]).
    Only tests select the calendar, through {!Retime.simulate}. *)
type scheduler = Event_wheel | Seed_calendar

val scan_window : int
(** Per-unit out-of-order retirement scan depth; the static sizing
    analyzer's abstract causality replay mirrors it. *)

(** Bounded FIFO whose entries become visible [latency] cycles after the
    push. *)
module Fifo : sig
  type 'a t

  val create : capacity:int -> latency:int -> 'a t
  val has_space : 'a t -> bool

  (** @raise Timing_error when full. *)
  val push : 'a t -> now:int -> 'a -> unit

  (** The head, if it has arrived by [now]. *)
  val peek : 'a t -> now:int -> 'a option

  val pop : 'a t -> 'a
  val is_empty : 'a t -> bool
end

(** Replay any number of unit traces (dense {!Trace.unit_index} order
    \[agu; cu; au1; ...\]) to completion; needs at least two traces.
    [record_depths] (default false) additionally records
    channel-occupancy samples for the timeline exporter; [record_mem]
    (default false) records the committed-order memory event log;
    neither ever affects scheduling or cycle counts. [validate] (default
    true) runs {!Config.validate} first; deadlock-boundary probes pass
    [~validate:false] to simulate a rejected configuration. In
    [Config.Hierarchy] mode loads consult a fresh {!Mem} instance (cold
    caches per run); in [Scratchpad] mode the pre-hierarchy fixed-latency
    path runs unchanged. [scheduler] defaults to {!Event_wheel}.
    @raise Invalid_argument on an invalid configuration.
    @raise Deadlock on a modelled deadlock.
    @raise Timing_error on a cycle overrun. *)
val run_units :
  ?cfg:Config.t ->
  ?validate:bool ->
  ?max_cycles:int ->
  ?record_depths:bool ->
  ?record_mem:bool ->
  ?scheduler:scheduler ->
  subscribers:(int * Trace.unit_id list) list ->
  Trace.unit_trace array ->
  result

(** The ORACLE bound (paper §8.1.1): drop mis-speculated store requests
    from the AGU trace and kills from the CU trace — perfect speculation. *)
val oracle_filter :
  Trace.unit_trace -> Trace.unit_trace -> Trace.unit_trace * Trace.unit_trace
