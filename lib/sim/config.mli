(** Architectural parameters of the simulated DAE template (paper §8.1):
    LSQ sizes (paper: 4/32), channel depths and latencies, SRAM latencies,
    and the unit initiation interval. Every knob is exposed for the
    ablation benches. *)

type dram = {
  dram_banks : int;  (** independent DRAM banks (line-interleaved) *)
  row_words : int;  (** words per row — the row buffer's reach *)
  t_row_hit : int;  (** access latency on an open-row hit *)
  t_row_miss : int;  (** precharge + activate + access on a row switch *)
  t_bus : int;  (** shared data-bus occupancy per transfer *)
}

type cache_geom = {
  banks : int;
  sets : int;  (** sets per bank *)
  ways : int;
  line_words : int;
  hit_latency : int;
  mshrs : int;  (** shared miss-status holding registers *)
  dram : dram;
}

type hierarchy =
  | Scratchpad
      (** the paper's deterministic dual-ported SRAM; bit-identical to the
          pre-hierarchy simulator *)
  | Hierarchy of cache_geom
      (** banked non-blocking cache + DRAM behind the load port: variable
          load latency, MSHR backpressure, bank/bus contention *)

type t = {
  load_queue_size : int;
  store_queue_size : int;
  request_fifo_capacity : int;
  value_fifo_capacity : int;
  store_value_fifo_capacity : int;
  fifo_latency : int;
  memory_load_latency : int;
  memory_store_latency : int;
  forward_latency : int;
  alu_latency : int;
  branch_latency : int;
  unit_ii : int;
  vector_width : int;
      (** §10 future work: vector of speculative requests per cycle;
          1 = the paper's scalar design *)
  hierarchy : hierarchy;
}

val default : t
(** Scratchpad hierarchy — the seed configuration. *)

val default_dram : dram
val default_geom : cache_geom
(** Baseline cache point used by the CLI's [--mem cache] preset: 2 banks ×
    16 sets × 2 ways × 8-word lines, 4 MSHRs, over {!default_dram}. *)

val validate : t -> unit
(** Reject non-positive capacities, latencies and queue sizes with a
    descriptive [Invalid_argument] naming the offending field. Called by
    the {!Machine}/{!Timing} entry points (the timing engine's ring
    buffers used to clamp [phys = max capacity 1] silently, deferring a
    zero capacity to a dynamic deadlock). *)

val key : t -> string
(** Canonical compact rendering of every field — stable cache/dedup key
    for (kernel × arch × config) simulation jobs. In [Scratchpad] mode the
    key is byte-identical to pre-hierarchy versions; [Hierarchy] appends a
    suffix covering every cache/DRAM parameter. *)

val pp : Format.formatter -> t -> unit
val pp_hierarchy : Format.formatter -> hierarchy -> unit
