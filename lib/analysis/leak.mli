(** Dynamic interference-witness search for speculative leakage.

    Complements {!Taint}'s static verdict with concrete counterexamples: a
    witness is a pair of initial memories differing in exactly one
    *architecturally dead* cell — one the speculative machine reads but the
    sequential golden execution never does — whose timing replays diverge.
    Divergence is anything the microarchitecture exposes: cycle counts,
    per-unit stall partitions, or the channel-trace digests (request
    addresses are trace payloads, so a secret-dependent speculative address
    is observable even when the cycle count happens to coincide).

    Candidates are found differentially: run the machine once with traces
    collected, take every load-request address it issued, and subtract the
    golden interpreter's read set over the same invocation sequence.
    Flipping such a cell cannot change any architectural result (the run is
    still golden-checked, as proof), so any divergence is a pure
    microarchitectural information leak. Each candidate is re-prepared
    through {!Dae_sim.Retime} and replayed at every configuration point —
    by default the scratchpad baseline *and* the default cache hierarchy,
    where set/bank/row indexing gives secrets a much wider timing channel. *)

type outcome = Cycles of int | Deadlock

type divergence = {
  d_cfg : string;  (** configuration-point label, e.g. "cache" *)
  d_base : outcome;
  d_flip : outcome;
  d_cycles_differ : bool;
  d_stats_differ : bool;  (** per-unit stall partitions differ *)
}

type witness = {
  w_arr : string;
  w_idx : int;
  w_base : int;  (** the cell's original value *)
  w_flip : int;  (** the flipped secret *)
  w_digest_differs : bool;  (** channel-trace digests diverge (any config) *)
  w_divs : divergence list;  (** configuration points whose timing diverged *)
}

type t = {
  l_arch : Dae_sim.Machine.arch;
  l_reads : int;  (** distinct cells the machine load-requested *)
  l_candidates : int;  (** of those, never read by the golden execution *)
  l_probed : int;
  l_skipped : int;  (** probes that failed to replay or were impure *)
  l_witnesses : witness list;
}

val default_points : (string * Dae_sim.Config.t) list
(** [("scratchpad", default); ("cache", default cache geometry)]. *)

val search :
  ?budget:int ->
  ?masks:int list ->
  ?points:(string * Dae_sim.Config.t) list ->
  Dae_sim.Machine.arch ->
  Dae_ir.Func.t ->
  invocations:Dae_sim.Machine.invocation list ->
  mem:Dae_ir.Interp.Memory.t ->
  t
(** Probe up to [budget] candidate cells (default 8, deterministic order:
    array name then index), xoring each with the [masks] in turn (default
    [[1; 8; 64]] — a neighbour flip, a cross-line flip and a cross-set
    flip for the default geometry). All masks are tried until one yields a
    *timing* divergence; a digest-only witness is kept as the fallback, so
    each cell reports at most one witness, the strongest found. [mem] is
    copied, never mutated. Probes that fail to
    replay (or whose final memories differ beyond the secret cell) are
    counted in [l_skipped], never reported as witnesses.
    @raise Dae_sim.Retime.Check_failed (and the {!Dae_sim.Exec}
    exceptions) when the *base* program itself fails to execute. *)

val found : t -> bool
val pp : Format.formatter -> t -> unit
