(** Functional co-simulation of the decoupled machine.

    The AGU and CU slices run as round-robin small-step interpreters over
    unbounded FIFOs; the DU serves each array's request stream in order,
    filling store allocations with (value, poison) tags from the CU and
    committing or dropping them in allocation order. Consumes are issued
    lazily (a value pops when available; only a computational use blocks),
    matching the dataflow CU.

    The fast path interprets the dense micro-op form of {!Lower}; compile
    once with {!Lower.compile} and call {!run_lowered} per invocation.
    {!run} compiles and runs in one go. The original tree-walking
    interpreter lives on under [test/reference/] as the oracle for the
    lowering equivalence property (test/test_lower.ml).

    The paper's §6 guarantees are checked dynamically on every run:
    {!Stream_mismatch} if the store-value/kill stream ever disagrees with
    the request stream (Lemma 6.1), {!Deadlock} on global non-progress,
    and {!check_against_golden} compares final memory and per-array commit
    order with the sequential interpreter. Diagnostics report unit and
    array {e names}, mapped back from the dense ids. *)

open Dae_ir

exception Deadlock of string
exception Stream_mismatch of string
exception Desync of string

type commit = { c_arr : string; c_addr : int; c_value : int }

type result = {
  memory : Interp.Memory.t;
  agu_trace : Trace.unit_trace;
  au_traces : Trace.unit_trace array;
      (** extra access units 1 .. n-1 of an N-way partition; [[||]] for the
          classic 2-way split *)
  cu_trace : Trace.unit_trace;
  commits : commit list;  (** program order per array *)
  killed_stores : int;
  committed_stores : int;
  loads_served : int;
  agu_steps : int;
  cu_steps : int;
}

val traces : result -> Trace.unit_trace array
(** All unit traces in dense {!Trace.unit_index} order
    \[agu; cu; au1; ...\]. *)

(** [mem] is mutated to the final state.
    @raise Deadlock | Stream_mismatch | Desync as described above. *)
val run_lowered :
  ?fuel:int ->
  Lower.t ->
  args:(string * Types.value) list ->
  mem:Interp.Memory.t ->
  result

(** [Lower.compile] + {!run_lowered}; when running several invocations of
    one pipeline, compile once instead. *)
val run :
  ?fuel:int ->
  Dae_core.Pipeline.t ->
  args:(string * Types.value) list ->
  mem:Interp.Memory.t ->
  result

(** Fraction of store requests whose value was a kill. *)
val misspeculation_rate : result -> float

val check_against_golden :
  golden_mem:Interp.Memory.t ->
  golden:Interp.result ->
  result ->
  (unit, string) Stdlib.result
