(** Executable operational model of the LSQ's memory-ordering rules — the
    specification side of the differential memory-model harness
    (test/test_mem.ml), in the style of Zhang–Vijayaraghavan–Arvind's
    operational framework: every committed load/store event the timing
    engine records ([Timing.run_units ~record_mem]) is replayed against an
    abstract per-array store-queue machine, and any step the model's rules
    do not admit is a violation.

    The rules checked, per array (program order = the AGU's [seq] tags):

    - store lifecycle: allocate → resolve (ready/poisoned) → commit/kill,
      each phase exactly once, resolves in allocation order, and the queue
      exits (commits {e and} kills) strictly in program order — the
      sequential-consistency lemma's committed-order half (paper §6);
    - a committed store writes the address it allocated;
    - a load never issues before all its program-order-older stores have
      allocated (addresses known — the disambiguation precondition);
    - a {e forwarded} load observes a store: no older same-address store
      may still be awaiting its value, and at least one live older
      same-address store must be resolved ready;
    - a {e memory} load observes main memory: every older same-address
      store must have exited or be resolved poisoned (a poisoned store
      never reaches memory), so memory holds exactly the program-order
      prefix of non-killed same-address stores;
    - load completion is strictly after issue;
    - at end of trace every allocated store has exited (no lost stores).

    {b Scope — the memory is age-ordered.} The model deliberately does
    {e not} flag a younger same-address store committing before an older
    load issues (WAR). The engine permits that reorder: the scalar load
    port serializes issues one per cycle, and load-queue backpressure can
    hold an older load back while younger stores drain — e.g. in the [bc]
    kernel a store commits one cycle before the preceding load reaches
    the port. This is sound because the co-simulation binds every load's
    value in program order on the functional side (cross-checked against
    the golden interpreter): the timing engine models a memory system
    with an age-tagged write buffer, where a read always observes the
    snapshot at its own program-order position, so a WAR timing reorder
    can never surface a future value. The properties that {e are} load
    bearing — and checked above — are the committed-order half of the
    sequential-consistency lemma and the RAW/forwarding admissibility
    rules, which the engine must get right for the age-ordering argument
    to hold at all.

    The model is deliberately independent of the timing engine's
    implementation: it sees only the event log, keeps its own queues, and
    re-derives every admissibility decision. *)

type violation = {
  v_index : int;  (** index of the offending event in the log *)
  v_msg : string;
}

val pp_violation : Format.formatter -> violation -> unit

val check : Timing.mem_event array -> violation list
(** Replay one invocation's event log; returns all violations in event
    order (empty = the log is admitted by the model). *)

val check_run : Timing.mem_event array list -> violation list
(** {!check} over a whole [Machine.result.mem_events] run, one cold model
    per invocation (the engine's LSQ state does not persist across
    invocations either). *)
