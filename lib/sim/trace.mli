(** Channel-event traces: the functional co-simulation ({!Exec}) records
    each unit's dynamic channel transactions; the timing engine ({!Timing})
    replays them against bounded FIFOs, the LSQ and memory ports without
    re-executing any code.

    Events are stored [stride] unboxed int words apiece in a flat array —
    no per-event allocation when recording, no pointer chasing when
    replaying. Array names are interned into a dense id table shared by
    both units of a pipeline ({!Lower.compile}); {!arr_name} maps ids back
    for diagnostics and export. *)

type unit_id = Agu | Cu | Au of int
(** [Agu] and [Cu] are the classic 2-way pair; [Au k] (k >= 1) is the k-th
    extra access unit of an N-way partition ({!Dae_core.Decouple.run_n}) —
    [Agu] doubles as access unit 0, so the 2-way encoding is unchanged. *)

val unit_name : unit_id -> string

val unit_index : unit_id -> int
(** [Agu] is 0, [Cu] is 1, [Au k] is [k + 1] — for dense per-unit tables.
    The order \[AGU; CU; AU1; ...\] keeps every 2-way table and digest
    bit-identical to the pre-partition encoding. *)

val of_index : int -> unit_id
(** Inverse of {!unit_index}. *)

(** {1 Compact encoding} *)

val t_send_ld : int
val t_send_st : int
val t_consume : int
val t_produce : int
val t_kill : int

val t_gate : int
(** Event tags, [0..5]; the result of {!tag}. *)

val stride : int
(** Words per event in {!unit_trace.data}: word 0 packs the event's meta
    (tag, feeds-control bit, array id, mem id), words 1, 2 and 3 hold
    {!iter}, {!depth} and {!payload}. *)

val tag_mask : int
val arr_shift : int

val mem_shift : int
(** Word-0 layout, for readers that decode events in place: the tag is
    [w land tag_mask], the array id [(w lsr arr_shift) land max_arr], the
    mem id [w lsr mem_shift]. *)

val max_arr : int

val max_mem : int
(** Largest dense array id / mem id the word-0 packing can hold. *)

val pack_meta : tag:int -> ctrl:bool -> arr:int -> mem:int -> int
(** Pre-pack an event's word 0 (tag, feeds-control bit, array id, mem id). *)

type unit_trace = {
  unit : unit_id;
  data : int array;  (** [stride] words per event *)
  n : int;  (** number of events *)
  arrays : string array;  (** dense array id -> name, shared per pipeline *)
  iterations : int;  (** hot-loop trips, 0 when the unit never looped *)
  control_synchronized : bool;
      (** some consumed value feeds a branch of this unit *)
}

val length : unit_trace -> int
val tag : unit_trace -> int -> int
val feeds_control : unit_trace -> int -> bool
val arr_id : unit_trace -> int -> int
val mem : unit_trace -> int -> int
val iter : unit_trace -> int -> int
val depth : unit_trace -> int -> int

val payload : unit_trace -> int -> int
(** Address for sends, value for produces, gate dependency (−1 if none)
    for gates. *)

val arr_name : unit_trace -> int -> string
val empty : unit_id -> unit_trace
val equal : unit_trace -> unit_trace -> bool

val digest : unit_trace -> Digest.t
(** Content digest of everything the timing replay can observe (packed
    events, array table, iteration count, synchronization flag): equal
    digests re-time identically under every configuration. The sweep
    engine's sampled cross-checks and the on-disk result cache key on
    this. *)

(** {1 Decoded view (off the hot path)} *)

type ev =
  | Send_ld of { arr : string; mem : int; addr : int }
  | Send_st of { arr : string; mem : int; addr : int }
  | Consume of { arr : string; mem : int; feeds_control : bool }
  | Produce of { arr : string; mem : int; value : int }
  | Kill of { arr : string; mem : int }  (** poison call *)
  | Gate of { dep : int }
      (** a branch depending on consumed values resolved here; [dep] is the
          trace index of the latest consume feeding it (-1 if none). Until
          the gate resolves no later channel op may issue — the FIFO push
          order downstream of the branch is unknown before the decision.
          This is the serialization of the paper's Figure 2(b); speculation
          removes the branch from the AGU and the gate with it. *)

val ev : unit_trace -> int -> ev
(** Decode event [k]; allocates. *)

val fold : ('a -> unit_trace -> int -> 'a) -> 'a -> unit_trace -> 'a
(** [fold f acc tr] folds [f] over event indices [0 .. length tr - 1]. *)

val pp_ev : Format.formatter -> ev -> unit

val pp_event : unit_trace -> Format.formatter -> int -> unit
(** Format event [k] exactly as {!pp_ev} on {!ev}[ tr k] would, without
    decoding. The trace exporter's golden digests pin these bytes. *)

(** {1 Incremental builder} *)

module Builder : sig
  type t

  val create : unit -> t

  val push : t -> meta:int -> iter:int -> depth:int -> payload:int -> unit
  (** [meta] is a pre-packed word 0 ({!pack_meta}). *)

  val length : t -> int
  (** Events pushed so far — gate dependencies index this sequence. *)

  val finalize :
    t ->
    unit:unit_id ->
    arrays:string array ->
    iterations:int ->
    control_synchronized:bool ->
    unit_trace
end
