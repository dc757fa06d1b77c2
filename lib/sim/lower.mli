(** One-time lowering of compiled slices to a dense micro-op form.

    {!compile} renumbers SSA values to contiguous slots, channel arrays and
    memory ids to small ints, precomputes φ-copy lists per CFG edge, dense
    branch targets, serializing-consume sets and per-event trace metadata —
    everything the co-simulation interpreter ({!Exec}) would otherwise
    recompute per dynamic instruction or per invocation. The result is
    immutable: compile once per pipeline, run every invocation (and domain)
    over it. *)

open Dae_ir

type operand = Slot of int | Imm of int  (** booleans encoded 0/1 *)

type copy = { c_dst : int; c_src : operand }

type uop =
  | Ubinop of { dst : int; op : Instr.binop; a : operand; b : operand }
  | Ucmp of { dst : int; op : Instr.cmp; a : operand; b : operand }
  | Uselect of { dst : int; c : operand; a : operand; b : operand }
  | Unot of { dst : int; a : operand }
  | Usend_ld of { arr : int; idx : operand; mem : int; meta : int }
  | Usend_st of { arr : int; idx : operand; mem : int; meta : int }
  | Uconsume of { dst : int; mem : int; cid : int; meta : int }
  | Uproduce of { arr : int; value : operand; mem : int; meta : int }
  | Upoison of { arr : int; mem : int; meta : int }

type term =
  | Tbr of int
  | Tcond of operand * int * int
  | Tswitch of operand * int array  (** selector clamped to the array *)
  | Tret

type blk = {
  orig_bid : int;  (** for diagnostics *)
  uops : uop array;
  term : term;
  gate : int array;
      (** dense consume indices the terminator transitively depends on;
          [[||]] means not serializing (no Gate event) *)
  phis : (int * copy array) array;
      (** dense predecessor -> simultaneous slot copies, φ order *)
  is_hot : bool;  (** the hot loop header: iteration boundary *)
}

type uprog = {
  u_unit : Trace.unit_id;
  u_name : string;
  entry : int;
  blocks : blk array;
  n_slots : int;
  n_consumes : int;
  max_phis : int;  (** widest φ section, sizes the copy scratch *)
  params : (string * int) list;  (** parameter name -> slot *)
  control_synchronized : bool;
}

type t = {
  agu : uprog;
  aus : uprog array;
      (** extra access units 1 .. n-1 of an N-way partition; [[||]] for the
          classic 2-way split *)
  cu : uprog;
  arrays : string array;  (** dense array id -> name, sorted *)
  n_mems : int;
  subscribers : int array array;
      (** load mem -> unit indices ({!Trace.unit_index}) to fan the value to *)
}

val units : t -> uprog array
(** All unit programs in dense {!Trace.unit_index} order
    \[agu; cu; au1; ...\]. *)

val compile : Dae_core.Pipeline.t -> t

val digest : t -> Digest.t
(** Content digest of the whole lowered program (both units' micro-ops,
    tables and static analyses). Two pipelines with equal digests execute
    and re-time identically, so the on-disk result cache ({!Cache}) keys
    on this — computable without running a single invocation. *)

val array_table : Dae_core.Pipeline.t -> string array
(** The dense array-name table {!compile} interns (sorted union of both
    slices' channel arrays) — exposed so the reference interpreter emits
    traces over the identical table. *)

(** {1 Static analyses}

    Computed once here per pipeline; also used by the test-only reference
    interpreter. *)

val hot_header : Func.t -> int option
(** The innermost loop header with the most channel operations: the
    iteration boundary for trace purposes. *)

val control_consume_ids : Func.t -> (int, unit) Hashtbl.t
(** Consume instructions whose value transitively reaches a terminator. *)

val serializing_terminators : Func.t -> (int, int list) Hashtbl.t
(** Block id -> consume ids its terminator condition transitively depends
    on (the paper's Figure 2(b) serialization points). *)
