(* One-time lowering of compiled slices to a dense micro-op form.

   The tree-walking co-simulator paid per *dynamic* instruction for work
   that only depends on the *static* slice: Hashtbl value-environment
   probes, string-keyed channel lookup, `List.nth` instruction fetch,
   φ-incoming association lists, and three whole-function analyses
   (hot header, control-feeding consumes, serializing terminators) redone
   on every invocation. This pass pays all of it once per pipeline:

   - SSA value ids are renumbered to a contiguous slot array, so the
     interpreter's environment is two flat arrays (value + pending cell);
   - channel arrays and memory ids become small dense ints shared by both
     units; the table maps back to names for diagnostics;
   - φ-copy lists are precomputed per CFG edge as (dst slot, src operand)
     arrays, branch targets become dense block indices, and switch target
     lists become arrays;
   - each channel micro-op carries its pre-packed trace word 0
     ({!Trace.pack_meta}), so recording an event is four int stores;
   - serializing-consume sets per terminator are resolved to dense consume
     indices, and the hot loop header is a per-block flag.

   The result is immutable and shared across invocations and domains
   (Machine compiles once, runs many). *)

open Dae_ir

type operand = Slot of int | Imm of int  (* booleans encoded 0/1 *)

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
  | Tswitch of operand * int array  (* selector clamped to the array *)
  | Tret

type blk = {
  orig_bid : int;  (* for diagnostics *)
  uops : uop array;
  term : term;
  gate : int array;
      (* dense consume indices the terminator transitively depends on;
         [||] means the terminator is not serializing (no Gate event) *)
  phis : (int * copy array) array;
      (* dense predecessor -> simultaneous slot copies, φ order *)
  is_hot : bool;  (* the hot loop header: iteration boundary *)
}

type uprog = {
  u_unit : Trace.unit_id;
  u_name : string;
  entry : int;
  blocks : blk array;
  n_slots : int;
  n_consumes : int;
  max_phis : int;  (* widest φ section, sizes the copy scratch *)
  params : (string * int) list;  (* parameter name -> slot *)
  control_synchronized : bool;
}

type t = {
  agu : uprog;
  aus : uprog array; (* extra access units 1 .. n-1; [||] for 2-way *)
  cu : uprog;
  arrays : string array;  (* dense array id -> name, sorted *)
  n_mems : int;
  subscribers : int array array;
      (* load mem -> unit indices ({!Trace.unit_index}) to fan the value to *)
}

let units (t : t) : uprog array =
  Array.append [| t.agu; t.cu |] t.aus

(* --- static analyses (once per pipeline; the test-only reference
   interpreter reuses them) ---------------------------------------------- *)

(* The innermost loop header with the most channel operations: iteration
   boundaries for trace purposes. *)
let hot_header (f : Func.t) : int option =
  let loops = Loops.compute f in
  let channel_ops_in body =
    List.fold_left
      (fun acc bid ->
        acc
        + List.length
            (List.filter
               (fun (i : Instr.t) ->
                 match i.Instr.kind with
                 | Instr.Send_ld_addr _ | Instr.Send_st_addr _
                 | Instr.Consume_val _ | Instr.Produce_val _ | Instr.Poison _
                   ->
                   true
                 | _ -> false)
               (Func.block f bid).Block.instrs))
      0 body
  in
  let candidates =
    List.map
      (fun (l : Loops.loop) -> (l, channel_ops_in l.Loops.body))
      loops.Loops.loops
  in
  let innermost_first =
    List.sort
      (fun ((a : Loops.loop), na) (b, nb) ->
        match compare nb na with
        | 0 -> compare b.Loops.depth a.Loops.depth
        | c -> c)
      candidates
  in
  match innermost_first with
  | (l, n) :: _ when n > 0 -> Some l.Loops.header
  | _ -> None

(* Consume instructions whose value (transitively) reaches a terminator:
   these make the unit control-synchronized. *)
let control_consume_ids (f : Func.t) : (int, unit) Hashtbl.t =
  let du = Defuse.compute f in
  let result = Hashtbl.create 8 in
  let feeds_control v =
    let seen = Hashtbl.create 16 in
    let rec go v =
      (not (Hashtbl.mem seen v))
      && begin
        Hashtbl.replace seen v ();
        Defuse.terminator_users du v <> []
        || List.exists go (Defuse.users du v)
      end
    in
    go v
  in
  Func.iter_instrs f (fun (i : Instr.t) ->
      match i.Instr.kind with
      | Instr.Consume_val _ ->
        if feeds_control i.Instr.id then Hashtbl.replace result i.Instr.id ()
      | _ -> ());
  result

(* For each block whose terminator condition transitively depends on
   consumed values: the consume ids it depends on. The unit cannot know its
   downstream FIFO push order before such a branch resolves. *)
let serializing_terminators (f : Func.t) : (int, int list) Hashtbl.t =
  let du = Defuse.compute f in
  let consumes =
    Func.fold_instrs f
      (fun acc (i : Instr.t) ->
        match i.Instr.kind with
        | Instr.Consume_val _ -> i.Instr.id :: acc
        | _ -> acc)
      []
  in
  let result = Hashtbl.create 8 in
  if consumes <> [] then
    List.iter
      (fun bid ->
        let b = Func.block f bid in
        let deps =
          List.concat_map
            (fun op ->
              match op with
              | Types.Cst _ -> []
              | Types.Var v ->
                let slice = Defuse.backward_slice du v in
                List.filter (fun c -> Hashtbl.mem slice c) consumes)
            (Block.terminator_operands b)
        in
        if deps <> [] then
          Hashtbl.replace result bid (List.sort_uniq compare deps))
      f.Func.layout;
  result

(* --- array / mem tables -------------------------------------------------- *)

let channel_arrays_and_mems (f : Func.t) =
  Func.fold_instrs f
    (fun ((arrs, mems) as acc) (i : Instr.t) ->
      match i.Instr.kind with
      | Instr.Send_ld_addr { arr; mem; _ }
      | Instr.Send_st_addr { arr; mem; _ }
      | Instr.Consume_val { arr; mem }
      | Instr.Produce_val { arr; mem; _ }
      | Instr.Poison { arr; mem } ->
        (arr :: arrs, max mem mems)
      | _ -> acc)
    ([], -1)

(* The dense array-name table all units' traces share: every array named
   by a channel op of any slice, sorted. Iterating it in id order visits
   arrays in the same sorted order the co-simulator's functional DU always
   used, so commit interleaving is unchanged. *)
let array_table (p : Dae_core.Pipeline.t) : string array =
  let a1, _ = channel_arrays_and_mems p.Dae_core.Pipeline.agu in
  let a2, _ = channel_arrays_and_mems p.Dae_core.Pipeline.cu in
  let a3 =
    List.concat_map
      (fun au -> fst (channel_arrays_and_mems au))
      p.Dae_core.Pipeline.aus
  in
  Array.of_list (List.sort_uniq compare (a1 @ a2 @ a3))

(* --- per-unit lowering --------------------------------------------------- *)

let lower_func (uid : Trace.unit_id) (f : Func.t)
    ~(arr_id : (string, int) Hashtbl.t) : uprog =
  let unit = Trace.unit_name uid in
  (* dense block numbering, layout order (layout covers every block) *)
  let bid_of = Hashtbl.create 16 in
  let layout = f.Func.layout in
  List.iteri (fun d bid -> Hashtbl.replace bid_of bid d) layout;
  Hashtbl.iter
    (fun bid _ ->
      if not (Hashtbl.mem bid_of bid) then
        Fmt.invalid_arg "Lower(%s): block bb%d of %s missing from layout" unit
          bid f.Func.name)
    f.Func.blocks;
  let dense bid =
    match Hashtbl.find_opt bid_of bid with
    | Some d -> d
    | None ->
      Fmt.invalid_arg "Lower(%s): branch to unknown bb%d in %s" unit bid
        f.Func.name
  in
  (* slot numbering: params, then φs and value-producing instrs in layout
     order *)
  let slot_of = Hashtbl.create 64 in
  let n_slots = ref 0 in
  let assign vid =
    Hashtbl.replace slot_of vid !n_slots;
    incr n_slots
  in
  List.iter (fun (_, vid) -> assign vid) f.Func.params;
  (* dense consume indices, for gate-dependency tracking *)
  let cid_of = Hashtbl.create 8 in
  let n_consumes = ref 0 in
  List.iter
    (fun bid ->
      let b = Func.block f bid in
      List.iter (fun (p : Block.phi) -> assign p.Block.pid) b.Block.phis;
      List.iter
        (fun (i : Instr.t) ->
          match i.Instr.kind with
          | Instr.Binop _ | Instr.Cmp _ | Instr.Select _ | Instr.Not _ ->
            assign i.Instr.id
          | Instr.Consume_val _ ->
            assign i.Instr.id;
            Hashtbl.replace cid_of i.Instr.id !n_consumes;
            incr n_consumes
          | _ -> ())
        b.Block.instrs)
    layout;
  let slot vid =
    match Hashtbl.find_opt slot_of vid with
    | Some s -> s
    | None ->
      Fmt.invalid_arg "Exec(%s): read of undefined %%%d in %s" unit vid
        f.Func.name
  in
  let lower_op : Types.operand -> operand = function
    | Types.Cst (Types.Int n) -> Imm n
    | Types.Cst (Types.Bool b) -> Imm (if b then 1 else 0)
    | Types.Var v -> Slot (slot v)
  in
  let arr name =
    match Hashtbl.find_opt arr_id name with
    | Some a -> a
    | None -> Fmt.invalid_arg "Lower(%s): array %s missing from table" unit name
  in
  let hot = hot_header f in
  let control = control_consume_ids f in
  let serializing = serializing_terminators f in
  let lower_instr (i : Instr.t) : uop =
    match i.Instr.kind with
    | Instr.Binop (op, a, b) ->
      Ubinop { dst = slot i.Instr.id; op; a = lower_op a; b = lower_op b }
    | Instr.Cmp (op, a, b) ->
      Ucmp { dst = slot i.Instr.id; op; a = lower_op a; b = lower_op b }
    | Instr.Select (c, a, b) ->
      Uselect
        { dst = slot i.Instr.id; c = lower_op c; a = lower_op a; b = lower_op b }
    | Instr.Not a -> Unot { dst = slot i.Instr.id; a = lower_op a }
    | Instr.Load _ | Instr.Store _ ->
      Fmt.invalid_arg "Exec(%s): raw memory op survived decoupling: %s" unit
        (Printer.instr_to_string i)
    | Instr.Send_ld_addr { arr = a; idx; mem } ->
      let arr = arr a in
      Usend_ld
        {
          arr;
          idx = lower_op idx;
          mem;
          meta = Trace.pack_meta ~tag:Trace.t_send_ld ~ctrl:false ~arr ~mem;
        }
    | Instr.Send_st_addr { arr = a; idx; mem } ->
      let arr = arr a in
      Usend_st
        {
          arr;
          idx = lower_op idx;
          mem;
          meta = Trace.pack_meta ~tag:Trace.t_send_st ~ctrl:false ~arr ~mem;
        }
    | Instr.Consume_val { arr = a; mem } ->
      let arr = arr a in
      let ctrl = Hashtbl.mem control i.Instr.id in
      Uconsume
        {
          dst = slot i.Instr.id;
          mem;
          cid = Hashtbl.find cid_of i.Instr.id;
          meta = Trace.pack_meta ~tag:Trace.t_consume ~ctrl ~arr ~mem;
        }
    | Instr.Produce_val { arr = a; value; mem } ->
      let arr = arr a in
      Uproduce
        {
          arr;
          value = lower_op value;
          mem;
          meta = Trace.pack_meta ~tag:Trace.t_produce ~ctrl:false ~arr ~mem;
        }
    | Instr.Poison { arr = a; mem } ->
      let arr = arr a in
      Upoison
        { arr; mem; meta = Trace.pack_meta ~tag:Trace.t_kill ~ctrl:false ~arr ~mem }
  in
  let preds = Func.predecessors f in
  let lower_block bid : blk =
    let b = Func.block f bid in
    let phis =
      if b.Block.phis = [] then [||]
      else
        let ps =
          match Hashtbl.find_opt preds bid with Some l -> l | None -> []
        in
        Array.of_list
          (List.map
             (fun pred ->
               ( dense pred,
                 Array.of_list
                   (List.map
                      (fun (p : Block.phi) ->
                        match List.assoc_opt pred p.Block.incoming with
                        | Some op ->
                          { c_dst = slot p.Block.pid; c_src = lower_op op }
                        | None ->
                          Fmt.invalid_arg
                            "Exec(%s): phi %%%d in bb%d lacks entry for bb%d"
                            unit p.Block.pid b.Block.bid pred)
                      b.Block.phis) ))
             ps)
    in
    let term =
      match b.Block.term with
      | Block.Br t -> Tbr (dense t)
      | Block.Cond_br (c, t, e) -> Tcond (lower_op c, dense t, dense e)
      | Block.Switch (c, ts) ->
        Tswitch (lower_op c, Array.of_list (List.map dense ts))
      | Block.Ret _ -> Tret
    in
    let gate =
      match Hashtbl.find_opt serializing bid with
      | Some consume_ids ->
        Array.of_list (List.map (fun c -> Hashtbl.find cid_of c) consume_ids)
      | None -> [||]
    in
    {
      orig_bid = bid;
      uops = Array.of_list (List.map lower_instr b.Block.instrs);
      term;
      gate;
      phis;
      is_hot = (match hot with Some h -> h = bid | None -> false);
    }
  in
  let blocks = Array.of_list (List.map lower_block layout) in
  let max_phis =
    Array.fold_left
      (fun acc b ->
        Array.fold_left (fun acc (_, cs) -> max acc (Array.length cs)) acc b.phis)
      0 blocks
  in
  {
    u_unit = uid;
    u_name = f.Func.name;
    entry = dense f.Func.entry;
    blocks;
    n_slots = !n_slots;
    n_consumes = !n_consumes;
    max_phis;
    params = List.map (fun (name, vid) -> (name, slot vid)) f.Func.params;
    control_synchronized = Hashtbl.length control > 0;
  }

let compile (p : Dae_core.Pipeline.t) : t =
  let arrays = array_table p in
  if Array.length arrays > Trace.max_arr then
    Fmt.invalid_arg "Lower: %d channel arrays exceed the trace encoding"
      (Array.length arrays);
  let arr_id = Hashtbl.create 16 in
  Array.iteri (fun i name -> Hashtbl.replace arr_id name i) arrays;
  let _, m1 = channel_arrays_and_mems p.Dae_core.Pipeline.agu in
  let _, m2 = channel_arrays_and_mems p.Dae_core.Pipeline.cu in
  let m3 =
    List.fold_left
      (fun acc au -> max acc (snd (channel_arrays_and_mems au)))
      (-1) p.Dae_core.Pipeline.aus
  in
  let max_sub_mem =
    List.fold_left
      (fun acc (m, _) -> max acc m)
      (-1) p.Dae_core.Pipeline.load_subscribers
  in
  let n_mems = 1 + max (max m1 m3) (max m2 max_sub_mem) in
  if n_mems > Trace.max_mem then
    Fmt.invalid_arg "Lower: %d memory ids exceed the trace encoding" n_mems;
  let subscribers = Array.make (max n_mems 1) [||] in
  List.iter
    (fun (m, subs) ->
      subscribers.(m) <-
        Array.of_list
          (List.map
             (function
               | `Agu -> Trace.unit_index Trace.Agu
               | `Cu -> Trace.unit_index Trace.Cu
               | `Au k -> Trace.unit_index (Trace.Au k))
             subs))
    p.Dae_core.Pipeline.load_subscribers;
  {
    agu = lower_func Trace.Agu p.Dae_core.Pipeline.agu ~arr_id;
    aus =
      Array.of_list
        (List.mapi
           (fun k au -> lower_func (Trace.Au (k + 1)) au ~arr_id)
           p.Dae_core.Pipeline.aus);
    cu = lower_func Trace.Cu p.Dae_core.Pipeline.cu ~arr_id;
    arrays;
    n_mems;
    subscribers;
  }

(* Content digest of the lowered program. [t] is a closed tree of ints,
   strings, arrays and constant constructors — Marshal gives a canonical
   byte image, and MD5 of that identifies the program's execution and
   re-timing behaviour completely. The result cache keys on this without
   having to run anything. *)
let digest (p : t) = Digest.string (Marshal.to_string p [])
