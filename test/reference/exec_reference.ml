(* The pre-lowering tree-walking co-simulator, kept as the oracle for the
   lowering equivalence property (test/test_lower.ml): Hashtbl value
   environments, string-keyed channel tables, lazy queue creation. Only the
   trace recording was ported to the compact encoding (over the same
   interned array table as Dae_sim.Exec's fast path) so the two results
   compare with Trace.equal. Test-only: production code runs
   Exec.run_lowered. *)

open Dae_ir
open Dae_sim
open Exec

type step_result = Progress | Blocked | Finished

exception Blocked_on_value

let gate_meta = Trace.pack_meta ~tag:Trace.t_gate ~ctrl:false ~arr:0 ~mem:0

type request =
  | Rld of { mem : int; addr : int }
  | Rst of { mem : int; addr : int }

type store_tag = { tag_mem : int; value : int; poisoned : bool }

type ref_channels = {
  requests : (string, request Queue.t) Hashtbl.t;
  store_values : (string, store_tag Queue.t) Hashtbl.t;
  load_values : (int * Trace.unit_id, int Queue.t) Hashtbl.t;
  subscribers : (int, Trace.unit_id list) Hashtbl.t; (* load mem -> units *)
}

let get_queue tbl key =
  match Hashtbl.find_opt tbl key with
  | Some q -> q
  | None ->
    let q = Queue.create ()
    in
    Hashtbl.replace tbl key q;
    q

type phase = Phis | At of int (* instruction index *) | Term

(* A value slot: either a materialised value or a cell a lazily-issued
   consume will fill when the DU responds. *)
type slot = Ready of Types.value | Cell of Types.value option ref

type ustate = {
  uid : Trace.unit_id;
  func : Func.t;
  arr_id : (string, int) Hashtbl.t;
  env : (int, slot) Hashtbl.t;
  mutable cur : int;
  mutable came_from : int option;
  mutable phase : phase;
  mutable finished : bool;
  mutable iter : int;
  mutable depth : int;
  mutable steps : int;
  tb : Trace.Builder.t;
  promise_queues : (int, Types.value option ref Queue.t) Hashtbl.t;
  hot_header : int option;
  control_consumes : (int, unit) Hashtbl.t;
  serializing_terms : (int, int list) Hashtbl.t;
  last_consume_idx : (int, int) Hashtbl.t; (* consume id -> trace index *)
}

let make_ustate uid (f : Func.t) ~arr_id
    ~(args : (string * Types.value) list) : ustate =
  let env = Hashtbl.create 64 in
  List.iter
    (fun (name, vid) ->
      match List.assoc_opt name args with
      | Some v -> Hashtbl.replace env vid (Ready v)
      | None -> Fmt.invalid_arg "Exec: missing argument %s" name)
    f.Func.params;
  {
    uid;
    func = f;
    arr_id;
    env;
    cur = f.Func.entry;
    came_from = None;
    phase = Phis;
    finished = false;
    iter = -1;
    depth = 0;
    steps = 0;
    tb = Trace.Builder.create ();
    hot_header = Lower.hot_header f;
    control_consumes = Lower.control_consume_ids f;
    serializing_terms = Lower.serializing_terminators f;
    last_consume_idx = Hashtbl.create 8;
    promise_queues = Hashtbl.create 8;
  }

(* The slot an operand denotes, without forcing it. *)
let slot_of (u : ustate) = function
  | Types.Cst c -> Ready (Types.value_of_const c)
  | Types.Var v -> (
    match Hashtbl.find_opt u.env v with
    | Some s -> s
    | None ->
      Fmt.invalid_arg "Exec(%s): read of undefined %%%d in %s"
        (Trace.unit_name u.uid) v u.func.Func.name)

let value_of (u : ustate) op =
  match slot_of u op with
  | Ready v -> v
  | Cell r -> ( match !r with Some v -> v | None -> raise Blocked_on_value)

let fulfill_promises (ch : ref_channels) (u : ustate) : bool =
  let progress = ref false in
  Hashtbl.iter
    (fun mem q ->
      let data = get_queue ch.load_values (mem, u.uid) in
      while (not (Queue.is_empty q)) && not (Queue.is_empty data) do
        let cell = Queue.pop q in
        let v = Queue.pop data in
        cell := Some (Types.Vint v);
        progress := true
      done)
    u.promise_queues;
  !progress

let int_of u op = Types.int_of_value (value_of u op)
let bool_of u op = Types.bool_of_value (value_of u op)

let record (u : ustate) ~tag ~ctrl ~arr ~mem ~payload =
  let arr = Hashtbl.find u.arr_id arr in
  Trace.Builder.push u.tb
    ~meta:(Trace.pack_meta ~tag ~ctrl ~arr ~mem)
    ~iter:(max u.iter 0) ~depth:u.depth ~payload

let enter_block (u : ustate) bid =
  (match u.hot_header with
  | Some h when bid = h ->
    u.iter <- u.iter + 1;
    u.depth <- 0
  | _ -> ());
  u.came_from <- Some u.cur;
  u.cur <- bid;
  u.phase <- Phis

let step (ch : ref_channels) (u : ustate) : step_result =
  if u.finished then Finished
  else begin
    let b = Func.block u.func u.cur in
    match u.phase with
    | Phis ->
      (match u.came_from with
      | None -> ()
      | Some pred ->
        (* φs copy slots, not values: a pending consume flows through the
           join and only blocks a later computational use *)
        let resolved =
          List.map
            (fun (p : Block.phi) ->
              match List.assoc_opt pred p.Block.incoming with
              | Some op -> (p.Block.pid, slot_of u op)
              | None ->
                Fmt.invalid_arg
                  "Exec(%s): phi %%%d in bb%d lacks entry for bb%d"
                  (Trace.unit_name u.uid) p.Block.pid b.Block.bid pred)
            b.Block.phis
        in
        List.iter (fun (pid, s) -> Hashtbl.replace u.env pid s) resolved);
      u.phase <- At 0;
      u.steps <- u.steps + 1;
      Progress
    | At k when k >= List.length b.Block.instrs ->
      u.phase <- Term;
      Progress
    | At k -> (
      let i = List.nth b.Block.instrs k in
      let advance () =
        u.phase <- At (k + 1);
        u.depth <- u.depth + 1;
        u.steps <- u.steps + 1;
        Progress
      in
      match i.Instr.kind with
      | Instr.Binop (op, a, b') ->
        Hashtbl.replace u.env i.Instr.id
          (Ready
             (Types.Vint (Instr.eval_binop op (int_of u a) (int_of u b'))));
        advance ()
      | Instr.Cmp (op, a, b') ->
        Hashtbl.replace u.env i.Instr.id
          (Ready
             (Types.Vbool (Instr.eval_cmp op (int_of u a) (int_of u b'))));
        advance ()
      | Instr.Select (c, a, b') ->
        Hashtbl.replace u.env i.Instr.id
          (if bool_of u c then slot_of u a else slot_of u b');
        advance ()
      | Instr.Not a ->
        Hashtbl.replace u.env i.Instr.id
          (Ready (Types.Vbool (not (bool_of u a))));
        advance ()
      | Instr.Load _ | Instr.Store _ ->
        Fmt.invalid_arg "Exec(%s): raw memory op survived decoupling: %s"
          (Trace.unit_name u.uid)
          (Printer.instr_to_string i)
      | Instr.Send_ld_addr { arr; idx; mem } ->
        let addr = int_of u idx in
        Queue.add (Rld { mem; addr }) (get_queue ch.requests arr);
        record u ~tag:Trace.t_send_ld ~ctrl:false ~arr ~mem ~payload:addr;
        advance ()
      | Instr.Send_st_addr { arr; idx; mem } ->
        let addr = int_of u idx in
        Queue.add (Rst { mem; addr }) (get_queue ch.requests arr);
        record u ~tag:Trace.t_send_st ~ctrl:false ~arr ~mem ~payload:addr;
        advance ()
      | Instr.Consume_val { arr; mem } ->
        let q = get_queue ch.load_values (mem, u.uid) in
        let pq =
          match Hashtbl.find_opt u.promise_queues mem with
          | Some pq -> pq
          | None ->
            let pq = Queue.create () in
            Hashtbl.replace u.promise_queues mem pq;
            pq
        in
        (if Queue.is_empty q || not (Queue.is_empty pq) then begin
           (* channel empty (or earlier pops still pending): issue the
              pop lazily and keep going — only a use of the value blocks *)
           let cell = ref None in
           Hashtbl.replace u.env i.Instr.id (Cell cell);
           Queue.add cell pq
         end
         else begin
           let v = Queue.pop q in
           Hashtbl.replace u.env i.Instr.id (Ready (Types.Vint v))
         end);
        record u ~tag:Trace.t_consume
          ~ctrl:(Hashtbl.mem u.control_consumes i.Instr.id)
          ~arr ~mem ~payload:0;
        Hashtbl.replace u.last_consume_idx i.Instr.id
          (Trace.Builder.length u.tb - 1);
        advance ()
      | Instr.Produce_val { arr; value; mem } ->
        let v = int_of u value in
        Queue.add
          { tag_mem = mem; value = v; poisoned = false }
          (get_queue ch.store_values arr);
        record u ~tag:Trace.t_produce ~ctrl:false ~arr ~mem ~payload:v;
        advance ()
      | Instr.Poison { arr; mem } ->
        Queue.add
          { tag_mem = mem; value = 0; poisoned = true }
          (get_queue ch.store_values arr);
        record u ~tag:Trace.t_kill ~ctrl:false ~arr ~mem ~payload:0;
        advance ())
    | Term ->
      (* evaluate the branch first: a blocked condition must not record
         the gate or advance any state *)
      let target =
        match b.Block.term with
        | Block.Br t -> Some t
        | Block.Cond_br (c, t, f) -> Some (if bool_of u c then t else f)
        | Block.Switch (c, ts) ->
          let n = List.length ts in
          let k = int_of u c in
          let k = if k < 0 then 0 else if k >= n then n - 1 else k in
          Some (List.nth ts k)
        | Block.Ret _ -> None
      in
      u.steps <- u.steps + 1;
      (match Hashtbl.find_opt u.serializing_terms u.cur with
      | Some consume_ids ->
        let dep =
          List.fold_left
            (fun acc c ->
              match Hashtbl.find_opt u.last_consume_idx c with
              | Some idx -> max acc idx
              | None -> acc)
            (-1) consume_ids
        in
        Trace.Builder.push u.tb ~meta:gate_meta ~iter:(max u.iter 0)
          ~depth:u.depth ~payload:dep
      | None -> ());
      (match target with
      | Some t ->
        enter_block u t;
        Progress
      | None ->
        u.finished <- true;
        Finished)
  end

let step ch u : step_result =
  match step ch u with r -> r | exception Blocked_on_value -> Blocked

type du_state = {
  pending : (string, (int * int) Queue.t) Hashtbl.t; (* (mem, addr) *)
  mutable commits : commit list; (* reverse order *)
  mutable killed : int;
  mutable committed : int;
  mutable loads_served : int;
}

let du_create () =
  {
    pending = Hashtbl.create 8;
    commits = [];
    killed = 0;
    committed = 0;
    loads_served = 0;
  }

let du_pump (du : du_state) (ch : ref_channels) (mem : Interp.Memory.t) :
    bool =
  let progress = ref false in
  let arrays =
    Hashtbl.fold (fun arr _ acc -> arr :: acc) ch.requests []
    @ Hashtbl.fold (fun arr _ acc -> arr :: acc) ch.store_values []
    |> List.sort_uniq compare
  in
  List.iter
    (fun arr ->
      let reqs = get_queue ch.requests arr in
      let vals = get_queue ch.store_values arr in
      let pend = get_queue du.pending arr in
      let continue_ = ref true in
      while !continue_ do
        continue_ := false;
        if (not (Queue.is_empty pend)) && not (Queue.is_empty vals) then begin
          let p_mem, p_addr = Queue.pop pend in
          let tag = Queue.pop vals in
          if tag.tag_mem <> p_mem then
            raise
              (Stream_mismatch
                 (Fmt.str
                    "array %s: store request stream has mem%d at head but \
                     value stream delivered mem%d — AGU/CU order mismatch"
                    arr p_mem tag.tag_mem));
          if tag.poisoned then du.killed <- du.killed + 1
          else begin
            Interp.Memory.set mem arr p_addr tag.value;
            du.commits <-
              { c_arr = arr; c_addr = p_addr; c_value = tag.value }
              :: du.commits;
            du.committed <- du.committed + 1
          end;
          progress := true;
          continue_ := true
        end;
        if not (Queue.is_empty reqs) then begin
          match Queue.peek reqs with
          | Rst { mem = m; addr } ->
            ignore (Queue.pop reqs);
            Queue.add (m, addr) pend;
            progress := true;
            continue_ := true
          | Rld { mem = m; addr } ->
            if Queue.is_empty pend then begin
              ignore (Queue.pop reqs);
              let v = Interp.Memory.get_speculative mem arr addr in
              let subs =
                match Hashtbl.find_opt ch.subscribers m with
                | Some s -> s
                | None -> []
              in
              List.iter
                (fun unit ->
                  Queue.add v (get_queue ch.load_values (m, unit)))
                subs;
              du.loads_served <- du.loads_served + 1;
              progress := true;
              continue_ := true
            end
        end
      done)
    arrays;
  !progress

let finalize_trace ~(arrays : string array) (u : ustate) : Trace.unit_trace
    =
  Trace.Builder.finalize u.tb ~unit:u.uid ~arrays ~iterations:(u.iter + 1)
    ~control_synchronized:(Hashtbl.length u.control_consumes > 0)

let run ?(fuel = 50_000_000) (p : Dae_core.Pipeline.t)
    ~(args : (string * Types.value) list) ~(mem : Interp.Memory.t) : result
    =
  let arrays = Lower.array_table p in
  let arr_id = Hashtbl.create 16 in
  Array.iteri (fun i name -> Hashtbl.replace arr_id name i) arrays;
  let ch =
    {
      requests = Hashtbl.create 8;
      store_values = Hashtbl.create 8;
      load_values = Hashtbl.create 16;
      subscribers = Hashtbl.create 16;
    }
  in
  List.iter
    (fun (m, subs) ->
      Hashtbl.replace ch.subscribers m
        (List.map
           (function
             | `Agu -> Trace.Agu
             | `Cu -> Trace.Cu
             | `Au k -> Trace.Au k)
           subs))
    p.Dae_core.Pipeline.load_subscribers;
  let agu = make_ustate Trace.Agu p.Dae_core.Pipeline.agu ~arr_id ~args in
  let cu = make_ustate Trace.Cu p.Dae_core.Pipeline.cu ~arr_id ~args in
  let aus =
    List.mapi
      (fun k f -> make_ustate (Trace.Au (k + 1)) f ~arr_id ~args)
      p.Dae_core.Pipeline.aus
  in
  (* dense Trace.unit_index order *)
  let units = agu :: cu :: aus in
  let du = du_create () in
  let total_steps = ref 0 in
  let finished () = List.for_all (fun u -> u.finished) units in
  let running = ref true in
  while !running do
    let progress = ref false in
    List.iter
      (fun u ->
        if fulfill_promises ch u then progress := true;
        let go = ref true in
        while !go do
          match step ch u with
          | Progress ->
            progress := true;
            incr total_steps;
            if !total_steps > fuel then raise (Deadlock "out of fuel");
            if fulfill_promises ch u then ()
          | Blocked | Finished -> go := false
        done)
      units;
    if du_pump du ch mem then progress := true;
    if finished () then begin
      while
        du_pump du ch mem
        || List.exists (fun u -> fulfill_promises ch u) units
      do
        ()
      done;
      running := false
    end
    else if not !progress then
      raise
        (Deadlock
           (Fmt.str "no progress: %s"
              (String.concat ", "
                 (List.map
                    (fun u ->
                      Fmt.str "%s %s at bb%d" (Trace.unit_name u.uid)
                        (if u.finished then "finished" else "blocked")
                        u.cur)
                    units))))
  done;
  Hashtbl.iter
    (fun arr q ->
      if not (Queue.is_empty q) then
        raise (Desync (Fmt.str "unserved requests remain for array %s" arr)))
    ch.requests;
  Hashtbl.iter
    (fun arr q ->
      if not (Queue.is_empty q) then
        raise
          (Desync (Fmt.str "unmatched store values remain for array %s" arr)))
    ch.store_values;
  Hashtbl.iter
    (fun arr q ->
      if not (Queue.is_empty q) then
        raise
          (Desync
             (Fmt.str "store allocations never resolved for array %s" arr)))
    du.pending;
  Hashtbl.iter
    (fun (m, unit) q ->
      if not (Queue.is_empty q) then
        raise
          (Desync
             (Fmt.str "load values for mem%d never consumed by %s" m
                (Trace.unit_name unit))))
    ch.load_values;
  {
    memory = mem;
    agu_trace = finalize_trace ~arrays agu;
    au_traces =
      Array.of_list (List.map (fun u -> finalize_trace ~arrays u) aus);
    cu_trace = finalize_trace ~arrays cu;
    commits = List.rev du.commits;
    killed_stores = du.killed;
    committed_stores = du.committed;
    loads_served = du.loads_served;
    agu_steps = agu.steps;
    cu_steps = cu.steps;
  }
