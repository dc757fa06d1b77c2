(* Channel-event traces, compact encoding.

   The functional co-simulation (Exec) records, per unit, the dynamic
   sequence of channel transactions with their loop-iteration index and
   intra-iteration depth; the timing engine (Timing) replays these against
   bounded FIFOs, the LSQ and memory ports. Keeping values/addresses in the
   trace means the timing engine never re-executes code — it only schedules.

   A trace is stored as an unboxed int array, [stride] words per event,
   instead of an array of variant records: the co-sim appends events with
   no per-event allocation and the timing engine reads them with no pointer
   chasing. Array names are interned once per pipeline (see Lower) into a
   dense id table shared by both units' traces; the hot paths deal only in
   small ints and the table maps back to names for diagnostics and
   export. *)

type unit_id = Agu | Cu | Au of int

let unit_name = function
  | Agu -> "AGU"
  | Cu -> "CU"
  | Au k -> "AU" ^ string_of_int k

let unit_index = function Agu -> 0 | Cu -> 1 | Au k -> k + 1
let of_index = function 0 -> Agu | 1 -> Cu | k -> Au (k - 1)

(* Event tags. *)
let t_send_ld = 0

let t_send_st = 1
let t_consume = 2
let t_produce = 3
let t_kill = 4
let t_gate = 5

(* Word 0 packs tag (3 bits), feeds_control (bit 3), array id (20 bits)
   and mem id (the rest); words 1..3 are iter, depth and the payload —
   address for sends, value for produces, gate dependency index (possibly
   -1) for gates. *)
let stride = 4

let tag_mask = 7
let ctrl_bit = 8
let arr_shift = 4
let mem_shift = 24
let max_arr = (1 lsl (mem_shift - arr_shift)) - 1
let max_mem = (1 lsl (62 - mem_shift)) - 1

let pack_meta ~tag ~ctrl ~arr ~mem =
  tag
  lor (if ctrl then ctrl_bit else 0)
  lor (arr lsl arr_shift) lor (mem lsl mem_shift)

type unit_trace = {
  unit : unit_id;
  data : int array; (* [stride] words per event *)
  n : int; (* number of events *)
  arrays : string array; (* dense array id -> name, shared per pipeline *)
  iterations : int;
  control_synchronized : bool;
      (* true when some consumed value feeds a branch of this unit: the
         next iteration cannot issue before that consume resolves
         (paper Figure 2(b)'s serialization) *)
}

let length tr = tr.n
let[@inline] tag tr k = tr.data.(k * stride) land tag_mask
let[@inline] feeds_control tr k = tr.data.(k * stride) land ctrl_bit <> 0

let[@inline] arr_id tr k =
  (tr.data.(k * stride) lsr arr_shift) land max_arr

let[@inline] mem tr k = tr.data.(k * stride) lsr mem_shift
let[@inline] iter tr k = tr.data.((k * stride) + 1)
let[@inline] depth tr k = tr.data.((k * stride) + 2)
let[@inline] payload tr k = tr.data.((k * stride) + 3)
let arr_name tr k = tr.arrays.(arr_id tr k)

let empty unit =
  {
    unit;
    data = [||];
    n = 0;
    arrays = [||];
    iterations = 0;
    control_synchronized = false;
  }

(* Content digest of everything the timing engine's replay can observe:
   the packed event words, the interned array table, the iteration count
   and the synchronization flag. Two traces with equal digests re-time to
   identical cycle counts under every configuration — the sweep engine's
   sampled cross-checks and the result cache both key on this. *)
let digest (tr : unit_trace) =
  Digest.string
    (Marshal.to_string
       (unit_index tr.unit, tr.data, tr.arrays, tr.iterations,
        tr.control_synchronized)
       [])

let equal (a : unit_trace) (b : unit_trace) =
  a.unit = b.unit && a.n = b.n && a.iterations = b.iterations
  && a.control_synchronized = b.control_synchronized
  && a.arrays = b.arrays
  &&
  let rec go i = i >= a.n * stride || (a.data.(i) = b.data.(i) && go (i + 1)) in
  go 0

(* --- decoded view, for tests / tools off the hot path -------------------- *)

type ev =
  | Send_ld of { arr : string; mem : int; addr : int }
  | Send_st of { arr : string; mem : int; addr : int }
  | Consume of { arr : string; mem : int; feeds_control : bool }
  | Produce of { arr : string; mem : int; value : int }
  | Kill of { arr : string; mem : int } (* poison call *)
  | Gate of { dep : int }
      (* a branch that depends on consumed values resolved here; [dep] is
         the trace index of the latest consume feeding it (-1 if none
         executed yet). Until the gate resolves, no later channel op of
         this unit may issue — the FIFO push order downstream of the branch
         is unknown before the branch is decided. This is the serialization
         of the paper's Figure 2(b); after speculation the branch is gone
         from the AGU and the gate disappears with it. *)

let ev tr k : ev =
  let m = mem tr k and p = payload tr k in
  match tag tr k with
  | 0 -> Send_ld { arr = arr_name tr k; mem = m; addr = p }
  | 1 -> Send_st { arr = arr_name tr k; mem = m; addr = p }
  | 2 ->
    Consume
      { arr = arr_name tr k; mem = m; feeds_control = feeds_control tr k }
  | 3 -> Produce { arr = arr_name tr k; mem = m; value = p }
  | 4 -> Kill { arr = arr_name tr k; mem = m }
  | 5 -> Gate { dep = p }
  | t -> Fmt.invalid_arg "Trace.ev: corrupt tag %d at event %d" t k

let fold f acc tr =
  let acc = ref acc in
  for k = 0 to tr.n - 1 do
    acc := f !acc tr k
  done;
  !acc

let pp_ev ppf = function
  | Send_ld { arr; mem; addr } -> Fmt.pf ppf "send_ld %s[%d] !%d" arr addr mem
  | Send_st { arr; mem; addr } -> Fmt.pf ppf "send_st %s[%d] !%d" arr addr mem
  | Consume { arr; mem; feeds_control } ->
    Fmt.pf ppf "consume %s !%d%s" arr mem (if feeds_control then " (ctrl)" else "")
  | Produce { arr; mem; value } -> Fmt.pf ppf "produce %s=%d !%d" arr value mem
  | Kill { arr; mem } -> Fmt.pf ppf "kill %s !%d" arr mem
  | Gate { dep } -> Fmt.pf ppf "gate(dep=%d)" dep

(* Format event [k] exactly as [pp_ev] would — the exporter's golden
   digests depend on this byte-for-byte. *)
let pp_event tr ppf k =
  let m = mem tr k and p = payload tr k in
  match tag tr k with
  | 0 -> Fmt.pf ppf "send_ld %s[%d] !%d" (arr_name tr k) p m
  | 1 -> Fmt.pf ppf "send_st %s[%d] !%d" (arr_name tr k) p m
  | 2 ->
    Fmt.pf ppf "consume %s !%d%s" (arr_name tr k) m
      (if feeds_control tr k then " (ctrl)" else "")
  | 3 -> Fmt.pf ppf "produce %s=%d !%d" (arr_name tr k) p m
  | 4 -> Fmt.pf ppf "kill %s !%d" (arr_name tr k) m
  | 5 -> Fmt.pf ppf "gate(dep=%d)" p
  | t -> Fmt.invalid_arg "Trace.pp_event: corrupt tag %d at event %d" t k

(* --- builder -------------------------------------------------------------- *)

module Builder = struct
  type t = { mutable data : int array; mutable n : int (* events *) }

  let create () = { data = Array.make (256 * stride) 0; n = 0 }

  let[@inline never] grow b =
    let bigger = Array.make (2 * Array.length b.data) 0 in
    Array.blit b.data 0 bigger 0 (b.n * stride);
    b.data <- bigger

  (* [meta] is a pre-packed word 0 (see [pack_meta]); lowering precomputes
     it per micro-op so the hot path stores four ints and a bump. *)
  let[@inline] push b ~meta ~iter ~depth ~payload =
    let base = b.n * stride in
    if base + stride > Array.length b.data then grow b;
    let d = b.data in
    (* the grow check above keeps [base + stride <= length d] *)
    Array.unsafe_set d base meta;
    Array.unsafe_set d (base + 1) iter;
    Array.unsafe_set d (base + 2) depth;
    Array.unsafe_set d (base + 3) payload;
    b.n <- b.n + 1

  let length b = b.n

  let finalize b ~unit ~arrays ~iterations ~control_synchronized =
    {
      unit;
      data = Array.sub b.data 0 (b.n * stride);
      n = b.n;
      arrays;
      iterations;
      control_synchronized;
    }
end
