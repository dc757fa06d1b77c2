(* Banked non-blocking cache + DRAM timing model (see mem.mli).

   Determinism is load-bearing: the differential harness replays fresh
   and shared prepares against each other, and the result cache memoizes
   re-timed points by config key. Every structure here is a fixed-size
   array scanned in index order, and the LRU tie-break is a monotonic
   access counter — no hashing, no physical time.

   A line is identified by [(arr lsl 24) lor (addr / line_words)]: array
   ids are dense per-run indices assigned by the timing engine in DU
   creation order, so distinct arrays never alias. Cache bank and DRAM
   bank are both line-interleaved. *)

type mshr = {
  mutable m_line : int; (* line in flight; -1 = never used *)
  mutable m_fill_at : int; (* cycle the fill completes; free iff <= now *)
  mutable m_delayed : bool; (* DRAM start was pushed past allocation time *)
}

type t = {
  geom : Config.cache_geom;
  (* tags.(bank).(set * ways + way) = line id, or -1 when invalid *)
  tags : int array array;
  (* lru.(bank).(set * ways + way) = last-access stamp (monotonic) *)
  lru : int array array;
  mutable stamp : int;
  mshrs : mshr array;
  (* Cached running minimum over the in-flight fills ([max_int] when none
     are in flight), so [next_wake] and the hit fast path never scan the
     pool. Maintained by [refresh]: allocation folds the new fill time
     in; once time passes the minimum, the next call batch-reclaims every
     retired MSHR and recomputes it. *)
  mutable fill_min : int;
  (* Free MSHR indices, lowest index on top ([free_top - 1]), rebuilt by
     the same batched reclaim — popping matches the seed's first-free
     scan choice exactly. *)
  free_stack : int array;
  mutable free_top : int;
  (* DRAM: per-bank open row (-1 = closed) and busy-until times *)
  open_row : int array;
  bank_free_at : int array;
  mutable bus_free_at : int;
}

let create (geom : Config.cache_geom) =
  {
    geom;
    tags =
      Array.init geom.banks (fun _ -> Array.make (geom.sets * geom.ways) (-1));
    lru =
      Array.init geom.banks (fun _ -> Array.make (geom.sets * geom.ways) 0);
    stamp = 0;
    mshrs =
      Array.init geom.mshrs (fun _ ->
          { m_line = -1; m_fill_at = min_int; m_delayed = false });
    fill_min = max_int;
    free_stack = Array.init geom.mshrs (fun i -> geom.mshrs - 1 - i);
    free_top = geom.mshrs;
    open_row = Array.make geom.dram.dram_banks (-1);
    bank_free_at = Array.make geom.dram.dram_banks 0;
    bus_free_at = 0;
  }

(* Lazy batched retirement: fills only leave flight as time advances, so
   the cached minimum goes stale exactly when [now] reaches it. One pass
   then reclaims every retired MSHR at once (free stack, lowest index on
   top) and recomputes the minimum over the fills still in flight. *)
let refresh t ~now =
  if t.fill_min <= now then begin
    let best = ref max_int in
    t.free_top <- 0;
    for i = Array.length t.mshrs - 1 downto 0 do
      let m = t.mshrs.(i) in
      if m.m_fill_at > now then begin
        if m.m_fill_at < !best then best := m.m_fill_at
      end
      else begin
        t.free_stack.(t.free_top) <- i;
        t.free_top <- t.free_top + 1
      end
    done;
    t.fill_min <- !best
  end

type load_outcome =
  | Load_done of { complete_at : int; delayed : bool }
  | Load_mshr_full

let line_of t ~arr ~addr = (arr lsl 24) lor (addr / t.geom.line_words)
let cache_bank t line = line mod t.geom.banks
let cache_set t line = line / t.geom.banks mod t.geom.sets

(* Probe the set for [line]; on hit refresh its LRU stamp. *)
let probe t line =
  let b = cache_bank t line and s = cache_set t line in
  let tags = t.tags.(b) and lru = t.lru.(b) in
  let base = s * t.geom.ways in
  let hit = ref false in
  for w = 0 to t.geom.ways - 1 do
    if tags.(base + w) = line then begin
      hit := true;
      t.stamp <- t.stamp + 1;
      lru.(base + w) <- t.stamp
    end
  done;
  !hit

(* Install [line] into its set, evicting the least-recently-used way.
   Write-through keeps lines clean, so eviction is silent. *)
let install t line =
  let b = cache_bank t line and s = cache_set t line in
  let tags = t.tags.(b) and lru = t.lru.(b) in
  let base = s * t.geom.ways in
  let victim = ref 0 in
  for w = 1 to t.geom.ways - 1 do
    if lru.(base + w) < lru.(base + !victim) then victim := w
  done;
  tags.(base + !victim) <- line;
  t.stamp <- t.stamp + 1;
  lru.(base + !victim) <- t.stamp

(* One DRAM transaction for [line] starting no earlier than [now]:
   open-row hit or row switch on the line's bank, then [t_bus] cycles on
   the shared data bus. Returns (finish time, delayed-start flag). *)
let dram_access t ~now line =
  let d = t.geom.dram in
  let b = line mod d.dram_banks in
  let row = line / max 1 (d.row_words / t.geom.line_words) in
  let start = max now (max t.bank_free_at.(b) t.bus_free_at) in
  let lat = if t.open_row.(b) = row then d.t_row_hit else d.t_row_miss in
  t.open_row.(b) <- row;
  let finish = start + lat + d.t_bus in
  t.bank_free_at.(b) <- finish;
  t.bus_free_at <- finish;
  (finish, start > now)

let load t ~now ~arr ~addr =
  let line = line_of t ~arr ~addr in
  refresh t ~now;
  (* Fresh miss: pop the free stack — the lowest free index, the same
     MSHR the seed's first-free scan would have picked. *)
  let alloc_miss () =
    if t.free_top = 0 then Load_mshr_full
    else begin
      t.free_top <- t.free_top - 1;
      let m = t.mshrs.(t.free_stack.(t.free_top)) in
      let finish, delayed = dram_access t ~now line in
      let complete_at = finish + t.geom.hit_latency in
      m.m_line <- line;
      m.m_fill_at <- complete_at;
      m.m_delayed <- delayed;
      if complete_at < t.fill_min then t.fill_min <- complete_at;
      install t line;
      Load_done { complete_at; delayed }
    end
  in
  if t.fill_min = max_int then
    (* Fast path: nothing in flight — no merge can hit and the whole
       pool is free, so a cache hit completes in two array reads and a
       miss allocates without scanning the MSHRs. *)
    if probe t line then
      Load_done { complete_at = now + t.geom.hit_latency; delayed = false }
    else alloc_miss ()
  else begin
    (* A fill in flight takes precedence over the tag array: the tag is
       installed at allocation, but its data only arrives at m_fill_at. *)
    let merged = ref None in
    Array.iter
      (fun m ->
        if m.m_line = line && m.m_fill_at > now && !merged = None then
          merged := Some m)
      t.mshrs;
    match !merged with
    | Some m -> Load_done { complete_at = m.m_fill_at; delayed = false }
    | None ->
        if probe t line then
          Load_done { complete_at = now + t.geom.hit_latency; delayed = false }
        else alloc_miss ()
  end

let store t ~now ~arr ~addr =
  let line = line_of t ~arr ~addr in
  (* Write-through, no-allocate: refresh LRU on a write hit, never
     install on a write miss. The DRAM transaction is posted — the
     commit port does not wait for it — but it occupies the bank and
     bus, which is how store traffic delays load misses. *)
  ignore (probe t line : bool);
  ignore (dram_access t ~now line : int * bool)

let next_wake t ~now =
  refresh t ~now;
  if t.fill_min = max_int then None else Some t.fill_min
