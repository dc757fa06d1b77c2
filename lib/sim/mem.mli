(** Configurable memory hierarchy behind the DU load/store ports
    (ROADMAP item 1).

    A {!t} models one level of N-way banked, set-associative,
    non-blocking cache (shared MSHR pool, miss merging) over a DRAM
    backend with per-bank open-row tracking and a shared data bus. The
    timing engine consults it only in [Config.Hierarchy] mode; in
    [Scratchpad] mode no [t] exists and the engine's pre-hierarchy load
    path runs unchanged — that is the bit-compatibility anchor for every
    golden test.

    All state mutates only inside {!load} and {!store}, and every
    returned completion time is [> now], so the calendar's time jumps
    stay sound: a frozen no-progress span can never miss a memory event
    that was not announced via a completion time or {!next_wake}. *)

type t

val create : Config.cache_geom -> t
(** A cold cache (all ways invalid, all rows closed, all MSHRs free). *)

val mshr_full : int
(** {!load}'s answer when the access missed but every MSHR is occupied;
    the load port must retry later ([Stats.Mshr_full]). Negative, so it
    never equals a completion time. *)

val load : t -> now:int -> arr:int -> addr:int -> int
(** Issue a load for word [addr] of dense array [arr]; returns the cycle
    ([> now]) at which the value arrives at the LSQ, or {!mshr_full}.
    Hits complete at [now + hit_latency]; misses to an in-flight line
    merge into its MSHR; fresh misses allocate an MSHR and a DRAM access.
    Allocates nothing. *)

val last_delayed : t -> bool
(** Whether the most recent accepted {!load} was a miss whose DRAM access
    could not start at allocation time (bank or bus busy) — the signal
    behind the [Stats.Dram_bank] attribution. *)

val store : t -> now:int -> arr:int -> addr:int -> unit
(** Commit a store: write-through, no-allocate, posted. The commit port
    itself stays single-issue per cycle (as in scratchpad mode); the
    store's DRAM transaction occupies its bank and the shared bus, so
    store traffic delays subsequent load misses. *)

val next_wake : t -> now:int -> int
(** Earliest in-flight MSHR fill strictly after [now], [max_int] when
    none is in flight — the hierarchy's contribution to a stalled unit's
    wake candidates. A cached running minimum maintained by batched MSHR
    reclaim, so the stall path reads it in O(1) amortized instead of
    scanning the pool. *)
