(** Content-addressed on-disk result cache.

    `daec sweep`, the bench harness and [size --validate] memoize timing
    results across processes: a cache key digests everything the result
    depends on — the lowered program ({!Lower.digest}), the workload
    instance, the architecture, the configuration ({!Config.key}) and the
    engine version — so equal keys are interchangeable results and stale
    entries are impossible by construction. Bumping {!version} (any change
    to Exec/Timing/Lower semantics) retires every prior entry without a
    migration.

    Entries live under [dir]/[k₀k₁]/[key].entry where [k₀k₁] are the first
    two hex digits of the key (sharding keeps directories small). Each
    entry is a one-line header [daec-cache/1 <payload-md5> <len> <kind>]
    followed by a [Marshal] payload; {!find} verifies the length and
    digest before trusting a byte, deletes anything that fails, and
    reports it as corrupt — a damaged cache degrades to recomputation,
    never to wrong answers. The [kind] token classifies the entry for
    [daec cache stats] ({!disk_stats.by_kind}: re-timed sweep and bench
    points, [size --validate] probes, …); headers written before kinds
    existed have three tokens and read back as {!default_kind}.

    Writes go to a temp file in the same directory and are published with
    [Sys.rename], so concurrent writers (pool domains, parallel CI jobs)
    race benignly: last rename wins and readers only ever see whole
    entries. *)

val version : string
(** Timing-engine version stamp, part of every key. Bump when Exec,
    Timing, Lower or the cached payload representation changes
    observably. *)

val default_dir : string
(** ["_daec_cache"], resolved relative to the working directory. *)

type t
(** A cache handle: directory + hit/miss/corruption counters. A disabled
    handle ({!disabled}, or [daec sweep --no-cache]) misses every lookup
    and drops every store, so callers never branch. *)

val create : ?dir:string -> unit -> t
(** Handle rooted at [dir] (default {!default_dir}). The directory is
    created lazily on first store. *)

val disabled : unit -> t

val is_enabled : t -> bool

val dir : t -> string option

val key : string list -> string
(** Digest a list of key components into a 32-hex-char key. Components
    are length-prefixed before hashing, so [["ab"; "c"]] and [["a";
    "bc"]] collide only if MD5 does. *)

val find : t -> string -> 'a option
(** [find t k] returns the payload stored under key [k], or [None] on a
    miss or a corrupt/truncated entry (which is counted and removed).

    The payload is [Marshal]led: the type ['a] is {e not} checked at
    read time, so every distinct payload type must fold a distinguishing
    tag into its key (the sweep engine folds {!version} plus a
    per-payload format tag). *)

val default_kind : string
(** ["result"] — the kind recorded when {!store} is not given one, and
    the kind legacy three-token headers read back as. *)

val store : ?kind:string -> t -> string -> 'a -> unit
(** Atomically persist a payload under key [k]. [kind] (default
    {!default_kind}) labels the entry in {!disk_stats} — one short token,
    no spaces. Errors (disk full, permissions) are swallowed: the cache
    is an accelerator, not a store of record.
    @raise Invalid_argument on a [kind] containing a space or newline. *)

(** {1 Introspection} *)

type counters = {
  hits : int;
  misses : int;
  corrupt : int;  (** failed verification; removed and recomputed *)
  stores : int;
}

val counters : t -> counters
(** This handle's lookup/store counters (cumulative, domain-safe). *)

val hit_rate : counters -> float
(** [hits / (hits + misses)]; 0 when no lookups happened. *)

type disk_stats = {
  entries : int;
  bytes : int;
  by_kind : (string * (int * int)) list;
      (** kind -> (entries, bytes), sorted by kind — separates re-timed
          points from [size --validate] probes *)
}

val disk_stats : t -> disk_stats
(** Walk the cache directory: entry count and total payload bytes, plus
    the per-kind breakdown read from each entry's header line.
    For [daec cache stats]. *)

val clear : t -> int
(** Remove every entry (and the shard directories); returns how many
    entries were deleted. For [daec cache clear]. *)
