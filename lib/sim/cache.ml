(* Content-addressed on-disk result cache (see cache.mli).

   Correctness story: keys digest every input the payload depends on
   (lowered-program digest, workload instance, arch, Config.key, engine
   version), so a hit is definitionally the same computation. The entry
   format defends against torn or bit-rotted files — a one-line header
   carries the payload's own MD5 and length, and [find] verifies both
   before unmarshalling; anything that fails is deleted and counted, and
   the caller recomputes. Writes are temp-file + rename, so concurrent
   writers and readers only ever observe whole entries. *)

(* Bump whenever Exec/Timing/Lower semantics or any cached payload
   representation changes observably: retires the whole cache without a
   migration. *)
(* Bumped to 2 with the memory hierarchy: Stats gained the
   Mshr_full/Dram_bank causes, which changes the sweep payload shape. *)
let version = "daec-engine-2"

let default_dir = "_daec_cache"

type counters = { hits : int; misses : int; corrupt : int; stores : int }

type t = {
  root : string option; (* None: disabled, all lookups miss *)
  lock : Mutex.t; (* counters only; the fs is safe via rename *)
  mutable hits : int;
  mutable misses : int;
  mutable corrupt : int;
  mutable stores : int;
}

let create ?(dir = default_dir) () =
  {
    root = Some dir;
    lock = Mutex.create ();
    hits = 0;
    misses = 0;
    corrupt = 0;
    stores = 0;
  }

let disabled () =
  {
    root = None;
    lock = Mutex.create ();
    hits = 0;
    misses = 0;
    corrupt = 0;
    stores = 0;
  }

let is_enabled t = t.root <> None
let dir t = t.root

let bump t f =
  Mutex.lock t.lock;
  f t;
  Mutex.unlock t.lock

let counters t =
  Mutex.lock t.lock;
  let c =
    { hits = t.hits; misses = t.misses; corrupt = t.corrupt; stores = t.stores }
  in
  Mutex.unlock t.lock;
  c

let hit_rate (c : counters) =
  let n = c.hits + c.misses in
  if n = 0 then 0. else float_of_int c.hits /. float_of_int n

(* Length-prefix each component so concatenation is injective, then MD5. *)
let key parts =
  let b = Buffer.create 128 in
  List.iter
    (fun p ->
      Buffer.add_string b (string_of_int (String.length p));
      Buffer.add_char b ':';
      Buffer.add_string b p)
    parts;
  Digest.to_hex (Digest.string (Buffer.contents b))

let entry_path root k =
  let shard = if String.length k >= 2 then String.sub k 0 2 else "xx" in
  Filename.concat (Filename.concat root shard) (k ^ ".entry")

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

let magic = "daec-cache/1"

let default_kind = "result"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Header: "daec-cache/1 <payload-md5-hex> <len> <kind>\n", then the
   payload. Entries written before kinds existed have a three-token
   header and read back as [default_kind]. *)
let find (type a) t k : a option =
  match t.root with
  | None ->
    bump t (fun t -> t.misses <- t.misses + 1);
    None
  | Some root -> (
    let path = entry_path root k in
    if not (Sys.file_exists path) then begin
      bump t (fun t -> t.misses <- t.misses + 1);
      None
    end
    else
      let payload =
        match read_file path with
        | exception _ -> None
        | raw -> (
          match String.index_opt raw '\n' with
          | None -> None
          | Some nl -> (
            match String.split_on_char ' ' (String.sub raw 0 nl) with
            | [ m; md5; len ] | [ m; md5; len; _ ]
              when m = magic
                   && (match int_of_string_opt len with
                      | Some l -> String.length raw = nl + 1 + l
                      | None -> false) ->
              let body =
                String.sub raw (nl + 1) (String.length raw - nl - 1)
              in
              if Digest.to_hex (Digest.string body) = md5 then
                (try Some (Marshal.from_string body 0 : a)
                 with _ -> None)
              else None
            | _ -> None))
      in
      match payload with
      | Some v ->
        bump t (fun t -> t.hits <- t.hits + 1);
        Some v
      | None ->
        (* verification failed: never trust it, never keep it *)
        (try Sys.remove path with Sys_error _ -> ());
        bump t (fun t ->
            t.corrupt <- t.corrupt + 1;
            t.misses <- t.misses + 1);
        None)

let store ?(kind = default_kind) t k v =
  match t.root with
  | None -> ()
  | Some root -> (
    try
      if String.exists (fun c -> c = ' ' || c = '\n') kind then
        invalid_arg (Printf.sprintf "Cache.store: malformed kind %S" kind);
      let path = entry_path root k in
      mkdir_p (Filename.dirname path);
      let body = Marshal.to_string v [] in
      let header =
        Printf.sprintf "%s %s %d %s\n" magic
          (Digest.to_hex (Digest.string body))
          (String.length body) kind
      in
      let tmp, oc =
        Filename.open_temp_file ~mode:[ Open_binary ]
          ~temp_dir:(Filename.dirname path) "daec" ".tmp"
      in
      output_string oc header;
      output_string oc body;
      close_out oc;
      Sys.rename tmp path;
      bump t (fun t -> t.stores <- t.stores + 1)
    with Sys_error _ | Unix.Unix_error _ -> ())

type disk_stats = {
  entries : int;
  bytes : int;
  by_kind : (string * (int * int)) list;
}

(* Read just the one-line header to classify an entry; anything malformed
   counts under default_kind (find will deal with it on next lookup). *)
let entry_kind path =
  match open_in_bin path with
  | exception Sys_error _ -> default_kind
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match input_line ic with
        | exception End_of_file -> default_kind
        | line -> (
          match String.split_on_char ' ' line with
          | [ m; _; _; kind ] when m = magic -> kind
          | _ -> default_kind))

let fold_entries root f acc =
  if not (Sys.file_exists root) then acc
  else
    Array.fold_left
      (fun acc shard ->
        let sdir = Filename.concat root shard in
        if Sys.is_directory sdir then
          Array.fold_left
            (fun acc file ->
              if Filename.check_suffix file ".entry" then
                f acc (Filename.concat sdir file)
              else acc)
            acc (Sys.readdir sdir)
        else acc)
      acc (Sys.readdir root)

let disk_stats t =
  match t.root with
  | None -> { entries = 0; bytes = 0; by_kind = [] }
  | Some root ->
    let kinds : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
    let s =
      fold_entries root
        (fun s path ->
          let bytes =
            match (Unix.stat path).Unix.st_size with
            | sz -> sz
            | exception Unix.Unix_error _ -> 0
          in
          let kind = entry_kind path in
          let n, b =
            Option.value ~default:(0, 0) (Hashtbl.find_opt kinds kind)
          in
          Hashtbl.replace kinds kind (n + 1, b + bytes);
          { s with entries = s.entries + 1; bytes = s.bytes + bytes })
        { entries = 0; bytes = 0; by_kind = [] }
    in
    {
      s with
      by_kind =
        List.sort compare
          (Hashtbl.fold (fun k v acc -> (k, v) :: acc) kinds []);
    }

let clear t =
  match t.root with
  | None -> 0
  | Some root ->
    let removed =
      fold_entries root
        (fun n path ->
          match Sys.remove path with
          | () -> n + 1
          | exception Sys_error _ -> n)
        0
    in
    (* sweep now-empty shard directories; best-effort *)
    (if Sys.file_exists root then
       Array.iter
         (fun shard ->
           let sdir = Filename.concat root shard in
           if Sys.is_directory sdir then
             try Unix.rmdir sdir with Unix.Unix_error _ -> ())
         (Sys.readdir root));
    removed
