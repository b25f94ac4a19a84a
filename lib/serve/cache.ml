(* A classic doubly-linked LRU over a Hashtbl index.  All state lives
   behind one mutex per cache instance; the serving layer creates one
   cache per server, so there is no process-global mutable state here. *)

type node = {
  key : string;
  fields : (string * Rv_obs.Json.t) list;
  size : int;
  mutable prev : node option;  (* towards most-recent *)
  mutable next : node option;  (* towards least-recent *)
}

type t = {
  lock : Mutex.t;
  capacity : int;
  tbl : (string, node) Hashtbl.t;
  mutable head : node option;  (* most recently used *)
  mutable tail : node option;  (* least recently used *)
  mutable bytes : int;
  mutable evictions : int;
}

type stats = {
  entries : int;
  bytes : int;
  capacity : int;
  evictions : int;
}

let create ~max_bytes =
  {
    lock = Mutex.create ();
    capacity = max 0 max_bytes;
    tbl = Hashtbl.create 256;
    head = None;
    tail = None;
    bytes = 0;
    evictions = 0;
  }

(* --- intrusive list plumbing (call with [t.lock] held) ----------------- *)

let unlink (t : t) n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front (t : t) n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let remove (t : t) n =
  unlink t n;
  Hashtbl.remove t.tbl n.key;
  t.bytes <- t.bytes - n.size

let rec evict_over_budget (t : t) =
  if t.bytes > t.capacity then
    match t.tail with
    | None -> ()
    | Some lru ->
        remove t lru;
        t.evictions <- t.evictions + 1;
        evict_over_budget t

(* --- public API -------------------------------------------------------- *)

let find (t : t) key =
  Mutex.lock t.lock;
  let r =
    if t.capacity = 0 then None
    else
      match Hashtbl.find_opt t.tbl key with
      | None -> None
      | Some n ->
          unlink t n;
          push_front t n;
          Some n.fields
  in
  Mutex.unlock t.lock;
  r

let entry_size key fields =
  String.length key
  + String.length (Rv_obs.Json.to_string (Rv_obs.Json.Obj fields))
  + 64 (* node + table slot overhead, approximate *)

let add (t : t) key fields =
  if t.capacity > 0 then begin
    Mutex.lock t.lock;
    (match Hashtbl.find_opt t.tbl key with
    | Some old -> remove t old
    | None -> ());
    let n = { key; fields; size = entry_size key fields; prev = None; next = None } in
    Hashtbl.replace t.tbl key n;
    push_front t n;
    t.bytes <- t.bytes + n.size;
    evict_over_budget t;
    Mutex.unlock t.lock
  end

let stats (t : t) =
  Mutex.lock t.lock;
  let s : stats =
    {
      entries = Hashtbl.length t.tbl;
      bytes = t.bytes;
      capacity = t.capacity;
      evictions = t.evictions;
    }
  in
  Mutex.unlock t.lock;
  s
