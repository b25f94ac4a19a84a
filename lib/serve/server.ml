module Json = Rv_obs.Json
module Counter = Rv_obs.Counter
module Histogram = Rv_obs.Histogram
module Window = Rv_obs.Window
module Gc_snapshot = Rv_obs.Gc_snapshot
module Prom = Rv_obs.Export_prometheus
module Obs = Rv_obs.Obs

type config = {
  host : string;
  port : int;
  jobs : int;
  cache_bytes : int;
  queue_cap : int;
  default_deadline_ms : int option;
  index_path : string option;
  index_backfill : bool;
  backfill_flush_s : float;
  telemetry : bool;
  recorder_cap : int;
  slow_us : int;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    jobs = 1;
    cache_bytes = 8 * 1024 * 1024;
    queue_cap = 64;
    default_deadline_ms = None;
    index_path = None;
    index_backfill = false;
    backfill_flush_s = 5.0;
    telemetry = true;
    recorder_cap = 256;
    slow_us = 10_000;
  }

(* One accepted client.  [inflight] counts jobs handed to the dispatcher
   whose replies have not been written yet; the connection thread waits
   for it to reach zero before closing the socket, so the dispatcher
   never writes to a recycled file descriptor. *)
type conn = {
  fd : Unix.file_descr;
  oc : out_channel;
  wlock : Mutex.t;
  inflight : int Atomic.t;
  dead : bool Atomic.t;
      (** set on the first failed reply write (EPIPE / short write after
          an abrupt client disconnect): later writes are skipped and the
          reader loop exits at the next frame boundary *)
}

type job = {
  j_id : int option;
  j_key : string;
  j_query : Proto.query;
  j_deadline_us : float option;
  j_sp : Rspan.t;
  j_conn : conn;
}

(* Request counters, one atomic slot each in the server's [counts]. *)
type counter =
  | Requests | Ok_replies | Error_replies | Bad_request | Overloaded
  | Deadline_exceeded | Write_failures | Cache_hits | Cache_misses
  | Index_hits | Index_misses | Index_backfilled

let slot = function
  | Requests -> 0
  | Ok_replies -> 1
  | Error_replies -> 2
  | Bad_request -> 3
  | Overloaded -> 4
  | Deadline_exceeded -> 5
  | Write_failures -> 6
  | Cache_hits -> 7
  | Cache_misses -> 8
  | Index_hits -> 9
  | Index_misses -> 10
  | Index_backfilled -> 11

(* One sliding latency window per (query kind, answer path).  Shed and
   errored replies get windows too, so the "all" aggregate — derived at
   read time with [Window.stats_many], leaving the hot path one observe
   — covers every query reply. *)
let window_kinds = [ "worst"; "run" ]
let window_paths = Rspan.[ Index; Cache; Sim; Shed; Error ]

let window_slot kind (path : Rspan.path) =
  let k = match kind with "worst" -> 0 | "run" -> 1 | _ -> -1 in
  let p =
    match path with
    | Index -> 0 | Cache -> 1 | Sim -> 2 | Shed -> 3 | Error -> 4 | _ -> -1
  in
  if k < 0 || p < 0 then -1 else (k * List.length window_paths) + p

type t = {
  cfg : config;
  lsock : Unix.file_descr;
  srv_port : int;
  cache : Cache.t;
  queue : job Admission.t;
  registry : Registry.t;
  pool : Rv_engine.Pool.t option;
  stop_flag : bool Atomic.t;
  joined : bool Atomic.t;
  conns_lock : Mutex.t;
  mutable conn_threads : Thread.t list;
  mutable acceptor : Thread.t option;
  mutable dispatcher : Thread.t option;
  started_us : float;
  (* Per-server state backs every metrics reply: the Rv_obs registries
     are process-global and tests run several servers in one process. *)
  counts : int Atomic.t array;  (** indexed by {!slot} *)
  h_latency : Histogram.t;
  h_queue_wait : Histogram.t;
  req_seq : int Atomic.t;
  windows : Window.t array;  (** indexed by {!window_slot} *)
  recorder : Recorder.t;
  (* The live index.  Swapped whole on reload/backfill; readers of a
     displaced generation keep answering from the old mapping, so a swap
     is never observable mid-lookup. *)
  index : Rv_index.Reader.t option Atomic.t;
  backfill_lock : Mutex.t;
  backfill_pending : (string, int array) Hashtbl.t;
  backfill_stop : bool Atomic.t;
  mutable backfill_thread : Thread.t option;
}

let port t = t.srv_port
let bump t c = Atomic.incr t.counts.(slot c)

(* --- writing ----------------------------------------------------------- *)

(* A failed reply write is a disconnect, not an error: the client left
   between request and reply (SIGPIPE is ignored process-wide at
   [start], so EPIPE and short writes surface here as exceptions).  The
   connection is marked dead — further replies are skipped, the reader
   loop exits at its next frame boundary and the normal teardown path
   unregisters the registry entry — and the write-failure counter
   records it.  The dispatcher never sees any of this. *)
let write_conn t conn line =
  if not (Atomic.get conn.dead) then begin
    (* rv_lint: allow R7 -- the per-connection write lock exists precisely
       to serialise whole reply frames onto the socket; holding it across
       the buffered write + flush is the framing guarantee, and it is
       per-connection, so one slow client stalls only itself *)
    Mutex.lock conn.wlock;
    (try
       output_string conn.oc line;
       output_char conn.oc '\n';
       flush conn.oc
     with Sys_error _ | Unix.Unix_error _ ->
       Atomic.set conn.dead true;
       bump t Write_failures);
    Mutex.unlock conn.wlock
  end

(* Slow means "used more than half its budget": half the request's
   deadline window when one was set, else the configured threshold. *)
let classify t sp ~code =
  match code with
  | Some Proto.Overloaded -> Recorder.Shed
  | Some _ -> Recorder.Errored
  | None ->
      let total = Rspan.total_us sp in
      let slow =
        match Rspan.deadline_us sp with
        | Some d -> float_of_int total > (d -. Rspan.recv_us sp) /. 2.
        | None -> total > t.cfg.slow_us
      in
      if slow then Recorder.Slow
      else
        match Rspan.path sp with
        | Sim when Option.is_some (Atomic.get t.index) -> Recorder.Index_fallback
        | _ -> Recorder.Healthy

let record_of sp ~status ~flag =
  let recv = Rspan.recv_us sp in
  {
    Recorder.rr_id = Rspan.id sp;
    rr_kind = Rspan.kind sp;
    rr_path = Rspan.path_name (Rspan.path sp);
    rr_status = status;
    rr_flag = flag;
    rr_recv_us = recv;
    rr_total_us = Rspan.total_us sp;
    rr_stages =
      List.map (fun (n, t0, t1) -> (n, t0 -. recv, t1 -. t0)) (Rspan.stages sp);
  }

(* Stamp completion; score the reply; feed the whole-process latency
   histogram (always) and — for query requests with telemetry on — the
   sliding windows and the flight recorder.  Admin probes stay out of
   both: they answer inline in microseconds and the `rv obs`
   poller's own scrapes must not flood the ring it is reading.  The
   answer path alone scores the index and cache counters, so a request
   walked down the answer chain twice (connection thread, then
   dispatcher) still counts one index outcome and one cache outcome. *)
let finalize t sp ~status ~code =
  let now_us = Clock.now_us () in
  Rspan.finish sp ~now_us;
  (match code with
  | None -> bump t Ok_replies
  | Some code -> (
      bump t Error_replies;
      match code with
      | Proto.Bad_request -> bump t Bad_request
      | Proto.Overloaded -> bump t Overloaded
      | Proto.Deadline_exceeded -> bump t Deadline_exceeded
      | Proto.Failed_rendezvous | Proto.Internal -> ()));
  let path = Rspan.path sp in
  (match path with
  | Cache | Sim | Shed when Option.is_some (Atomic.get t.index) ->
      bump t Index_misses
  | _ -> ());
  (match path with
  | Index -> bump t Index_hits
  | Cache -> bump t Cache_hits
  | Sim -> bump t Cache_misses
  | Shed | Admin | Error | Unresolved -> ());
  let total = Rspan.total_us sp in
  Histogram.observe_t t.h_latency total;
  let w = window_slot (Rspan.kind sp) path in
  if t.cfg.telemetry && w >= 0 then begin
    Window.observe t.windows.(w) ~now_s:(int_of_float (now_us /. 1e6)) total;
    Recorder.add t.recorder (record_of sp ~status ~flag:(classify t sp ~code))
  end

(* A debug reply carries the request's flight-recorder record, less the
   fields the reply itself already states. *)
let debug_fields sp =
  let r = record_of sp ~status:"" ~flag:Recorder.Healthy in
  let keep (k, _) =
    not (List.exists (String.equal k) [ "status"; "flag"; "recv_us" ])
  in
  [ ("debug", Json.Obj (List.filter keep (Recorder.to_fields r))) ]

(* Debug timing fields are appended at render time, after the cached /
   canonical field list — so they never enter the cache and replies
   without [debug:true] stay byte-identical across paths. *)
let reply_ok t conn ~sp ~id fields =
  finalize t sp ~status:"ok" ~code:None;
  let fields = if Rspan.debug sp then fields @ debug_fields sp else fields in
  write_conn t conn (Proto.ok_line ~id fields)

let reply_error t conn ~sp ~id ?extra code msg =
  (match (Rspan.path sp, code) with
  | Unresolved, Proto.Overloaded -> Rspan.set_path sp Shed
  | Unresolved, _ -> Rspan.set_path sp Error
  | _ -> ());
  finalize t sp ~status:(Proto.code_to_string code) ~code:(Some code);
  let extra =
    if Rspan.debug sp then Option.value extra ~default:[] @ debug_fields sp
    else Option.value extra ~default:[]
  in
  write_conn t conn (Proto.error_line ~id ~extra code msg)

(* --- index ------------------------------------------------------------- *)

(* The answer chain short of compute: baked index, then the LRU cache.
   The connection thread walks it first and queues a miss; the
   dispatcher walks it again before computing, since a backfill, a
   reload or a twin request may have answered the job while it queued.
   Sets the answer path on a hit; counting waits for [finalize].  An
   index hit re-renders through the same [Handler.fields_of_vals]
   printer the compute path uses, so the reply bytes cannot depend on
   which path answered; decode failures (stale kind tag, wrong width)
   are misses. *)
let answer t ?now_us sp q key =
  Rspan.stage_begin ?now_us sp "index";
  let from_index =
    match Atomic.get t.index with
    | None -> None
    | Some reader -> (
        match Rv_index.Reader.lookup reader key with
        | None -> None
        | Some values -> (
            match Handler.vals_of_values q values with
            | None -> None
            | Some v -> Some (Handler.fields_of_vals q v)))
  in
  Rspan.stage_end sp "index";
  match from_index with
  | Some _ ->
      Rspan.set_path sp Rspan.Index;
      from_index
  | None ->
      Rspan.stage_begin sp "cache";
      let from_cache = Cache.find t.cache key in
      Rspan.stage_end sp "cache";
      if Option.is_some from_cache then Rspan.set_path sp Rspan.Cache;
      from_cache

let reload_index t =
  match t.cfg.index_path with
  | None -> Error "no index path configured"
  | Some path -> (
      match Rv_index.Reader.open_ path with
      | Ok r ->
          Atomic.set t.index (Some r);
          Ok ()
      | Error msg -> Error msg)

(* Misses evaluated by the dispatcher accumulate here (bounded) until
   the backfill thread folds them, together with the current index's
   entries, into generation+1 and swaps the reader. *)
let backfill_cap = 4096

let note_backfill t key values =
  if t.cfg.index_backfill && Option.is_some t.cfg.index_path then begin
    Mutex.lock t.backfill_lock;
    if
      Hashtbl.length t.backfill_pending < backfill_cap
      && not (Hashtbl.mem t.backfill_pending key)
    then Hashtbl.add t.backfill_pending key values;
    Mutex.unlock t.backfill_lock
  end

let publish_backfill t =
  match t.cfg.index_path with
  | None -> ()
  | Some path -> (
      let pending =
        Mutex.lock t.backfill_lock;
        let kvs =
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.backfill_pending []
        in
        Hashtbl.reset t.backfill_pending;
        Mutex.unlock t.backfill_lock;
        (* Hashtbl fold order is unspecified; sort so the writer's input
           (and therefore the published file) is deterministic. *)
        List.sort (fun (a, _) (b, _) -> Rv_index.Key.compare a b) kvs
      in
      match pending with
      | [] -> ()
      | _ :: _ -> (
          let existing, generation, meta =
            match Atomic.get t.index with
            | Some r ->
                ( Rv_index.Reader.entries r,
                  Rv_index.Reader.generation r,
                  Rv_index.Reader.meta r )
            | None -> ([], 0, "rv_serve backfill")
          in
          let module SS = Set.Make (String) in
          let have =
            List.fold_left (fun s (k, _) -> SS.add k s) SS.empty existing
          in
          let fresh = List.filter (fun (k, _) -> not (SS.mem k have)) pending in
          match fresh with
          | [] -> ()
          | _ :: _ -> (
              match
                Rv_index.Writer.write ~path ~generation:(generation + 1) ~meta
                  (existing @ fresh)
              with
              | Error msg ->
                  Printf.eprintf "rv serve: backfill write failed: %s\n%!" msg
              | Ok _ -> (
                  match Rv_index.Reader.open_ path with
                  | Error msg ->
                      Printf.eprintf "rv serve: backfill reload failed: %s\n%!"
                        msg
                  | Ok r ->
                      Atomic.set t.index (Some r);
                      ignore
                        (Atomic.fetch_and_add
                           t.counts.(slot Index_backfilled)
                           (List.length fresh))))))

let backfill_loop t =
  let interval =
    if t.cfg.backfill_flush_s > 0. then t.cfg.backfill_flush_s else 5.
  in
  (* Nap in small slices so a drain never waits long for the thread; no
     wall-clock reads needed, only accumulated sleep. *)
  let slice = 0.02 in
  let rec loop () =
    if not (Atomic.get t.backfill_stop) then begin
      let rec nap remaining =
        if remaining > 0. && not (Atomic.get t.backfill_stop) then begin
          Thread.delay (if remaining < slice then remaining else slice);
          nap (remaining -. slice)
        end
      in
      nap interval;
      if not (Atomic.get t.backfill_stop) then publish_backfill t;
      loop ()
    end
  in
  loop ()

(* --- metrics ----------------------------------------------------------- *)

(* Sliding-window horizons.  A cold-start or burst spike ages out of the
   percentiles after the horizon ([latency_count] / [latency_max_us]
   keep whole-process semantics: they are the monotone counters scrape
   checks rely on). *)
let horizons = [ ("10s", 10); ("1m", 60); ("5m", 300) ]

(* One reading of the state behind the gauges, taken once per reply so
   its fields agree with each other. *)
type snap = {
  now_us : float;
  cs : Cache.stats;
  gc : Gc_snapshot.t;
  live : Rv_index.Reader.t option;
  lat : Window.stats Lazy.t list;  (** the aggregate, per horizon *)
}

let snap t =
  let now_us = Clock.now_us () in
  let now_s = int_of_float (now_us /. 1e6) in
  {
    now_us;
    cs = Cache.stats t.cache;
    gc = Gc_snapshot.take ();
    live = Atomic.get t.index;
    lat =
      List.map
        (fun (_, horizon_s) ->
          lazy (Window.stats_many (Array.to_list t.windows) ~now_s ~horizon_s))
        horizons;
  }

(* The metric table: one row per metric, read at reply time.  [key] names
   it in JSON replies and [prom] in the Prometheus exposition (after
   [rv_serve_]; a [_total] suffix makes it a counter, anything else a
   gauge); [""] leaves it out of one or the other.  [health] is its
   position in the health reply (0 = absent); the metrics and version
   replies carry their rows in table order. *)
type row = {
  key : string;
  prom : string;
  help : string;
  health : int;
  metrics : bool;
  version : bool;
  read : read;
}

and read = Count of counter | Read of (t -> snap -> Json.t)

let row ?(prom = "") ?(help = "") ?(health = 0) ?(metrics = false)
    ?(version = false) key read =
  { key; prom; help; health; metrics; version; read }

let count c key help =
  row key (Count c) ~prom:(key ^ "_total") ~help ~metrics:true

let num f = Read (fun t s -> Json.Int (f t s))
let gc f = num (fun _ s -> f s.gc)
let index f = num (fun _ s -> Option.fold ~none:0 ~some:f s.live)

let window_rows =
  List.concat
    (List.mapi
       (fun h (tag, _) ->
         let stat ?(health = 0) name get =
           row ("lat" ^ tag ^ "_" ^ name) ~metrics:true
             ~health:(if String.equal tag "1m" then health else 0)
             (num (fun _ s -> get (Lazy.force (List.nth s.lat h))))
         in
         Window.
           [
             stat "count" (fun w -> w.w_count);
             stat "p50_us" ~health:10 (fun w -> w.w_p50);
             stat "p90_us" (fun w -> w.w_p90);
             stat "p99_us" ~health:11 (fun w -> w.w_p99);
             stat "max_us" (fun w -> w.w_max);
           ])
       horizons)

let rows =
  [
    count Requests "requests" "Requests received";
    count Ok_replies "ok" "Successful replies";
    count Error_replies "errors" "Error replies";
    count Bad_request "bad_request" "Malformed requests";
    count Overloaded "overloaded" "Requests shed by admission control";
    count Deadline_exceeded "deadline_exceeded" "Requests past their deadline";
    count Write_failures "write_failures"
      "Replies that failed to write (client disconnected first)";
    count Cache_hits "cache_hits" "LRU result-cache hits";
    count Cache_misses "cache_misses" "LRU result-cache misses";
    count Index_hits "index_hits" "Baked-index hits";
    count Index_misses "index_misses" "Baked-index misses";
    count Index_backfilled "index_backfilled" "Records added by backfill";
    row "draining" ~health:1
      (Read (fun t _ -> Json.Bool (Admission.draining t.queue)));
    row "queue_cap" ~health:3 (num (fun t _ -> t.cfg.queue_cap));
    row "jobs" ~health:4 (num (fun t _ -> max 1 t.cfg.jobs));
    row "pool_pending" ~health:5
      (num (fun t _ -> Option.fold ~none:0 ~some:Rv_engine.Pool.pending t.pool));
    row "active_connections" ~health:6 ~prom:"active_connections"
      ~help:"Open connections" (num (fun t _ -> Registry.active t.registry));
    row "total_connections" ~health:7 ~prom:"connections_total"
      ~help:"Connections accepted since start"
      (num (fun t _ -> Registry.total t.registry));
    row "cache_entries" ~health:8 ~metrics:true ~prom:"cache_entries"
      ~help:"LRU result-cache entries" (num (fun _ s -> s.cs.Cache.entries));
    row "cache_bytes" ~health:9 ~metrics:true ~prom:"cache_bytes"
      ~help:"LRU result-cache bytes" (num (fun _ s -> s.cs.Cache.bytes));
    row "cache_evictions" ~metrics:true ~prom:"cache_evictions_total"
      ~help:"LRU result-cache evictions"
      (num (fun _ s -> s.cs.Cache.evictions));
    row "queue_depth" ~health:2 ~metrics:true ~prom:"queue_depth"
      ~help:"Admission queue depth" (num (fun t _ -> Admission.depth t.queue));
    row "latency_count" ~metrics:true
      (num (fun t _ -> Histogram.count t.h_latency));
    row "latency_max_us" ~metrics:true
      (num (fun t _ -> Histogram.max_value t.h_latency));
    row "queue_wait_max_us" ~metrics:true
      (num (fun t _ -> Histogram.max_value t.h_queue_wait));
  ]
  @ window_rows
  @ [
      row "uptime_us" ~health:12
        (num (fun t s -> int_of_float (s.now_us -. t.started_us)));
      row "" ~prom:"uptime_seconds" ~help:"Seconds since server start"
        (num (fun t s -> int_of_float ((s.now_us -. t.started_us) /. 1e6)));
      row "index_loaded" ~health:13 ~version:true ~prom:"index_loaded"
        ~help:"1 when a baked index is mmapped"
        (Read (fun _ s -> Json.Bool (Option.is_some s.live)));
      row "index_generation" ~health:14 ~version:true ~prom:"index_generation"
        ~help:"Generation of the live index" (index Rv_index.Reader.generation);
      row "index_records" ~health:15 ~version:true ~prom:"index_records"
        ~help:"Records in the live index" (index Rv_index.Reader.record_count);
      row "" ~prom:"gc_minor_collections_total"
        ~help:"Minor GC collections (process)"
        (gc (fun g -> g.Gc_snapshot.minor_collections));
      row "" ~prom:"gc_major_collections_total"
        ~help:"Major GC collections (process)"
        (gc (fun g -> g.Gc_snapshot.major_collections));
      row "" ~prom:"gc_compactions_total" ~help:"Heap compactions (process)"
        (gc (fun g -> g.Gc_snapshot.compactions));
      row "" ~prom:"gc_heap_words" ~help:"Major heap size in words (process)"
        (gc (fun g -> g.Gc_snapshot.heap_words));
      row "" ~prom:"gc_top_heap_words"
        ~help:"Peak major heap size in words (process)"
        (gc (fun g -> g.Gc_snapshot.top_heap_words));
    ]

let counters =
  List.filter_map
    (fun r -> match r.read with Count c -> Some (r.key, c) | Read _ -> None)
    rows

let health_rows =
  List.filter (fun r -> r.health > 0) rows
  |> List.stable_sort (fun a b -> Int.compare a.health b.health)

let read t s r =
  match r.read with
  | Count c -> Json.Int (Atomic.get t.counts.(slot c))
  | Read f -> f t s

let json_fields t rows =
  let s = snap t in
  List.map (fun r -> (r.key, read t s r)) rows

(* --- Prometheus exposition --------------------------------------------- *)

let prometheus_body t =
  let s = snap t in
  let now_s = int_of_float (s.now_us /. 1e6) in
  let sample labels v = { Prom.labels; value = float_of_int v } in
  let scalar r =
    Prom.single ("rv_serve_" ^ r.prom) r.help
      (if String.ends_with ~suffix:"_total" r.prom then Prom.Counter_t
       else Prom.Gauge_t)
      (match read t s r with
      | Json.Bool b -> if b then 1. else 0.
      | Json.Int n -> float_of_int n
      | _ -> Float.nan)
  in
  (* (labels, stats) for the aggregate and every window, per horizon. *)
  let labels kind path tag = [ ("kind", kind); ("path", path); ("window", tag) ] in
  let windows =
    List.map2 (fun (tag, _) st -> (labels "all" "all" tag, Lazy.force st)) horizons s.lat
    @ List.concat_map
        (fun k ->
          List.concat_map
            (fun p ->
              let w = t.windows.(window_slot k p) in
              List.map
                (fun (tag, horizon_s) ->
                  ( labels k (Rspan.path_name p) tag,
                    Window.stats w ~now_s ~horizon_s ))
                horizons)
            window_paths)
        window_kinds
  in
  let family fname help typ samples =
    {
      Prom.fname;
      help;
      typ;
      samples = List.concat_map (fun (l, st) -> samples l st) windows;
    }
  in
  let healthy, flagged, _, _ = Recorder.counts t.recorder in
  Prom.render
    (List.filter_map
       (fun r -> if String.equal r.prom "" then None else Some (scalar r))
       rows
    @ [
        {
          Prom.fname = "rv_serve_recorder_records";
          help = "Flight-recorder occupancy by class";
          typ = Prom.Gauge_t;
          samples =
            [ sample [ ("class", "healthy") ] healthy;
              sample [ ("class", "flagged") ] flagged ];
        };
        family "rv_serve_latency_us"
          "Reply latency quantiles over sliding windows (log2-bucket upper \
           bounds)"
          Prom.Summary_t (fun l st ->
            let q quantile v = sample (("quantile", quantile) :: l) v in
            Window.[ q "0.5" st.w_p50; q "0.9" st.w_p90; q "0.99" st.w_p99 ]);
        family "rv_serve_latency_us_count"
          "Observations inside each sliding window" Prom.Gauge_t (fun l st ->
            [ sample l st.Window.w_count ]);
        family "rv_serve_latency_us_max"
          "Largest latency inside each sliding window" Prom.Gauge_t (fun l st ->
            [ sample l st.Window.w_max ]);
      ])

(* --- admin replies ----------------------------------------------------- *)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  m > 0 && go 0

let feature_flags () =
  let fs = [ Json.Str "traj-cache" ] in
  let fs =
    if
      contains_sub Build_meta.profile "tsan"
      || contains_sub Build_meta.context "tsan"
    then fs @ [ Json.Str "tsan" ]
    else fs
  in
  let fs =
    match Sys.getenv_opt "RV_NO_TRAJ" with
    | Some _ -> fs @ [ Json.Str "no-traj-env" ]
    | None -> fs
  in
  fs

let status typ = [ ("status", Json.Str "ok"); ("type", Json.Str typ) ]

let version_fields () =
  status "version"
  @ [
    ("version", Json.Str Build_meta.version);
    ("ocaml", Json.Str Build_meta.ocaml_version);
    ("profile", Json.Str Build_meta.profile);
    ("index_format", Json.Int Rv_index.Format.version);
    ("features", Json.List (feature_flags ()));
  ]

let obs_fields t { Proto.o_last } =
  let records = Recorder.records ~last:o_last t.recorder in
  let healthy, flagged, evicted_healthy, evicted_flagged =
    Recorder.counts t.recorder
  in
  status "obs"
  @ [
    ("telemetry", Json.Bool t.cfg.telemetry);
    ("recorder_cap", Json.Int (Recorder.cap t.recorder));
    ("healthy", Json.Int healthy);
    ("flagged", Json.Int flagged);
    ("evicted_healthy", Json.Int evicted_healthy);
    ("evicted_flagged", Json.Int evicted_flagged);
    ("records", Json.List (List.map Recorder.to_json records));
  ]

(* The transport is one JSON object per line, so the Prometheus text
   travels inside the reply as a ["body"] string — `rv obs`/smoke
   scripts unwrap it before handing it to promtool-style checks. *)
let admin_fields t = function
  | Proto.Health -> status "health" @ json_fields t health_rows
  | Proto.Metrics Proto.Fmt_json ->
      status "metrics" @ json_fields t (List.filter (fun r -> r.metrics) rows)
  | Proto.Metrics Proto.Fmt_prometheus ->
      status "metrics"
      @ [ ("format", Json.Str "prometheus"); ("body", Json.Str (prometheus_body t)) ]
  | Proto.Version ->
      version_fields () @ json_fields t (List.filter (fun r -> r.version) rows)
  | Proto.Obs q -> obs_fields t q

(* --- dispatcher -------------------------------------------------------- *)

(* rv_lint: allow R5 -- the queue stage opens on the connection thread
   (serve_line) and closes here once the dispatcher dequeues the job *)
let process t job =
  let conn = job.j_conn in
  let sp = job.j_sp in
  (* One clock read serves the queue-wait histogram, the queue stage's
     close and the index stage's open. *)
  let dequeued_us = Clock.now_us () in
  Rspan.stage_end ~now_us:dequeued_us sp "queue";
  Histogram.observe_t t.h_queue_wait
    (int_of_float (dequeued_us -. Rspan.recv_us sp));
  (match answer t ~now_us:dequeued_us sp job.j_query job.j_key with
  | Some fields -> reply_ok t conn ~sp ~id:job.j_id fields
  | None -> (
      Rspan.set_path sp Rspan.Sim;
      Rspan.stage_begin sp "compute";
      let result =
        Handler.eval_vals ?pool:t.pool ~deadline_us:job.j_deadline_us
          job.j_query
      in
      Rspan.stage_end sp "compute";
      match result with
      | Ok v ->
          let fields = Handler.fields_of_vals job.j_query v in
          Cache.add t.cache job.j_key fields;
          note_backfill t job.j_key (Handler.values_of_vals v);
          reply_ok t conn ~sp ~id:job.j_id fields
      | Error (code, msg, extra) ->
          reply_error t conn ~sp ~id:job.j_id ~extra code msg));
  Atomic.decr conn.inflight

let dispatch_loop t =
  let rec loop () =
    (* rv_lint: allow R7 -- Admission.pop's Condition.wait is the
       dispatcher's designed parking point when the queue is empty, not
       a stall while holding work *)
    match Admission.pop t.queue with
    | None -> ()
    | Some job ->
        process t job;
        loop ()
  in
  loop ()

(* --- connections ------------------------------------------------------- *)

let admin_kind = function
  | Proto.Health -> "health"
  | Proto.Metrics _ -> "metrics"
  | Proto.Version -> "version"
  | Proto.Obs _ -> "obs"

let serve_line t conn ~sp frame =
  bump t Requests;
  Obs.span ~cat:"serve" "serve.request" @@ fun () ->
  Rspan.stage_begin sp "parse";
  let parsed =
    match frame with
    | `Line line -> Proto.parse line
    | `Too_long ->
        Error (Printf.sprintf "request line exceeds %d bytes" Proto.max_line_len)
  in
  Rspan.stage_end sp "parse";
  match parsed with
  | Error msg ->
      Rspan.set_kind sp "invalid";
      reply_error t conn ~sp ~id:None Proto.Bad_request msg
  | Ok req -> (
      Rspan.set_debug sp req.Proto.debug;
      match req.Proto.body with
      | `Admin a ->
          Rspan.set_kind sp (admin_kind a);
          Rspan.set_path sp Rspan.Admin;
          reply_ok t conn ~sp ~id:req.Proto.id (admin_fields t a)
      | `Query q -> (
          let key = Proto.canonical_key q in
          Rspan.set_kind sp
            (match q with Proto.Worst _ -> "worst" | Proto.Run _ -> "run");
          (* Index lookups are pure reads of an immutable mapping and the
             cache is mutex-guarded, so hits answer here on the connection
             thread and skip the queue entirely. *)
          match answer t sp q key with
          | Some fields -> reply_ok t conn ~sp ~id:req.Proto.id fields
          | None -> (
              let deadline_us =
                match (req.Proto.deadline_ms, t.cfg.default_deadline_ms) with
                | Some ms, _ | None, Some ms ->
                    Some (Rspan.recv_us sp +. (float_of_int ms *. 1000.))
                | None, None -> None
              in
              (match deadline_us with
              | Some d -> Rspan.set_deadline_us sp d
              | None -> ());
              let job =
                {
                  j_id = req.Proto.id;
                  j_key = key;
                  j_query = q;
                  j_deadline_us = deadline_us;
                  j_sp = sp;
                  j_conn = conn;
                }
              in
              Atomic.incr conn.inflight;
              (* The queue stage closes in [process] once the dispatcher
                 picks the job up — or right here when admission sheds it. *)
              let shed reason =
                Atomic.decr conn.inflight;
                Rspan.stage_end sp "queue";
                reply_error t conn ~sp ~id:req.Proto.id Proto.Overloaded reason
              in
              Rspan.stage_begin sp "queue";
              match Admission.submit t.queue job with
              | `Accepted -> ()
              | `Overloaded -> shed "admission queue full"
              | `Draining -> shed "server draining")))

(* Bounded line reader: a hostile peer must not make us buffer an
   arbitrarily long line.  Overlong lines are consumed to their newline
   and reported, so the connection survives. *)
let read_line_bounded ic max_len =
  let b = Buffer.create 256 in
  let rec skip () =
    match input_char ic with
    | '\n' -> `Too_long
    | _ -> skip ()
    | exception (End_of_file | Sys_error _) -> `Too_long
  in
  let rec go () =
    match input_char ic with
    | '\n' -> `Line (Buffer.contents b)
    | c ->
        if Buffer.length b >= max_len then skip ()
        else begin
          Buffer.add_char b c;
          go ()
        end
    | exception End_of_file ->
        if Buffer.length b = 0 then `Eof else `Line (Buffer.contents b)
    | exception Sys_error _ -> `Eof
  in
  go ()

let handle_conn t fd =
  match
    (* Channels before registration: if the descriptor is unusable there
       is nothing to serve and nothing may be left in the registry. *)
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    (ic, oc)
  with
  | exception _ -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | ic, oc ->
  let token = Registry.register t.registry fd in
  let conn =
    {
      fd;
      oc;
      wlock = Mutex.create ();
      inflight = Atomic.make 0;
      dead = Atomic.make false;
    }
  in
  Fun.protect
    ~finally:(fun () ->
      Registry.unregister t.registry token;
      (* Wait for the dispatcher to write any outstanding replies before
         tearing the descriptor down. *)
      let rec settle n =
        if Atomic.get conn.inflight > 0 then begin
          if n < 64 then Thread.yield () else Thread.delay 0.001;
          settle (n + 1)
        end
      in
      settle 0;
      (* Exactly one close for the one descriptor both channels share:
         close_out followed by close_in is a double close, and under
         connection churn the kernel reuses the number between the two —
         the second close would tear down a stranger's brand-new
         connection (the soak harness catches this as a stuck registry
         entry on the victim). *)
      (try flush conn.oc with Sys_error _ -> ());
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let rec loop () =
        if Atomic.get conn.dead then ()
        else
        match read_line_bounded ic Proto.max_line_len with
        | `Eof -> ()
        | (`Line _ | `Too_long) as frame ->
            let sp =
              Rspan.create
                ~id:(Atomic.fetch_and_add t.req_seq 1)
                ~recv_us:(Clock.now_us ()) ~enabled:t.cfg.telemetry ()
            in
            (try serve_line t conn ~sp frame
             with exn ->
               reply_error t conn ~sp ~id:None Proto.Internal
                 (Printexc.to_string exn));
            loop ()
      in
      loop ())

(* --- acceptor ---------------------------------------------------------- *)

let accept_loop t =
  let rec loop () =
    match Unix.accept t.lsock with
    | fd, _ ->
        let th =
          Thread.create
            (fun () ->
              (* A dying conn thread must not take the runtime's default
                 uncaught-exception path: it would skip no cleanup (the
                 handler's [Fun.protect] already ran or never started)
                 but floods stderr mid-drain. *)
              try handle_conn t fd with _ -> ())
            ()
        in
        Mutex.lock t.conns_lock;
        t.conn_threads <- th :: t.conn_threads;
        Mutex.unlock t.conns_lock;
        loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        if Atomic.get t.stop_flag then () else loop ()
    | exception Unix.Unix_error _ ->
        (* [request_stop] shut the listening socket down; any other
           accept failure backs off briefly and retries. *)
        if Atomic.get t.stop_flag then ()
        else begin
          Thread.delay 0.01;
          loop ()
        end
  in
  loop ()

(* --- lifecycle --------------------------------------------------------- *)

let drain_signals = [ Sys.sigint; Sys.sigterm ]
let watched_signals = Sys.sighup :: drain_signals

let start cfg =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Every thread (and pool domain) spawned below inherits a mask with
     the watched signals blocked, so the kernel can never pick one of
     them for delivery — {!install_signals}' watcher is then the only
     receiver.  The caller's own mask is restored on the way out. *)
  let old_mask = Thread.sigmask Unix.SIG_BLOCK watched_signals in
  Fun.protect
    ~finally:(fun () -> ignore (Thread.sigmask Unix.SIG_SETMASK old_mask))
  @@ fun () ->
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt lsock Unix.SO_REUSEADDR true;
     Unix.bind lsock
       (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
     Unix.listen lsock 128
   with exn ->
     (try Unix.close lsock with Unix.Unix_error _ -> ());
     raise exn);
  let srv_port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> cfg.port
  in
  let pool =
    if cfg.jobs > 1 then Some (Rv_engine.Pool.create ~jobs:cfg.jobs ())
    else None
  in
  let t =
    {
      cfg;
      lsock;
      srv_port;
      cache = Cache.create ~max_bytes:cfg.cache_bytes;
      queue = Admission.create ~cap:cfg.queue_cap;
      registry = Registry.create ();
      pool;
      stop_flag = Atomic.make false;
      joined = Atomic.make false;
      conns_lock = Mutex.create ();
      conn_threads = [];
      acceptor = None;
      dispatcher = None;
      started_us = Clock.now_us ();
      counts = Array.init (List.length counters) (fun _ -> Atomic.make 0);
      h_latency = Histogram.find "serve.latency_us";
      h_queue_wait = Histogram.find "serve.queue_wait_us";
      req_seq = Atomic.make 0;
      windows =
        Array.init
          (List.length window_kinds * List.length window_paths)
          (fun _ -> Window.create "serve.latency");
      recorder = Recorder.create ~cap:cfg.recorder_cap ();
      index = Atomic.make None;
      backfill_lock = Mutex.create ();
      backfill_pending = Hashtbl.create 64;
      backfill_stop = Atomic.make false;
      backfill_thread = None;
    }
  in
  (* A missing or corrupt index is a degraded start, not a failed one:
     every query still computes, only slower. *)
  (match cfg.index_path with
  | None -> ()
  | Some path -> (
      match Rv_index.Reader.open_ path with
      | Ok r -> Atomic.set t.index (Some r)
      | Error msg ->
          Printf.eprintf
            "rv serve: index not loaded (%s); serving without it\n%!" msg));
  if cfg.index_backfill && Option.is_some cfg.index_path then
    t.backfill_thread <- Some (Thread.create backfill_loop t);
  t.acceptor <- Some (Thread.create accept_loop t);
  t.dispatcher <- Some (Thread.create dispatch_loop t);
  t

let request_stop t =
  if Atomic.compare_and_set t.stop_flag false true then
    (* Wakes the blocked [accept]; Linux returns [EINVAL] from [accept]
       after [shutdown] on a listening socket. *)
    try Unix.shutdown t.lsock Unix.SHUTDOWN_ALL
    with Unix.Unix_error _ | Invalid_argument _ -> ()

let join t =
  if Atomic.compare_and_set t.joined false true then begin
    (match t.acceptor with Some th -> Thread.join th | None -> ());
    (try Unix.close t.lsock with Unix.Unix_error _ -> ());
    (* Admitted jobs finish and their responses are written before any
       connection is torn down. *)
    Admission.drain t.queue;
    (match t.dispatcher with Some th -> Thread.join th | None -> ());
    (* The dispatcher has stopped feeding the pending table; one final
       publish persists whatever the last interval accumulated. *)
    Atomic.set t.backfill_stop true;
    (match t.backfill_thread with Some th -> Thread.join th | None -> ());
    if t.cfg.index_backfill then publish_backfill t;
    Registry.shutdown_all t.registry;
    let conns =
      Mutex.lock t.conns_lock;
      let c = t.conn_threads in
      Mutex.unlock t.conns_lock;
      c
    in
    List.iter Thread.join conns;
    (match t.pool with Some p -> Rv_engine.Pool.shutdown p | None -> ());
    (* `rv serve --metrics` prints the process-global counters; add this
       server's totals to them. *)
    List.iter
      (fun (key, c) ->
        Counter.add (Counter.find ("serve." ^ key)) (Atomic.get t.counts.(slot c)))
      counters
  end

let stop t =
  request_stop t;
  join t

(* [Sys.Signal_handle] handlers do not run while every thread is parked
   in a blocking section (observed on OCaml 5.1: a handler installed
   before [Thread.join] never fires), so signals are delivered the
   reliable way: masked everywhere, consumed by a dedicated
   [Thread.wait_signal] watcher.  SIGHUP reloads the index in place;
   SIGINT/SIGTERM begin the drain. *)
let install_signals t =
  ignore (Thread.sigmask Unix.SIG_BLOCK watched_signals);
  ignore
    (Thread.create
       (fun () ->
         let rec watch () =
           let s = Thread.wait_signal watched_signals in
           if s = Sys.sighup then begin
             (match reload_index t with
             | Ok () ->
                 let generation =
                   match Atomic.get t.index with
                   | Some r -> Rv_index.Reader.generation r
                   | None -> 0
                 in
                 Printf.eprintf "rv serve: index reloaded (generation %d)\n%!"
                   generation
             | Error msg ->
                 Printf.eprintf "rv serve: index reload failed: %s\n%!" msg);
             watch ()
           end
           else request_stop t
         in
         watch ();
         (* A second INT/TERM abandons the drain. *)
         ignore (Thread.wait_signal drain_signals);
         exit 1)
       ())
