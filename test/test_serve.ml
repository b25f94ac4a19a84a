(* End-to-end tests for rv_serve over a real loopback socket: a server
   per test on an ephemeral port, driven through actual TCP connections.
   Unit tests for the cache / admission / proto layers ride along. *)

module Json = Rv_obs.Json
module Proto = Rv_serve.Proto
module Server = Rv_serve.Server
module Cache = Rv_serve.Cache
module Admission = Rv_serve.Admission
module Loadgen = Rv_serve.Loadgen
module Handler = Rv_serve.Handler
module Recorder = Rv_serve.Recorder
module R = Rv_core.Rendezvous
module Spec = Rv_experiments.Spec

let tc name f = Alcotest.test_case name `Quick f

(* --- harness ----------------------------------------------------------- *)

let with_server ?(jobs = 1) ?(cache_bytes = 1024 * 1024) ?(queue_cap = 64)
    ?default_deadline_ms ?index_path ?(index_backfill = false)
    ?(backfill_flush_s = 5.0) ?(telemetry = true)
    ?(recorder_cap = Server.default_config.Server.recorder_cap)
    ?(slow_us = Server.default_config.Server.slow_us) f =
  let server =
    Server.start
      {
        Server.default_config with
        jobs;
        cache_bytes;
        queue_cap;
        default_deadline_ms;
        index_path;
        index_backfill;
        backfill_flush_s;
        telemetry;
        recorder_cap;
        slow_us;
      }
  in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server)

type client = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect server =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close_client c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let recv c = input_line c.ic

let rpc c line =
  send c line;
  recv c

let with_client server f =
  let c = connect server in
  Fun.protect ~finally:(fun () -> close_client c) (fun () -> f c)

let get path reply =
  match Json.parse reply with
  | Error e -> Alcotest.failf "unparseable reply %s: %s" reply e
  | Ok j -> (
      match Json.member path j with
      | Some v -> v
      | None -> Alcotest.failf "reply lacks %S: %s" path reply)

let get_int path reply =
  match Json.to_int (get path reply) with
  | Some i -> i
  | None -> Alcotest.failf "field %S is not an int: %s" path reply

let get_str path reply =
  match Json.to_str (get path reply) with
  | Some s -> s
  | None -> Alcotest.failf "field %S is not a string: %s" path reply

let check_ok reply = Alcotest.(check string) "status ok" "ok" (get_str "status" reply)

let check_error code reply =
  Alcotest.(check string) "status error" "error" (get_str "status" reply);
  Alcotest.(check string) "error code" code (get_str "code" reply)

(* --- end-to-end correctness -------------------------------------------- *)

let run_query_matches_direct () =
  with_server @@ fun server ->
  with_client server @@ fun c ->
  let reply =
    rpc c
      {|{"type":"run","id":3,"graph":"ring:10","algorithm":"fast","space":8,"label_a":3,"label_b":5,"start_a":0,"start_b":4}|}
  in
  check_ok reply;
  (* Field-for-field against a direct simulation. *)
  let gs = Result.get_ok (Spec.parse_graph "ring:10") in
  let ex = Result.get_ok (Spec.parse_explorer gs "auto") in
  let out =
    R.run ~g:gs.Spec.g ~explorer:ex ~algorithm:R.Fast ~space:8
      { R.label = 3; start = 0; delay = 0 }
      { R.label = 5; start = 4; delay = 0 }
  in
  Alcotest.(check int) "id echoed" 3 (get_int "id" reply);
  Alcotest.(check bool) "met" out.Rv_sim.Sim.met
    (match get "met" reply with Json.Bool b -> b | _ -> false);
  Alcotest.(check int) "time" (Rv_sim.Sim.time out) (get_int "time" reply);
  Alcotest.(check int) "cost" out.Rv_sim.Sim.cost (get_int "cost" reply);
  Alcotest.(check int) "cost_a" out.Rv_sim.Sim.cost_a (get_int "cost_a" reply);
  Alcotest.(check int) "cost_b" out.Rv_sim.Sim.cost_b (get_int "cost_b" reply);
  Alcotest.(check int) "rounds_run" out.Rv_sim.Sim.rounds_run
    (get_int "rounds_run" reply);
  let e = Rv_experiments.Workload.e_of ex in
  Alcotest.(check int) "proven_time"
    (R.proven_time_bound R.Fast ~e ~space:8)
    (get_int "proven_time" reply);
  Alcotest.(check int) "proven_cost"
    (R.proven_cost_bound R.Fast ~e ~space:8)
    (get_int "proven_cost" reply)

let worst_query_matches_direct () =
  with_server @@ fun server ->
  with_client server @@ fun c ->
  let reply =
    rpc c
      {|{"type":"worst","graph":"ring:8","algorithm":"cheap","space":8,"pairs":4,"max_delay":6}|}
  in
  check_ok reply;
  (* Mirror the handler's sweep directly (same pair sampling, same delay
     derivation for a delay-tolerant algorithm). *)
  let gs = Result.get_ok (Spec.parse_graph "ring:8") in
  let ex = Result.get_ok (Spec.parse_explorer gs "auto") in
  let pairs = Rv_experiments.Workload.sample_pairs ~space:8 ~max_pairs:4 in
  let delays =
    List.sort_uniq
      Rv_util.Ord.(pair int int)
      [ (0, 0); (0, 1); (0, 6); (1, 0); (6, 0) ]
  in
  let wt, wc =
    Result.get_ok
      (Rv_experiments.Workload.worst_for ~graph_spec:"ring:8" ~g:gs.Spec.g
         ~algorithm:R.Cheap ~space:8 ~explorer:ex ~pairs
         ~positions:`Fixed_first ~delays ())
  in
  Alcotest.(check int) "worst time" wt (get_int "time" reply);
  Alcotest.(check int) "worst cost" wc (get_int "cost" reply);
  Alcotest.(check int) "pairs_swept" (List.length pairs)
    (get_int "pairs_swept" reply);
  Alcotest.(check int) "delays_swept" (List.length delays)
    (get_int "delays_swept" reply)

let antipode_default_start () =
  with_server @@ fun server ->
  with_client server @@ fun c ->
  let reply =
    rpc c {|{"type":"run","graph":"ring:12","algorithm":"cheap","label_a":1,"label_b":2}|}
  in
  check_ok reply;
  Alcotest.(check int) "start_b defaults to the antipode" 6
    (get_int "start_b" reply)

(* --- cache ------------------------------------------------------------- *)

let cache_hit_on_repeat () =
  with_server @@ fun server ->
  with_client server @@ fun c ->
  let q = {|{"type":"worst","graph":"ring:6","algorithm":"cheap","space":8,"pairs":4}|} in
  let first = rpc c q in
  check_ok first;
  let m1 = rpc c {|{"type":"metrics"}|} in
  let second = rpc c q in
  let m2 = rpc c {|{"type":"metrics"}|} in
  Alcotest.(check string) "byte-identical on repeat" first second;
  Alcotest.(check int) "one more cache hit"
    (get_int "cache_hits" m1 + 1)
    (get_int "cache_hits" m2);
  Alcotest.(check int) "no more misses" (get_int "cache_misses" m1)
    (get_int "cache_misses" m2);
  (* Same question under a different id: cache hit, different id echo. *)
  let third =
    rpc c
      {|{"type":"worst","id":42,"graph":"ring:6","algorithm":"cheap","space":8,"pairs":4}|}
  in
  check_ok third;
  Alcotest.(check int) "id echoed on cached reply" 42 (get_int "id" third)

let cache_disabled_identical_bytes () =
  (* The same stream with the cache off answers byte-identically. *)
  let qs =
    [
      {|{"type":"worst","id":0,"graph":"ring:6","algorithm":"cheap","space":8,"pairs":4}|};
      {|{"type":"worst","id":1,"graph":"ring:6","algorithm":"cheap","space":8,"pairs":4}|};
      {|{"type":"run","id":2,"graph":"ring:8","algorithm":"fast","space":8,"label_a":1,"label_b":3}|};
      {|{"type":"run","id":3,"graph":"ring:8","algorithm":"fast","space":8,"label_a":1,"label_b":3}|};
    ]
  in
  let drive ~cache_bytes =
    with_server ~cache_bytes @@ fun server ->
    with_client server @@ fun c -> List.map (rpc c) qs
  in
  let cached = drive ~cache_bytes:(1024 * 1024) in
  let uncached = drive ~cache_bytes:0 in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check string) (Printf.sprintf "reply %d identical" i) a b)
    (List.combine cached uncached)

(* --- resilience -------------------------------------------------------- *)

let malformed_input_keeps_connection () =
  with_server @@ fun server ->
  with_client server @@ fun c ->
  check_error "bad_request" (rpc c "this is not json");
  check_error "bad_request" (rpc c {|[1,2,3]|});
  check_error "bad_request" (rpc c {|{"type":"teleport"}|});
  check_error "bad_request" (rpc c {|{"type":"run","graph":"ring:8"}|});
  check_error "bad_request"
    (rpc c {|{"type":"run","graph":"ring:8","algorithm":"cheap","label_a":1,"label_b":2,"surprise":1}|});
  check_error "bad_request"
    (rpc c {|{"type":"worst","graph":"file:/etc/passwd","algorithm":"cheap"}|});
  check_error "bad_request"
    (rpc c {|{"type":"run","graph":"ring:8","algorithm":"cheap","label_a":1,"label_b":1}|});
  (* ... and the connection still answers real queries afterwards. *)
  let reply =
    rpc c {|{"type":"run","graph":"ring:8","algorithm":"cheap","label_a":1,"label_b":2}|}
  in
  check_ok reply

let oversized_line_keeps_connection () =
  with_server @@ fun server ->
  with_client server @@ fun c ->
  let huge = String.make (Proto.max_line_len + 64) 'x' in
  check_error "bad_request" (rpc c huge);
  check_ok (rpc c {|{"type":"health"}|})

(* --- admission control ------------------------------------------------- *)

let queue_full_overloaded () =
  (* Capacity 0 sheds every uncached query deterministically. *)
  with_server ~queue_cap:0 @@ fun server ->
  with_client server @@ fun c ->
  let reply =
    rpc c {|{"type":"run","id":9,"graph":"ring:8","algorithm":"cheap","label_a":1,"label_b":2}|}
  in
  check_error "overloaded" reply;
  Alcotest.(check int) "id echoed on overload" 9 (get_int "id" reply);
  (* Admin probes bypass the queue and still answer. *)
  check_ok (rpc c {|{"type":"health"}|});
  let m = rpc c {|{"type":"metrics"}|} in
  Alcotest.(check int) "overload counted" 1 (get_int "overloaded" m)

let queue_contention_overloads_some () =
  (* Capacity 1 with a pile of pipelined distinct requests: at least one
     is shed, admitted ones all complete. *)
  with_server ~queue_cap:1 @@ fun server ->
  with_client server @@ fun c ->
  let n = 16 in
  for i = 0 to n - 1 do
    send c
      (Printf.sprintf
         {|{"type":"run","id":%d,"graph":"ring:16","algorithm":"fast","space":16,"label_a":%d,"label_b":%d}|}
         i ((i mod 8) + 1) (((i + 1) mod 8) + 2))
  done;
  let replies = List.init n (fun _ -> recv c) in
  let ok = List.filter (fun r -> String.equal (get_str "status" r) "ok") replies in
  let over =
    List.filter
      (fun r ->
        String.equal (get_str "status" r) "error"
        && String.equal (get_str "code" r) "overloaded")
      replies
  in
  Alcotest.(check int) "every reply is ok or overloaded" n
    (List.length ok + List.length over);
  Alcotest.(check bool) "some requests served" true (List.length ok > 0);
  Alcotest.(check bool) "some requests shed" true (List.length over > 0)

(* --- deadlines --------------------------------------------------------- *)

let deadline_exceeded_in_queue () =
  with_server @@ fun server ->
  with_client server @@ fun c ->
  (* A compute-bound request occupies the dispatcher... *)
  send c
    {|{"type":"worst","id":0,"graph":"ring:24","algorithm":"fast","space":64,"pairs":16}|};
  (* ...so this one's 1ms budget burns away in the queue. *)
  send c
    {|{"type":"worst","id":1,"deadline_ms":1,"graph":"ring:12","algorithm":"cheap","space":8,"pairs":4}|};
  let r0 = recv c in
  let r1 = recv c in
  check_ok r0;
  check_error "deadline_exceeded" r1;
  Alcotest.(check int) "id echoed" 1 (get_int "id" r1);
  Alcotest.(check int) "no pairs completed" 0 (get_int "pairs_done" r1);
  Alcotest.(check int) "total reported" (get_int "pairs_total" r1)
    (get_int "pairs_total" r1);
  let m = rpc c {|{"type":"metrics"}|} in
  Alcotest.(check int) "deadline counted" 1 (get_int "deadline_exceeded" m)

let default_deadline_applies () =
  with_server ~default_deadline_ms:1 @@ fun server ->
  with_client server @@ fun c ->
  (* Burn the dispatcher so the probe's default budget expires in queue. *)
  send c
    {|{"type":"worst","id":0,"deadline_ms":60000,"graph":"ring:24","algorithm":"fast","space":64,"pairs":16}|};
  send c
    {|{"type":"run","id":1,"graph":"ring:8","algorithm":"cheap","label_a":1,"label_b":2}|};
  let r0 = recv c in
  let r1 = recv c in
  check_ok r0;
  check_error "deadline_exceeded" r1

(* --- graceful drain ---------------------------------------------------- *)

let drain_completes_in_flight () =
  let server =
    Server.start { Server.default_config with jobs = 1; queue_cap = 64 }
  in
  let c = connect server in
  let n = 6 in
  for i = 0 to n - 1 do
    send c
      (Printf.sprintf
         {|{"type":"run","id":%d,"graph":"ring:12","algorithm":"fast","space":8,"label_a":%d,"label_b":%d}|}
         i (i + 1) (i + 2))
  done;
  (* Give the connection thread time to admit all six, then drain. *)
  Thread.delay 0.3;
  Server.stop server;
  (* Every admitted request was answered before the socket closed. *)
  let replies = List.init n (fun _ -> recv c) in
  List.iteri
    (fun i r ->
      check_ok r;
      Alcotest.(check int) (Printf.sprintf "id %d" i) i (get_int "id" r))
    replies;
  (match input_line c.ic with
  | line -> Alcotest.failf "expected EOF after drain, got %s" line
  | exception End_of_file -> ());
  close_client c

let stop_is_idempotent () =
  let server = Server.start Server.default_config in
  Server.stop server;
  Server.stop server;
  Server.request_stop server;
  Server.join server

(* --- determinism across jobs ------------------------------------------- *)

let loadgen_deterministic_j1_j2_cache () =
  let transcript ~jobs ~cache_bytes =
    with_server ~jobs ~cache_bytes @@ fun server ->
    match
      Loadgen.run ~port:(Server.port server) ~conns:3 ~requests:60 ~seed:7
        ~mix:Loadgen.Mixed ()
    with
    | Error e -> Alcotest.fail e
    | Ok s ->
        Alcotest.(check int) "all ok" 60 s.Loadgen.ok;
        s.Loadgen.transcript
  in
  let a = transcript ~jobs:1 ~cache_bytes:(1024 * 1024) in
  let b = transcript ~jobs:2 ~cache_bytes:(1024 * 1024) in
  let d = transcript ~jobs:1 ~cache_bytes:0 in
  Alcotest.(check (list string)) "-j1 == -j2" a b;
  Alcotest.(check (list string)) "cache on == cache off" a d

(* --- admin ------------------------------------------------------------- *)

let health_and_version () =
  with_server ~jobs:2 ~queue_cap:17 @@ fun server ->
  with_client server @@ fun c ->
  let h = rpc c {|{"type":"health"}|} in
  check_ok h;
  Alcotest.(check string) "health type" "health" (get_str "type" h);
  Alcotest.(check int) "queue cap" 17 (get_int "queue_cap" h);
  Alcotest.(check int) "jobs" 2 (get_int "jobs" h);
  Alcotest.(check bool) "not draining" false
    (match get "draining" h with Json.Bool b -> b | _ -> true);
  Alcotest.(check bool) "connections counted" true
    (get_int "active_connections" h >= 1);
  let v = rpc c {|{"type":"version","id":5}|} in
  check_ok v;
  Alcotest.(check int) "id echoed" 5 (get_int "id" v);
  Alcotest.(check bool) "version nonempty" true
    (String.length (get_str "version" v) > 0);
  Alcotest.(check bool) "ocaml version present" true
    (String.length (get_str "ocaml" v) > 0)

(* --- unit: proto ------------------------------------------------------- *)

let proto_parse_and_keys () =
  (* Defaults are made explicit in the canonical key. *)
  let p line =
    match Proto.parse line with
    | Ok { Proto.body = `Query q; _ } -> q
    | Ok _ -> Alcotest.failf "expected a query: %s" line
    | Error e -> Alcotest.failf "parse %s: %s" line e
  in
  let k1 = Proto.canonical_key (p {|{"type":"worst","graph":"ring:8","algorithm":"cheap"}|}) in
  let k2 =
    Proto.canonical_key
      (p
         {|{"type":"worst","id":9,"deadline_ms":500,"graph":"ring:8","algorithm":"cheap","explorer":"auto","space":16,"pairs":8,"max_delay":8}|})
  in
  Alcotest.(check string) "defaults explicit; id/deadline excluded" k1 k2;
  let k3 = Proto.canonical_key (p {|{"type":"worst","graph":"ring:8","algorithm":"cheap","space":8}|}) in
  Alcotest.(check bool) "different space, different key" true
    (not (String.equal k1 k3));
  (* Bad requests never raise. *)
  List.iter
    (fun line ->
      match Proto.parse line with
      | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" line
      | Error e ->
          Alcotest.(check bool) "message nonempty" true (String.length e > 0)
      | exception e ->
          Alcotest.failf "parse %S raised %s" line (Printexc.to_string e))
    [
      {|{"type":"worst"}|};
      {|{"type":"worst","graph":"ring:8","algorithm":"cheap","space":1}|};
      {|{"type":"worst","graph":"ring:8","algorithm":"cheap","space":999999999}|};
      {|{"type":"worst","graph":"ring:8","algorithm":"cheap","pairs":0}|};
      {|{"type":"run","graph":"ring:8","algorithm":"cheap","label_a":0,"label_b":2}|};
      {|{"type":"run","graph":"ring:8","algorithm":"cheap","label_a":1,"label_b":2,"delay_a":-1}|};
      {|{"type":"run","graph":"ring:8","algorithm":"cheap","label_a":1,"label_b":2,"model":"sideways"}|};
      {|{"type":"run","graph":"ring:8","algorithm":"cheap","label_a":1,"label_b":2,"label_a":3}|};
      {|{"type":"health","extra":true}|};
      {|{"deadline_ms":0,"type":"health"}|};
      {|{"id":-1,"type":"health"}|};
      "";
      "null";
      "42";
    ]

(* --- unit: cache ------------------------------------------------------- *)

let cache_lru_eviction () =
  let fields n = [ ("status", Json.Str "ok"); ("n", Json.Int n) ] in
  (* Budget for roughly two entries. *)
  let entry = String.length (Json.to_string (Json.Obj (fields 0))) + 3 + 64 in
  let c = Cache.create ~max_bytes:(2 * entry) in
  Cache.add c "aaa" (fields 1);
  Cache.add c "bbb" (fields 2);
  Alcotest.(check bool) "aaa present" true (Option.is_some (Cache.find c "aaa"));
  (* aaa is now most-recent; inserting ccc evicts bbb. *)
  Cache.add c "ccc" (fields 3);
  Alcotest.(check bool) "bbb evicted" true (Option.is_none (Cache.find c "bbb"));
  Alcotest.(check bool) "aaa survived" true (Option.is_some (Cache.find c "aaa"));
  Alcotest.(check bool) "ccc present" true (Option.is_some (Cache.find c "ccc"));
  let s = Cache.stats c in
  Alcotest.(check int) "entries" 2 s.Cache.entries;
  Alcotest.(check int) "evictions" 1 s.Cache.evictions;
  Alcotest.(check bool) "bytes within budget" true (s.Cache.bytes <= s.Cache.capacity)

let cache_replace_same_key () =
  let c = Cache.create ~max_bytes:(1024 * 1024) in
  Cache.add c "k" [ ("v", Json.Int 1) ];
  Cache.add c "k" [ ("v", Json.Int 2) ];
  (match Cache.find c "k" with
  | Some [ ("v", Json.Int 2) ] -> ()
  | other ->
      Alcotest.failf "expected replaced value, got %s"
        (match other with
        | Some fs -> Json.to_string (Json.Obj fs)
        | None -> "nothing"));
  Alcotest.(check int) "one entry" 1 (Cache.stats c).Cache.entries

let cache_zero_capacity () =
  let c = Cache.create ~max_bytes:0 in
  Cache.add c "k" [ ("v", Json.Int 1) ];
  Alcotest.(check bool) "never stores" true (Option.is_none (Cache.find c "k"));
  Alcotest.(check int) "no entries" 0 (Cache.stats c).Cache.entries

(* --- unit: admission --------------------------------------------------- *)

let admission_basics () =
  let q = Admission.create ~cap:2 in
  Alcotest.(check bool) "accept 1" true
    (match Admission.submit q 1 with `Accepted -> true | _ -> false);
  Alcotest.(check bool) "accept 2" true
    (match Admission.submit q 2 with `Accepted -> true | _ -> false);
  Alcotest.(check bool) "shed 3" true
    (match Admission.submit q 3 with `Overloaded -> true | _ -> false);
  Alcotest.(check int) "depth" 2 (Admission.depth q);
  Alcotest.(check (option int)) "pop 1" (Some 1) (Admission.pop q);
  Alcotest.(check bool) "accept again" true
    (match Admission.submit q 4 with `Accepted -> true | _ -> false);
  Admission.drain q;
  Alcotest.(check bool) "draining rejects" true
    (match Admission.submit q 5 with `Draining -> true | _ -> false);
  (* Drained queue still yields what was admitted, then None. *)
  Alcotest.(check (option int)) "pop 2" (Some 2) (Admission.pop q);
  Alcotest.(check (option int)) "pop 4" (Some 4) (Admission.pop q);
  Alcotest.(check (option int)) "pop end" None (Admission.pop q)

let admission_pop_blocks_until_submit () =
  let q = Admission.create ~cap:4 in
  let got = Atomic.make (-1) in
  let th = Thread.create (fun () ->
      match Admission.pop q with
      | Some v -> Atomic.set got v
      | None -> Atomic.set got (-2)) ()
  in
  Thread.delay 0.05;
  Alcotest.(check int) "still blocked" (-1) (Atomic.get got);
  ignore (Admission.submit q 7);
  Thread.join th;
  Alcotest.(check int) "woke with value" 7 (Atomic.get got)

(* --- baked index -------------------------------------------------------- *)

let index_tmp =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rv_test_serve_%d_%d.rvi" (Unix.getpid ()) !n)

let with_index_file f =
  let path = index_tmp () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let parse_query line =
  match Proto.parse line with
  | Ok { Proto.body = `Query q; _ } -> q
  | Ok _ -> Alcotest.failf "expected a query: %s" line
  | Error e -> Alcotest.failf "parse %s: %s" line e

(* Bake the given wire queries into an index file, evaluating each
   in-process — exactly what `rv bake` does for a lattice. *)
let bake_index ?(generation = 1) path lines =
  let entries =
    List.map
      (fun line ->
        let q = parse_query line in
        match Handler.eval_vals ~deadline_us:None q with
        | Ok v -> (Proto.canonical_key q, Handler.values_of_vals v)
        | Error (_, msg, _) -> Alcotest.failf "bake eval %s: %s" line msg)
      lines
  in
  match
    Rv_index.Writer.write ~path ~generation ~meta:"test_serve bake" entries
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "bake write: %s" e

let iq =
  {|{"type":"worst","graph":"ring:6","algorithm":"cheap","space":8,"pairs":4}|}

let iq_run =
  {|{"type":"run","graph":"ring:10","algorithm":"fast","space":8,"label_a":3,"label_b":5}|}

let index_hit_identical_bytes () =
  with_index_file @@ fun path ->
  bake_index path [ iq; iq_run ];
  (* Path 1+2: direct compute, then LRU hit, on an index-less server. *)
  let computed, cached =
    with_server @@ fun server ->
    with_client server @@ fun c -> (rpc c iq, rpc c iq)
  in
  (* Path 3: index hit — no compute, no cache involvement. *)
  let indexed, indexed_run, m =
    with_server ~index_path:path @@ fun server ->
    with_client server @@ fun c ->
    let a = rpc c iq in
    let b = rpc c iq_run in
    (a, b, rpc c {|{"type":"metrics"}|})
  in
  check_ok computed;
  Alcotest.(check string) "compute == LRU hit" computed cached;
  Alcotest.(check string) "compute == index hit" computed indexed;
  check_ok indexed_run;
  Alcotest.(check int) "both replies were index hits" 2 (get_int "index_hits" m);
  Alcotest.(check int) "no index misses" 0 (get_int "index_misses" m);
  Alcotest.(check int) "cache never consulted" 0
    (get_int "cache_hits" m + get_int "cache_misses" m)

let index_miss_falls_through () =
  with_index_file @@ fun path ->
  bake_index path [ iq ];
  with_server ~index_path:path @@ fun server ->
  with_client server @@ fun c ->
  (* Not baked: computed as usual, counted as an index miss. *)
  let reply =
    rpc c {|{"type":"worst","graph":"ring:8","algorithm":"cheap","space":8,"pairs":4}|}
  in
  check_ok reply;
  let m = rpc c {|{"type":"metrics"}|} in
  Alcotest.(check int) "one index miss" 1 (get_int "index_misses" m);
  Alcotest.(check int) "computed, so one cache miss" 1 (get_int "cache_misses" m)

let corrupt_index_serves_without () =
  with_index_file @@ fun path ->
  let oc = open_out_bin path in
  output_string oc "RVIXgarbage that is long enough to not be a header";
  close_out oc;
  with_server ~index_path:path @@ fun server ->
  with_client server @@ fun c ->
  (* Server boots and answers by computing. *)
  check_ok (rpc c iq);
  let h = rpc c {|{"type":"health"}|} in
  Alcotest.(check bool) "health says index not loaded" false
    (match get "index_loaded" h with Json.Bool b -> b | _ -> true)

let index_probe_fields () =
  with_index_file @@ fun path ->
  bake_index ~generation:3 path [ iq ];
  with_server ~index_path:path @@ fun server ->
  with_client server @@ fun c ->
  let h = rpc c {|{"type":"health"}|} in
  Alcotest.(check bool) "index loaded" true
    (match get "index_loaded" h with Json.Bool b -> b | _ -> false);
  Alcotest.(check int) "generation" 3 (get_int "index_generation" h);
  Alcotest.(check int) "records" 1 (get_int "index_records" h);
  let v = rpc c {|{"type":"version"}|} in
  Alcotest.(check int) "format version advertised" Rv_index.Format.version
    (get_int "index_format" v);
  Alcotest.(check int) "version carries generation too" 3
    (get_int "index_generation" v)

let index_reload_and_atomic_swap () =
  with_index_file @@ fun path ->
  bake_index ~generation:1 path [ iq; iq_run ];
  with_server ~index_path:path @@ fun server ->
  (* A client hammers index-hit queries while generations swap under it:
     every reply must be byte-identical to the first — a torn or
     half-swapped index would produce garbage or a crash. *)
  let stop = Atomic.make false in
  let failure = Atomic.make None in
  let baseline =
    with_client server @@ fun c -> rpc c iq
  in
  check_ok baseline;
  let reader =
    Thread.create
      (fun () ->
        with_client server @@ fun c ->
        while not (Atomic.get stop) do
          let r = rpc c iq in
          if not (String.equal r baseline) then
            Atomic.set failure (Some r)
        done)
      ()
  in
  for gen = 2 to 10 do
    bake_index ~generation:gen path [ iq; iq_run ];
    match Server.reload_index server with
    | Ok () -> ()
    | Error e -> Alcotest.failf "reload generation %d: %s" gen e
  done;
  Atomic.set stop true;
  Thread.join reader;
  (match Atomic.get failure with
  | Some r -> Alcotest.failf "reply changed across swaps: %s" r
  | None -> ());
  with_client server @@ fun c ->
  Alcotest.(check int) "final generation live" 10
    (get_int "index_generation" (rpc c {|{"type":"health"}|}))

let index_reload_errors () =
  (* No index configured: reload is a clean error, not a crash. *)
  (with_server @@ fun server ->
   match Server.reload_index server with
   | Ok () -> Alcotest.fail "reload without a path succeeded"
   | Error _ -> ());
  (* Reload to a missing file keeps the old index serving. *)
  with_index_file @@ fun path ->
  bake_index path [ iq ];
  with_server ~index_path:path @@ fun server ->
  Sys.remove path;
  (match Server.reload_index server with
  | Ok () -> Alcotest.fail "reload of a deleted file succeeded"
  | Error _ -> ());
  with_client server @@ fun c ->
  let h = rpc c {|{"type":"health"}|} in
  Alcotest.(check bool) "old index still serving" true
    (match get "index_loaded" h with Json.Bool b -> b | _ -> false);
  let m0 = rpc c {|{"type":"metrics"}|} in
  check_ok (rpc c iq);
  let m1 = rpc c {|{"type":"metrics"}|} in
  Alcotest.(check int) "still answering from the old mapping"
    (get_int "index_hits" m0 + 1)
    (get_int "index_hits" m1)

let backfill_publishes_next_generation () =
  with_index_file @@ fun path ->
  (* No file yet: the server starts index-less but with backfill on. *)
  with_server ~index_path:path ~index_backfill:true ~backfill_flush_s:0.2
  @@ fun server ->
  with_client server @@ fun c ->
  check_ok (rpc c iq);
  check_ok (rpc c iq_run);
  (* Wait for the backfill thread to publish and self-reload. *)
  let deadline = 50 in
  let rec wait n =
    let h = rpc c {|{"type":"health"}|} in
    match get "index_loaded" h with
    | Json.Bool true -> h
    | _ when n >= deadline -> Alcotest.fail "backfill never published"
    | _ ->
        Thread.delay 0.1;
        wait (n + 1)
  in
  let h = wait 0 in
  Alcotest.(check int) "first backfilled generation" 1
    (get_int "index_generation" h);
  Alcotest.(check int) "both computed answers baked" 2
    (get_int "index_records" h);
  let m = rpc c {|{"type":"metrics"}|} in
  Alcotest.(check int) "backfill counted" 2 (get_int "index_backfilled" m);
  (* The published file is a valid index holding the computed answers,
     and repeats now hit it. *)
  (match Rv_index.Reader.open_ path with
  | Error e -> Alcotest.failf "published index invalid: %s" e
  | Ok t -> Alcotest.(check int) "records on disk" 2 (Rv_index.Reader.record_count t));
  let m0 = rpc c {|{"type":"metrics"}|} in
  let again = rpc c iq in
  check_ok again;
  let m1 = rpc c {|{"type":"metrics"}|} in
  Alcotest.(check int) "repeat is an index hit"
    (get_int "index_hits" m0 + 1)
    (get_int "index_hits" m1)

let index_loadgen_all_hits () =
  (* The loadgen index mix against its matching bake: pure index traffic,
     transcript identical to an index-less server's. *)
  with_index_file @@ fun path ->
  let lattice =
    match
      Rv_index.Lattice.of_args ~graphs:Loadgen.index_mix_graphs
        ~algorithms:Loadgen.index_mix_algorithms
        ~spaces:Loadgen.index_mix_spaces ~pairs:Loadgen.index_mix_pairs
        ~max_delays:Loadgen.index_mix_max_delays ()
    with
    | Ok l -> l
    | Error e -> Alcotest.failf "lattice: %s" e
  in
  let entries =
    List.map
      (fun q ->
        match Handler.eval_vals ~deadline_us:None q with
        | Ok v -> (Rv_index.Key.render q, Handler.values_of_vals v)
        | Error (_, msg, _) -> Alcotest.failf "bake: %s" msg)
      (Rv_index.Lattice.cells lattice)
  in
  (match Rv_index.Writer.write ~path ~generation:1 ~meta:"t" entries with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "write: %s" e);
  let transcript ?index_path () =
    with_server ?index_path @@ fun server ->
    match
      Loadgen.run ~port:(Server.port server) ~conns:2 ~requests:24 ~seed:3
        ~mix:Loadgen.Index ()
    with
    | Error e -> Alcotest.fail e
    | Ok s ->
        Alcotest.(check int) "all ok" 24 s.Loadgen.ok;
        (s.Loadgen.transcript, Server.port server)
  in
  let with_index, _ = transcript ~index_path:path () in
  let without, _ = transcript () in
  Alcotest.(check (list string)) "index on == index off" without with_index;
  (* And against the indexed server every request was a hit. *)
  with_server ~index_path:path @@ fun server ->
  (match
     Loadgen.run ~port:(Server.port server) ~conns:2 ~requests:24 ~seed:3
       ~mix:Loadgen.Index ()
   with
  | Error e -> Alcotest.fail e
  | Ok _ -> ());
  with_client server @@ fun c ->
  let m = rpc c {|{"type":"metrics"}|} in
  Alcotest.(check int) "24 index hits" 24 (get_int "index_hits" m);
  Alcotest.(check int) "0 index misses" 0 (get_int "index_misses" m)

(* --- unit: flight recorder ---------------------------------------------- *)

let mk_record ?(kind = "worst") ?(path = "sim") ?(status = "ok") id flag =
  {
    Recorder.rr_id = id;
    rr_kind = kind;
    rr_path = path;
    rr_status = status;
    rr_flag = flag;
    rr_recv_us = float_of_int (1_000 * id);
    rr_total_us = 40 + id;
    rr_stages = [ ("parse", 1.0, 2.0); ("compute", 3.0, float_of_int (30 + id)) ];
  }

let recorder_retention () =
  let t = Recorder.create ~cap:4 () in
  (* Fill: healthy 1,2,4 and flagged 3. *)
  Recorder.add t (mk_record 1 Recorder.Healthy);
  Recorder.add t (mk_record 2 Recorder.Healthy);
  Recorder.add t (mk_record 3 Recorder.Slow);
  Recorder.add t (mk_record 4 Recorder.Healthy);
  let ids rs = List.map (fun r -> r.Recorder.rr_id) rs in
  Alcotest.(check (list int)) "full ring, id order" [ 1; 2; 3; 4 ]
    (ids (Recorder.records t));
  (* Overflow evicts the oldest *healthy* record, never an anomaly. *)
  Recorder.add t (mk_record 5 Recorder.Healthy);
  Alcotest.(check (list int)) "healthy 1 evicted first" [ 2; 3; 4; 5 ]
    (ids (Recorder.records t));
  Recorder.add t (mk_record 6 Recorder.Shed);
  Recorder.add t (mk_record 7 Recorder.Errored);
  Recorder.add t (mk_record 8 Recorder.Index_fallback);
  Alcotest.(check (list int)) "anomalies displace every healthy record"
    [ 3; 6; 7; 8 ]
    (ids (Recorder.records t));
  (* Only an all-anomaly ring evicts an anomaly (the oldest). *)
  Recorder.add t (mk_record 9 Recorder.Slow);
  Alcotest.(check (list int)) "oldest anomaly goes last" [ 6; 7; 8; 9 ]
    (ids (Recorder.records t));
  let healthy, flagged, evicted_healthy, evicted_flagged = Recorder.counts t in
  Alcotest.(check int) "no healthy left" 0 healthy;
  Alcotest.(check int) "ring full of anomalies" 4 flagged;
  Alcotest.(check int) "healthy evictions" 4 evicted_healthy;
  Alcotest.(check int) "flagged evictions" 1 evicted_flagged;
  Alcotest.(check (list int)) "?last keeps the newest" [ 8; 9 ]
    (ids (Recorder.records ~last:2 t));
  Alcotest.(check int) "cap floored to 1" 1 (Recorder.cap (Recorder.create ~cap:0 ()))

let recorder_json_roundtrip () =
  let r = mk_record ~kind: "run" ~path:"cache" ~status:"ok" 17 Recorder.Slow in
  (* Through the wire codec and back: the dump client rebuilds exactly
     what the probe serialised. *)
  match Recorder.of_json (Recorder.to_json r) with
  | None -> Alcotest.fail "of_json rejected to_json output"
  | Some r' ->
      Alcotest.(check int) "id" r.Recorder.rr_id r'.Recorder.rr_id;
      Alcotest.(check string) "kind" r.Recorder.rr_kind r'.Recorder.rr_kind;
      Alcotest.(check string) "path" r.Recorder.rr_path r'.Recorder.rr_path;
      Alcotest.(check string) "flag"
        (Recorder.flag_to_string r.Recorder.rr_flag)
        (Recorder.flag_to_string r'.Recorder.rr_flag);
      Alcotest.(check int) "total" r.Recorder.rr_total_us r'.Recorder.rr_total_us;
      Alcotest.(check int) "stage count"
        (List.length r.Recorder.rr_stages)
        (List.length r'.Recorder.rr_stages)

(* --- telemetry over the wire -------------------------------------------- *)

let known_stages = [ "parse"; "queue"; "index"; "cache"; "compute" ]

let obs_records reply =
  match get "records" reply with
  | Json.List l -> List.filter_map Recorder.of_json l
  | other ->
      Alcotest.failf "records is not a list: %s" (Json.to_string other)

let telemetry_queries =
  [
    {|{"type":"worst","graph":"ring:6","algorithm":"cheap","space":8,"pairs":4}|};
    {|{"type":"run","graph":"ring:8","algorithm":"fast","space":8,"label_a":1,"label_b":3}|};
    {|{"type":"run","graph":"ring:10","algorithm":"cheap","label_a":2,"label_b":5}|};
  ]

let obs_probe_flags_slow () =
  (* slow_us = 0: every query (any total > 0µs) is flagged slow, so the
     recorder retains all of them regardless of load. *)
  with_server ~slow_us:0 @@ fun server ->
  with_client server @@ fun c ->
  List.iter (fun q -> check_ok (rpc c q)) telemetry_queries;
  check_ok (rpc c (List.hd telemetry_queries));
  (* a repeat: cache path *)
  let reply = rpc c {|{"type":"obs"}|} in
  check_ok reply;
  Alcotest.(check string) "reply type" "obs" (get_str "type" reply);
  Alcotest.(check bool) "telemetry on" true
    (match get "telemetry" reply with Json.Bool b -> b | _ -> false);
  let rs = obs_records reply in
  Alcotest.(check int) "all four queries recorded" 4 (List.length rs);
  let ids = List.map (fun r -> r.Recorder.rr_id) rs in
  Alcotest.(check (list int)) "sorted by request id" (List.sort Int.compare ids) ids;
  List.iter
    (fun r ->
      Alcotest.(check string)
        (Printf.sprintf "req %d flagged slow" r.Recorder.rr_id)
        "slow"
        (Recorder.flag_to_string r.Recorder.rr_flag);
      Alcotest.(check string) "status ok" "ok" r.Recorder.rr_status;
      Alcotest.(check bool) "has stages" true (r.Recorder.rr_stages <> []);
      List.iter
        (fun (name, start, dur) ->
          Alcotest.(check bool)
            (Printf.sprintf "stage %S is a known stage" name)
            true
            (List.mem name known_stages);
          Alcotest.(check bool) "stage start after receive" true (start >= 0.);
          Alcotest.(check bool) "stage duration non-negative" true (dur >= 0.))
        r.Recorder.rr_stages)
    rs;
  let paths = List.map (fun r -> r.Recorder.rr_path) rs in
  Alcotest.(check (list string)) "three computed, the repeat cached"
    [ "sim"; "sim"; "sim"; "cache" ] paths;
  (* The obs/metrics/health probes themselves never enter the ring:
     watching the recorder must not fill it. *)
  check_ok (rpc c {|{"type":"health"}|});
  check_ok (rpc c {|{"type":"metrics"}|});
  let again = rpc c {|{"type":"obs"}|} in
  check_ok again;
  Alcotest.(check int) "admin probes not recorded" 4
    (List.length (obs_records again));
  (* ?last is honored and keeps the newest records. *)
  let last2 = rpc c {|{"type":"obs","last":2}|} in
  let newest = obs_records last2 in
  Alcotest.(check int) "last=2 returns 2" 2 (List.length newest);
  Alcotest.(check (list int)) "the two newest ids"
    (match List.rev ids with b :: a :: _ -> [ a; b ] | _ -> [])
    (List.map (fun r -> r.Recorder.rr_id) newest)

let obs_shed_is_retained () =
  (* queue_cap = 0 sheds every query; shed records are anomalies. *)
  with_server ~queue_cap:0 @@ fun server ->
  with_client server @@ fun c ->
  check_error "overloaded"
    (rpc c {|{"type":"run","graph":"ring:8","algorithm":"cheap","label_a":1,"label_b":2}|});
  let reply = rpc c {|{"type":"obs"}|} in
  check_ok reply;
  (match obs_records reply with
  | [ r ] ->
      Alcotest.(check string) "flag" "shed"
        (Recorder.flag_to_string r.Recorder.rr_flag);
      Alcotest.(check string) "path" "shed" r.Recorder.rr_path;
      Alcotest.(check string) "status" "overloaded" r.Recorder.rr_status
  | rs -> Alcotest.failf "expected 1 shed record, got %d" (List.length rs));
  Alcotest.(check int) "counted flagged" 1 (get_int "flagged" reply);
  Alcotest.(check int) "no healthy" 0 (get_int "healthy" reply)

let telemetry_off_no_records_same_bytes () =
  let drive ~telemetry =
    with_server ~telemetry @@ fun server ->
    with_client server @@ fun c ->
    let replies = List.map (rpc c) telemetry_queries in
    let obs = rpc c {|{"type":"obs"}|} in
    (replies, obs)
  in
  let on_replies, _ = drive ~telemetry:true in
  let off_replies, off_obs = drive ~telemetry:false in
  (* Telemetry switches measurement only — never reply bytes. *)
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check string) (Printf.sprintf "reply %d identical" i) a b)
    (List.combine on_replies off_replies);
  check_ok off_obs;
  Alcotest.(check bool) "probe says telemetry off" false
    (match get "telemetry" off_obs with Json.Bool b -> b | _ -> true);
  Alcotest.(check int) "no records collected" 0
    (List.length (obs_records off_obs))

let debug_reply_breakdown () =
  with_server @@ fun server ->
  with_client server @@ fun c ->
  let q fields =
    Printf.sprintf
      {|{"type":"worst",%s"graph":"ring:6","algorithm":"cheap","space":8,"pairs":4}|}
      fields
  in
  let plain = rpc c (q "") in
  check_ok plain;
  let debugged = rpc c (q {|"debug":true,|}) in
  check_ok debugged;
  let d = get "debug" debugged in
  let dmem path =
    match Json.member path d with
    | Some v -> v
    | None -> Alcotest.failf "debug lacks %S: %s" path debugged
  in
  Alcotest.(check string) "debug answer path is the cache"
    (Json.to_string (Json.Str "cache"))
    (Json.to_string (dmem "path"));
  Alcotest.(check string) "debug kind" "\"worst\"" (Json.to_string (dmem "kind"));
  (match dmem "stages" with
  | Json.List (_ :: _ as stages) ->
      List.iter
        (fun s ->
          match Json.member "stage" s with
          | Some (Json.Str name) ->
              Alcotest.(check bool) "known stage" true (List.mem name known_stages)
          | _ -> Alcotest.failf "stage without a name: %s" (Json.to_string s))
        stages
  | other -> Alcotest.failf "debug stages: %s" (Json.to_string other));
  (* The debug object is appended at render time: it never enters the
     cache, so the next plain request is byte-identical to the first. *)
  Alcotest.(check string) "debug never pollutes the cached bytes" plain
    (rpc c (q ""))

let chrome_dump_from_obs_scrape () =
  with_server ~slow_us:0 @@ fun server ->
  let rs =
    with_client server @@ fun c ->
    List.iter (fun q -> check_ok (rpc c q)) telemetry_queries;
    obs_records (rpc c {|{"type":"obs"}|})
  in
  Alcotest.(check int) "scraped all records" 3 (List.length rs);
  (* What `rv obs dump --chrome` writes must be a parseable Chrome trace
     with one named lane and one whole-request span per record. *)
  let doc = Json.to_string (Recorder.chrome_json rs) in
  match Json.parse doc with
  | Error e -> Alcotest.failf "chrome trace is not valid JSON: %s" e
  | Ok j -> (
      match Json.member "traceEvents" j with
      | Some (Json.List events) ->
          let phase e =
            match Json.member "ph" e with Some (Json.Str p) -> p | _ -> "?"
          in
          let spans = List.filter (fun e -> String.equal (phase e) "X") events in
          let lanes =
            List.filter
              (fun e ->
                String.equal (phase e) "M"
                && (match Json.member "name" e with
                   | Some (Json.Str "thread_name") -> true
                   | _ -> false))
              events
          in
          Alcotest.(check bool) "a span per record and stage" true
            (List.length spans
            >= List.length rs
               + List.fold_left
                   (fun n r -> n + List.length r.Recorder.rr_stages)
                   0 rs);
          Alcotest.(check int) "one named lane per request" (List.length rs)
            (List.length lanes)
      | _ -> Alcotest.failf "no traceEvents array in %s" doc)

(* --- prometheus exposition ---------------------------------------------- *)

(* Split the exposition body into (comment, sample) lines and index the
   samples as series key (name + sorted labels) -> float value. *)
let prom_series body =
  let lines = String.split_on_char '\n' body in
  List.filter_map
    (fun line ->
      if String.length line = 0 || line.[0] = '#' then None
      else
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "unparseable sample line %S" line
        | Some i ->
            let key = String.sub line 0 i in
            let v = String.sub line (i + 1) (String.length line - i - 1) in
            let value =
              try float_of_string v
              with Failure _ -> Alcotest.failf "bad sample value %S in %S" v line
            in
            Some (key, value))
    lines

let prom_families body =
  List.filter_map
    (fun line ->
      if String.starts_with ~prefix:"# TYPE " line then
        match String.split_on_char ' ' line with
        | [ _; _; name; typ ] -> Some (name, typ)
        | _ -> Alcotest.failf "malformed TYPE line %S" line
      else None)
    (String.split_on_char '\n' body)

let series_family key =
  match String.index_opt key '{' with
  | Some i -> String.sub key 0 i
  | None -> key

let prometheus_scrape_valid () =
  with_server @@ fun server ->
  with_client server @@ fun c ->
  List.iter (fun q -> check_ok (rpc c q)) telemetry_queries;
  let scrape () =
    let reply = rpc c {|{"type":"metrics","format":"prometheus"}|} in
    check_ok reply;
    Alcotest.(check string) "format echoed" "prometheus" (get_str "format" reply);
    get_str "body" reply
  in
  let body = scrape () in
  let families = prom_families body in
  let fnames = List.map fst families in
  Alcotest.(check (list string)) "no duplicate family"
    (List.sort_uniq String.compare fnames)
    (List.sort String.compare fnames);
  List.iter
    (fun (f, t) ->
      Alcotest.(check bool)
        (Printf.sprintf "family %s present as %s" f t)
        true
        (List.exists
           (fun (f', t') -> String.equal f f' && String.equal t t')
           families))
    [
      ("rv_serve_requests_total", "counter");
      ("rv_serve_cache_hits_total", "counter");
      ("rv_serve_queue_depth", "gauge");
      ("rv_serve_recorder_records", "gauge");
      ("rv_serve_latency_us", "summary");
      ("rv_serve_latency_us_count", "gauge");
    ];
  let series = prom_series body in
  let keys = List.map fst series in
  Alcotest.(check (list string)) "no duplicate series"
    (List.sort_uniq String.compare keys)
    (List.sort String.compare keys);
  (* Every sample belongs to a declared family, every family has samples,
     and the whole exposition is stably sorted (byte order = replay order). *)
  List.iter
    (fun key ->
      Alcotest.(check bool)
        (Printf.sprintf "series %s has a TYPE declaration" key)
        true
        (List.mem_assoc (series_family key) families))
    keys;
  List.iter
    (fun (f, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "family %s has samples" f)
        true
        (List.exists (fun k -> String.equal (series_family k) f) keys))
    families;
  Alcotest.(check (list string)) "families sorted by name" (List.sort String.compare fnames) fnames;
  (* Counters are monotone across scrapes; the extra query in between
     must show up in requests_total. *)
  check_ok (rpc c (List.hd telemetry_queries));
  let body2 = scrape () in
  let series2 = prom_series body2 in
  let counter_families =
    List.filter_map
      (fun (f, t) -> if String.equal t "counter" then Some f else None)
      families
  in
  List.iter
    (fun (key, v1) ->
      if List.mem (series_family key) counter_families then
        match List.assoc_opt key series2 with
        | None -> Alcotest.failf "counter series %s vanished" key
        | Some v2 ->
            Alcotest.(check bool)
              (Printf.sprintf "counter %s monotone (%g -> %g)" key v1 v2)
              true (v2 >= v1))
    series;
  let requests key series =
    match List.assoc_opt key series with
    | Some v -> v
    | None -> Alcotest.failf "no %s sample" key
  in
  Alcotest.(check bool) "extra query counted" true
    (requests "rv_serve_requests_total" series2
    > requests "rv_serve_requests_total" series)

(* Gauges are read at scrape time, so they are live with telemetry off
   too: the connection count and the GC figures move between scrapes. *)
let prometheus_live_without_telemetry () =
  with_server ~telemetry:false @@ fun server ->
  let sample key =
    with_client server @@ fun c ->
    let body =
      get_str "body" (rpc c {|{"type":"metrics","format":"prometheus"}|})
    in
    match List.assoc_opt key (prom_series body) with
    | Some v -> int_of_float v
    | None -> Alcotest.failf "no %s sample" key
  in
  let minor0 = sample "rv_serve_gc_minor_collections_total" in
  Gc.minor ();
  Alcotest.(check bool) "minor collections are live" true
    (sample "rv_serve_gc_minor_collections_total" > minor0);
  Alcotest.(check bool) "connections counted" true
    (sample "rv_serve_connections_total" >= 3);
  (* A large block grows the major heap; the scrape must see it. *)
  let block = Sys.opaque_identity (Array.make 1_000_000 0) in
  let before = (Gc.quick_stat ()).Gc.heap_words in
  let heap = sample "rv_serve_gc_heap_words" in
  let after = (Gc.quick_stat ()).Gc.heap_words in
  Alcotest.(check bool)
    (Printf.sprintf "heap words live (%d in [%d, %d])" heap before after)
    true
    (heap >= min before after && heap <= max before after);
  ignore (Sys.opaque_identity block)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* [rendered] must equal the golden file at [path]; with RV_UPDATE_GOLDEN=1
   (run from the test source directory) the file is rewritten first. *)
let check_golden name path rendered =
  if
    (match Sys.getenv_opt "RV_UPDATE_GOLDEN" with
    | Some "1" -> true
    | _ -> false)
  then begin
    let oc = open_out_bin path in
    output_string oc rendered;
    close_out oc
  end;
  Alcotest.(check string) name (read_file path) rendered

(* A fixed family list exercising every rendering rule: family and label
   ordering, escaping in HELP and label values, and the integer /
   fractional / non-finite value formats.  Regenerate the golden with
   RV_UPDATE_GOLDEN=1 (run from the test source directory). *)
let prometheus_render_golden () =
  let module P = Rv_obs.Export_prometheus in
  let families =
    [
      P.single "zeta_total" "Families are sorted, this renders last"
        P.Counter_t 3.0;
      {
        P.fname = "alpha_latency_us";
        help = "Help text with a\nnewline and a back\\slash";
        typ = P.Summary_t;
        samples =
          [
            { P.labels = [ ("quantile", "0.9"); ("kind", "worst") ]; value = 12.5 };
            { P.labels = [ ("quantile", "0.5"); ("kind", "worst") ]; value = 8.0 };
            {
              P.labels = [ ("kind", "odd \"quoted\"\nvalue\\x"); ("quantile", "0.99") ];
              value = Float.infinity;
            };
          ];
      };
      P.single ~labels:[ ("b", "2"); ("a", "1") ] "middle_gauge"
        "Label keys render sorted" P.Gauge_t (-0.25);
      P.single "large_integral" "Big integral floats stay integral"
        P.Gauge_t 1e14;
      P.single "not_a_number" "NaN renders as NaN" P.Gauge_t Float.nan;
    ]
  in
  check_golden "exposition renders byte-stably"
    "golden/prometheus_render.golden" (P.render families)

(* The server's whole metrics surface, independent of the values: the
   ordered key lists of the health/metrics/version replies, then every
   Prometheus family's TYPE line with its distinct label-key sets and
   series counts.  Captured after a mix that takes every answer path —
   index hit, compute, shed, LRU hit, bad request.  Regenerate with
   RV_UPDATE_GOLDEN=1 (run from the test source directory). *)
let serve_metrics_surface_golden () =
  with_index_file @@ fun path ->
  bake_index path [ iq ];
  with_server ~index_path:path ~queue_cap:1 @@ fun server ->
  with_client server @@ fun c ->
  check_ok (rpc c iq);
  (* Three queries in one write: the connection thread queues the first
     and finds the one-slot queue still full for the next. *)
  let heavy =
    {|{"type":"worst","graph":"ring:24","algorithm":"fast","space":64,"pairs":16}|}
  in
  send c
    (String.concat "\n"
       [
         heavy;
         {|{"type":"run","graph":"ring:8","algorithm":"cheap","label_a":1,"label_b":2}|};
         {|{"type":"run","graph":"ring:8","algorithm":"cheap","label_a":1,"label_b":3}|};
       ]);
  let statuses =
    List.init 3 (fun _ ->
        let r = recv c in
        match get_str "status" r with
        | "ok" -> "ok"
        | _ -> get_str "code" r)
  in
  Alcotest.(check bool) "something shed" true (List.mem "overloaded" statuses);
  check_ok (rpc c heavy);
  check_error "bad_request" (rpc c "not json");
  let m = rpc c {|{"type":"metrics"}|} in
  List.iter
    (fun k -> Alcotest.(check bool) (k ^ " counted") true (get_int k m >= 1))
    [ "index_hits"; "cache_hits"; "cache_misses"; "overloaded"; "bad_request" ];
  let keys reply =
    match Json.parse reply with
    | Ok (Json.Obj kvs) -> String.concat "," (List.map fst kvs)
    | _ -> Alcotest.failf "not an object: %s" reply
  in
  let body = get_str "body" (rpc c {|{"type":"metrics","format":"prometheus"}|}) in
  let label_keys key =
    match String.index_opt key '{' with
    | None -> "{}"
    | Some i ->
        let inner = String.sub key (i + 1) (String.length key - i - 2) in
        String.split_on_char ',' inner
        |> List.map (fun kv -> List.hd (String.split_on_char '=' kv))
        |> String.concat "," |> Printf.sprintf "{%s}"
  in
  let series = List.map fst (prom_series body) in
  let family_lines (name, typ) =
    let sets =
      List.filter_map
        (fun k ->
          if String.equal (series_family k) name then Some (label_keys k)
          else None)
        series
    in
    Printf.sprintf "# TYPE %s %s" name typ
    :: List.map
         (fun set ->
           Printf.sprintf "  %s x%d" set
             (List.length (List.filter (String.equal set) sets)))
         (List.sort_uniq String.compare sets)
  in
  let rendered =
    String.concat "\n"
      ([
         "health: " ^ keys (rpc c {|{"type":"health"}|});
         "metrics: " ^ keys m;
         "version: " ^ keys (rpc c {|{"type":"version"}|});
       ]
      @ List.concat_map family_lines (prom_families body))
    ^ "\n"
  in
  check_golden "metrics surface unchanged"
    "golden/serve_metrics_surface.golden" rendered

(* --- loadgen server-side scrape ----------------------------------------- *)

let loadgen_scrapes_server_window () =
  with_server @@ fun server ->
  match
    Loadgen.run ~port:(Server.port server) ~conns:2 ~requests:30 ~seed:5
      ~mix:Loadgen.Cached ()
  with
  | Error e -> Alcotest.fail e
  | Ok s -> (
      Alcotest.(check int) "all ok" 30 s.Loadgen.ok;
      match s.Loadgen.server with
      | None -> Alcotest.fail "post-run server scrape missing"
      | Some sv ->
          (* The 5-minute window easily covers the run: the server saw
             exactly the requests the client timed. *)
          Alcotest.(check int) "server counted every request" 30
            sv.Loadgen.srv_count;
          Alcotest.(check bool) "percentiles ordered" true
            (sv.Loadgen.srv_p50_us <= sv.Loadgen.srv_p90_us
            && sv.Loadgen.srv_p90_us <= sv.Loadgen.srv_p99_us
            && sv.Loadgen.srv_p99_us <= sv.Loadgen.srv_max_us);
          (* The invariant `rv loadgen` enforces after every run: the
             server-side interval nests inside the client-side one. *)
          (match Loadgen.server_clock_check s with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "clock check: %s" msg))

(* --- unit: histogram percentile ---------------------------------------- *)

let histogram_percentile () =
  let h = Rv_obs.Histogram.find "test_serve.percentile" in
  for v = 1 to 100 do
    Rv_obs.Histogram.observe_t h v
  done;
  let p50 = Rv_obs.Histogram.percentile h 0.5 in
  let p99 = Rv_obs.Histogram.percentile h 0.99 in
  (* Log-bucketed: upper bound of the covering bucket. *)
  Alcotest.(check bool) "p50 covers the median" true (p50 >= 50 && p50 <= 63);
  Alcotest.(check bool) "p99 near max" true (p99 >= 99 && p99 <= 100);
  Alcotest.(check int) "p100 is max" 100 (Rv_obs.Histogram.percentile h 1.0);
  let empty = Rv_obs.Histogram.find "test_serve.percentile.empty" in
  Alcotest.(check int) "empty is 0" 0 (Rv_obs.Histogram.percentile empty 0.9)

(* --- run --------------------------------------------------------------- *)

let () =
  Alcotest.run "rv_serve"
    [
      ( "end-to-end",
        [
          tc "run query matches direct simulation" run_query_matches_direct;
          tc "worst query matches direct sweep" worst_query_matches_direct;
          tc "start_b defaults to the antipode" antipode_default_start;
        ] );
      ( "cache",
        [
          tc "repeat is a byte-identical cache hit" cache_hit_on_repeat;
          tc "cache off answers identical bytes" cache_disabled_identical_bytes;
        ] );
      ( "resilience",
        [
          tc "malformed input keeps the connection" malformed_input_keeps_connection;
          tc "oversized line keeps the connection" oversized_line_keeps_connection;
        ] );
      ( "admission",
        [
          tc "queue_cap=0 sheds every query" queue_full_overloaded;
          tc "contention sheds some, serves the rest" queue_contention_overloads_some;
        ] );
      ( "deadline",
        [
          tc "budget burned in queue" deadline_exceeded_in_queue;
          tc "server default deadline applies" default_deadline_applies;
        ] );
      ( "drain",
        [
          tc "in-flight requests complete" drain_completes_in_flight;
          tc "stop is idempotent" stop_is_idempotent;
        ] );
      ( "determinism",
        [ tc "loadgen transcript: j1 == j2 == cache-off" loadgen_deterministic_j1_j2_cache ] );
      ("admin", [ tc "health and version" health_and_version ]);
      ( "index",
        [
          tc "index hit == LRU hit == compute, byte for byte"
            index_hit_identical_bytes;
          tc "unbaked key falls through to compute" index_miss_falls_through;
          tc "corrupt index file degrades to compute" corrupt_index_serves_without;
          tc "probes report format, generation, records" index_probe_fields;
          tc "reload swaps atomically under load" index_reload_and_atomic_swap;
          tc "reload failures keep the old index" index_reload_errors;
          tc "backfill publishes the next generation" backfill_publishes_next_generation;
          tc "loadgen index mix is all hits and identical" index_loadgen_all_hits;
        ] );
      ( "recorder-unit",
        [
          tc "anomalies outlive healthy records" recorder_retention;
          tc "wire codec round-trips" recorder_json_roundtrip;
        ] );
      ( "telemetry",
        [
          tc "obs probe serves slow-flagged records" obs_probe_flags_slow;
          tc "shed requests are retained anomalies" obs_shed_is_retained;
          tc "telemetry off: no records, same bytes"
            telemetry_off_no_records_same_bytes;
          tc "debug:true appends a stage breakdown" debug_reply_breakdown;
          tc "obs scrape renders a valid Chrome trace" chrome_dump_from_obs_scrape;
        ] );
      ( "prometheus",
        [
          tc "scrape is well-formed and monotone" prometheus_scrape_valid;
          tc "renderer matches the golden exposition" prometheus_render_golden;
          tc "metrics surface matches the golden" serve_metrics_surface_golden;
          tc "gauges are live with telemetry off"
            prometheus_live_without_telemetry;
        ] );
      ( "loadgen",
        [ tc "post-run scrape and clock check" loadgen_scrapes_server_window ] );
      ( "proto",
        [ tc "canonical keys and strict parsing" proto_parse_and_keys ] );
      ( "cache-unit",
        [
          tc "LRU eviction order" cache_lru_eviction;
          tc "replace same key" cache_replace_same_key;
          tc "zero capacity disables" cache_zero_capacity;
        ] );
      ( "admission-unit",
        [
          tc "submit/pop/drain" admission_basics;
          tc "pop blocks until submit" admission_pop_blocks_until_submit;
        ] );
      ("histogram", [ tc "percentile" histogram_percentile ]);
    ]
