(* The repository's end-to-end benchmark.  See README.md in this
   directory for the workloads, the metrics and which layer metric
   should move which end-to-end metric.

     rvbench.exe --rv PATH --workload NAME --seed N --seconds S --trace 0|1

   Untraced runs (--trace 0) time the built rv binary in child
   processes and print the end-to-end metrics; traced runs (--trace 1)
   repeat the same work with spans around calls into each layer's public
   functions and print the per-layer metrics.  Every run checks
   the program's outputs.  The last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

module S = Rvbench_stats.Stats
module J = Rv_obs.Json
module R = Rv_core.Rendezvous
module Spec = Rv_experiments.Spec
module W = Rv_experiments.Workload
module Pg = Rv_graph.Port_graph
module Sym = Rv_graph.Symmetry
module Traj = Rv_sim.Traj
module Proto = Rv_serve.Proto
module Handler = Rv_serve.Handler

external wait4 : int -> int * int = "rvbench_wait4"

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("rvbench: " ^ m); exit 2) fmt
let now = Unix.gettimeofday

(* --- arguments ----------------------------------------------------------- *)

let rv = ref ""
let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let inner = ref ""

let () =
  Arg.parse
    [
      ("--rv", Arg.Set_string rv, "PATH rv executable to drive");
      ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--inner", Arg.Set_string inner, "MODE (internal) one fresh-process measurement");
    ]
    (fun a -> die "unexpected argument %s" a)
    "rvbench.exe --rv PATH --workload NAME --seed N --seconds S --trace 0|1";
  if !inner = "" && (!rv = "" || not (Sys.file_exists !rv)) then die "rv executable not found: %S" !rv;
  if !seconds < 1 then die "--seconds must be positive"

let budget () = float_of_int !seconds

(* --- scratch directory and child processes --------------------------------

   Everything a run writes (the baked index, child stdout/stderr) lives
   in a per-run directory under the working directory, removed on exit.
   Every spawned process is recorded and killed on every exit path. *)

let scratch =
  let d = Filename.concat (Sys.getcwd ()) (Printf.sprintf ".rvbench_tmp/run-%d" (Unix.getpid ())) in
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Unix.mkdir d 0o755
    end
  in
  mkdir_p d;
  d

let path name = Filename.concat scratch name
let live : int list ref = ref []

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error _ -> ()

let cleanup () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := [];
  rm_rf scratch;
  let parent = Filename.dirname scratch in
  try if Sys.readdir parent = [||] then Unix.rmdir parent with Sys_error _ | Unix.Unix_error _ -> ()

let () =
  at_exit cleanup;
  let bail _ = exit 3 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle bail);
  Sys.set_signal Sys.sigint (Sys.Signal_handle bail);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let spawn ?(out = "child.out") args =
  let fd_out = Unix.openfile (path out) [ Unix.O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let fd_err = Unix.openfile (path (out ^ ".err")) [ Unix.O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let pid = Unix.create_process !rv (Array.of_list (!rv :: args)) Unix.stdin fd_out fd_err in
  List.iter Unix.close [ fd_out; fd_err ];
  live := pid :: !live;
  pid

let reap pid =
  let r = wait4 pid in
  live := List.filter (fun p -> p <> pid) !live;
  r

let read_file p = In_channel.with_open_bin p In_channel.input_all

(* --- steal time -----------------------------------------------------------

   On a virtual machine the hypervisor runs other guests on this guest's
   vCPUs.  /proc/stat counts that time as steal, per vCPU, in clock
   ticks (USER_HZ, 100 a second).  On a shared host it comes and goes
   over minutes and moved whole runs' medians by up to 40%.  A 2-domain
   child keeps both vCPUs busy and stalls whenever either one is taken
   away: over 77 `rv exp --all -j 2` children its wall grew by 1.05 s
   per second of steal summed over both, and taking the steal out cut
   their quartile spread from 17% to 6% of the median.  So set-up,
   timed child runs and closed-loop serve passes report their wall time
   less the part of it in which a vCPU was stolen ([Stats.unstolen]):
   the wall time of the same work on a machine nobody else uses.  The
   raw wall times are reported beside them.  Without /proc/stat (not
   Linux) steal reads as 0. *)

(* Steal seconds so far, indexed by vCPU number. *)
let steal_s () =
  match In_channel.with_open_bin "/proc/stat" In_channel.input_all with
  | exception Sys_error _ -> [||]
  | text ->
      let per =
        String.split_on_char '\n' text
        |> List.filter_map (fun line ->
               match List.filter (fun f -> f <> "") (String.split_on_char ' ' line) with
               | cpu :: _user :: _nice :: _system :: _idle :: _iowait :: _irq :: _softirq :: steal :: _
                 when String.length cpu > 3 && String.sub cpu 0 3 = "cpu" -> (
                   match (int_of_string_opt (String.sub cpu 3 (String.length cpu - 3)), int_of_string_opt steal) with
                   | Some i, Some t -> Some (i, float_of_int t /. 100.)
                   | _ -> None)
               | _ -> None)
      in
      let a = Array.make (List.fold_left (fun n (i, _) -> max n (i + 1)) 0 per) 0. in
      List.iter (fun (i, t) -> a.(i) <- t) per;
      a

let steal_since s0 =
  Array.mapi (fun i t -> t -. if i < Array.length s0 then s0.(i) else 0.) (steal_s ())

let total steal = Array.fold_left ( +. ) 0. steal

(* One child run to completion: wall seconds, steal per vCPU during it,
   exit code, peak RSS (KiB), stdout. *)
let run_child ?(out = "child.out") args =
  let s0 = steal_s () in
  let t0 = now () in
  let pid = spawn ~out args in
  let code, rss = reap pid in
  let wall = now () -. t0 in
  let steal = steal_since s0 in
  (wall, steal, code, rss, read_file (path out))

(* --- result output ------------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

(* exp.A_s, ..., exp.G2_s: one per experiment table. *)
let exp_metric id =
  let id = if String.length id > 4 && String.sub id 0 4 = "EXP-" then String.sub id 4 (String.length id - 4) else id in
  "exp." ^ id ^ "_s"

let attempted = ref 0
let failed = ref 0
let notes : string list ref = ref []

let fail_if cond fmt =
  Printf.ksprintf
    (fun msg ->
      incr attempted;
      if cond then begin
        incr failed;
        notes := msg :: !notes;
        prerr_endline ("rvbench: FAILED " ^ msg)
      end)
    fmt

let json_metrics ms =
  J.Obj
    (List.map
       (fun x -> (x.name, J.Obj [ ("value", J.Float x.value); ("unit", J.Str x.unit_) ]))
       ms)

(* stdout of a helper command, or None when it fails or is missing. *)
let cmd_out cmd =
  let out = path "cmd.out" and err = path "cmd.err" in
  let open_w p = Unix.openfile p [ Unix.O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  match
    let fo = open_w out and fe = open_w err in
    let pid =
      Fun.protect ~finally:(fun () -> Unix.close fo; Unix.close fe) (fun () ->
          Unix.create_process cmd.(0) cmd Unix.stdin fo fe)
    in
    snd (Unix.waitpid [] pid)
  with
  | Unix.WEXITED 0 -> Some (String.trim (read_file out))
  | _ | (exception Unix.Unix_error _) -> None

(* The tree under test: the git commit where there is one, otherwise a
   digest of the sources the benchmark builds. *)
let commit () =
  match cmd_out [| "git"; "rev-parse"; "HEAD" |] with
  | Some c when c <> "" -> c
  | _ ->
      let rec files d =
        match Sys.readdir d with
        | es ->
            Array.sort String.compare es;
            Array.to_list es
            |> List.concat_map (fun e ->
                   let p = Filename.concat d e in
                   if Sys.is_directory p then files p
                   else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then [ p ]
                   else [])
        | exception Sys_error _ -> []
      in
      let all = files "lib" @ files "bin" in
      "src-" ^ Digest.to_hex (Digest.string (String.concat "" (List.map read_file all)))

(* Which per-layer counts repeat exactly from run to run, so a later
   change may rest a count-based claim on them, and which vary. *)
let count_classes =
  let varying why = "varying: " ^ why in
  [
    ("symmetry.coverage", "exact-repeat");
    ("traj_cache.lookups", "exact-repeat");
    ("traj.scan_rounds", "exact-repeat");
    ("pool.tasks", "exact-repeat");
    ("schedule.builds", varying "trajectory caches are per domain, so misses depend on which domain runs a task");
    ("traj.builds", varying "trajectory caches are per domain");
    ("traj_cache.hit_ratio", varying "trajectory caches are per domain");
    ("sim.reference_cells", varying "the Auto dispatch split follows the per-process calibration");
    ("dispatch.traj_share", varying "the Auto dispatch split follows the per-process calibration");
    ("gc.minor_collections", varying "allocation timing across domains and threads");
    ("gc.major_collections", varying "allocation timing across domains and threads");
    ("gc.minor_words", varying "allocation timing across domains and threads");
    ("index.hit_ratio", varying "the number of requests in a run depends on speed");
    ("cache.hit_ratio", varying "the number of requests in a run depends on speed");
    ("cache.evictions", varying "the number of fresh answers cached depends on speed");
    ("admission.depth_max", varying "sampled queue depth");
    ("admission.shed", varying "admission depends on arrival timing");
  ]

let emit ~report ms =
  let context =
    [
      ("nproc", J.Str (Option.value ~default:"unknown" (cmd_out [| "nproc" |])));
      ("recommended_domain_count", J.Int (Domain.recommended_domain_count ()));
      ("ocaml_version", J.Str Sys.ocaml_version);
      ("commit", J.Str (commit ()));
      ("count_classes", J.Obj (List.map (fun (k, v) -> (k, J.Str v)) count_classes));
    ]
  in
  let failed_ratio =
    if !attempted = 0 then 0. else float_of_int !failed /. float_of_int !attempted
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("workload", J.Str !workload);
            ("seed", J.Int !seed);
            ("seconds", J.Int !seconds);
            ("trace", J.Int !trace);
            ("failed_ratio", J.Float failed_ratio);
            ("failures", J.List (List.rev_map (fun s -> J.Str s) !notes));
            ("context", J.Obj context);
            ("report", J.Obj report);
          ]));
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (!failed = 0));
            ("attempted", J.Int (max 1 !attempted));
            ("failed", J.Int !failed);
            ("metrics", json_metrics ms);
          ]))

let tail_json a =
  match S.highest_tail a with
  | Some t ->
      J.Obj
        [
          ("percentile", J.Float t.S.pct);
          ("value_us", J.Float t.S.value);
          ("samples", J.Int t.S.n);
          ("beyond", J.Int t.S.beyond);
        ]
  | None -> J.Obj [ ("samples", J.Int (Array.length a)); ("percentile", J.Null) ]

let tail_value a = match S.highest_tail a with Some t -> t.S.value | None -> 0.
let med_arr a = if Array.length a = 0 then 0. else S.percentile a 50.

(* Median over batches of the per-call time of [f] in microseconds:
   single calls of the serving layers take about a microsecond, below
   the clock's resolution. *)
let per_call_us ?(batches = 15) ?(batch = 200) f =
  let samples =
    List.init batches (fun _ ->
        let t0 = now () in
        for _ = 1 to batch do
          f ()
        done;
        (now () -. t0) *. 1e6 /. float_of_int batch)
  in
  S.median samples

(* --- warm-up child: every workload pays it before its timed phase --------- *)

let warm_args =
  [ "sweep"; "-g"; "ring:48"; "-L"; "16"; "-a"; "fast"; "--all-pairs"; "--pairs"; "4"; "-j"; "2" ]

let warm_up () =
  let wall, steal, code, _, _ = run_child ~out:"warm.out" warm_args in
  if code <> 0 then die "warm-up child exited %d" code;
  S.unstolen ~wall ~steal

(* ==========================================================================
   Sweeps: sweep_allpairs and exp_tables
   ========================================================================== *)

(* The label-pair budget fixes the length of one sweep_allpairs child
   run: about 0.45 s on a 2-core machine, so a run holds dozens. *)
let sweep_pairs = 6
let sweep_jobs = 2

let sweep_args ~jobs =
  [
    "sweep"; "-g"; "ring:128"; "-L"; "128"; "-a"; "fast"; "--all-pairs"; "--max-delay"; "8";
    "-j"; string_of_int jobs; "--pairs"; string_of_int sweep_pairs;
  ]

let exp_args ~jobs = [ "exp"; "--all"; "-j"; string_of_int jobs ]

type sweep_setup = {
  g : Pg.t;
  spec : string;
  algorithm : R.algorithm;
  explorer : start:int -> Rv_explore.Explorer.t;
  space : int;
  pairs : (int * int) list;
  delays : (int * int) list;
}

let sweep_setup () =
  let ok = function Ok v -> v | Error e -> die "%s" e in
  let gs = ok (Spec.parse_graph "ring:128") in
  let explorer = ok (Spec.parse_explorer gs "auto") in
  let algorithm = ok (Spec.parse_algorithm "fast") in
  let max_delay = 8 in
  (* As rv sweep builds them. *)
  let delays =
    if R.delay_tolerant algorithm then
      List.sort_uniq compare [ (0, 0); (0, 1); (0, max_delay); (1, 0); (max_delay, 0) ]
    else [ (0, 0) ]
  in
  {
    g = gs.Spec.g;
    spec = gs.Spec.spec;
    algorithm;
    explorer;
    space = 128;
    pairs = W.sample_pairs ~space:128 ~max_pairs:sweep_pairs;
    delays;
  }

let reference_worst ?pool s =
  W.worst_for ?pool ~graph_spec:s.spec ~g:s.g ~algorithm:s.algorithm ~space:s.space
    ~explorer:s.explorer ~pairs:s.pairs ~positions:`All_pairs ~delays:s.delays ()

(* "| time   | 3302     | 4191 ..." -> 3302 *)
let table_cell text row =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match List.map String.trim (String.split_on_char '|' line) with
         | "" :: name :: v :: _ when name = row -> int_of_string_opt v
         | _ -> None)

(* The timed phase shared by both sweep workloads: child runs of the
   fixed work, back to back, for the run's budget (at least three). *)
let timed_children ~args ~check =
  let deadline = now () +. budget () in
  let rec go acc =
    if List.length acc >= 3 && now () >= deadline then List.rev acc
    else begin
      let wall, steal, code, rss, out = run_child args in
      fail_if (code <> 0) "child %s exited %d" (List.hd args) code;
      if code = 0 then check out;
      go ((wall, steal, rss) :: acc)
    end
  in
  go []

(* A single warm-up child takes tens of milliseconds and varies by a
   quarter from one to the next, hence the median of nine. *)
let setup_warm () =
  let t = List.init 9 (fun _ -> warm_up ()) in
  S.median t

let sweep_e2e ~units ~unit_name runs setup_s extra =
  let walls = List.map (fun (wall, steal, _) -> S.unstolen ~wall ~steal) runs in
  let raw = List.map (fun (w, _, _) -> w) runs and steals = List.map (fun (_, s, _) -> total s) runs in
  let rss = List.map (fun (_, _, r) -> float_of_int r /. 1024.) runs in
  let wall = S.median walls in
  let metrics =
    [
      m "setup_s" "s" setup_s;
      m "wall_s" "s" wall;
      m "peak_rss_mb" "MB" (S.median rss);
      m "throughput_rps" "1/s" (float_of_int units /. wall);
      m "latency_p50_us" "us" (wall *. 1e6);
    ]
  in
  let report =
    [
      ("runs", J.Int (List.length runs));
      ("wall_s_all", J.List (List.map (fun w -> J.Float w) walls));
      ("wall_s_spread", J.Float (if List.length walls >= 2 then S.spread walls else 0.));
      ("raw_wall_s_median", J.Float (S.median raw));
      ("steal_s_median", J.Float (S.median steals));
      ("throughput_unit", J.Str unit_name);
      ( "latency_tail",
        J.Str
          "not reported: one sample per child run gives no percentile with ten samples beyond it" );
    ]
    @ extra
  in
  (metrics, report)

let check_sweep_output ~expected out =
  let t = table_cell out "time" and c = table_cell out "cost" in
  fail_if (t <> Some (fst expected) || c <> Some (snd expected))
    "sweep worst cell %s/%s differs from the 1-domain reference %d/%d"
    (Option.fold ~none:"?" ~some:string_of_int t)
    (Option.fold ~none:"?" ~some:string_of_int c)
    (fst expected) (snd expected)

let bounds_check s (t, c) =
  let e = W.e_of s.explorer in
  let bt = R.proven_time_bound s.algorithm ~e ~space:s.space in
  let bc = R.proven_cost_bound s.algorithm ~e ~space:s.space in
  fail_if (t > bt || c > bc) "worst cell %d/%d exceeds the proven bounds %d/%d" t c bt bc

let sweep_allpairs_untraced () =
  let s = sweep_setup () in
  let setup_s = setup_warm () in
  (* The reference result is computed after the timed phase, in one
     domain and in-process, so it neither counts as set-up nor competes
     with the timed children. *)
  let outs = ref [] in
  let runs = timed_children ~args:(sweep_args ~jobs:sweep_jobs) ~check:(fun o -> outs := o :: !outs) in
  let expected =
    match reference_worst s with Ok r -> r | Error e -> die "reference sweep failed: %s" e
  in
  bounds_check s expected;
  List.iter (check_sweep_output ~expected) !outs;
  let metrics, report =
    sweep_e2e ~units:sweep_pairs ~unit_name:"label pairs answered per second" runs setup_s
      [ ("worst_time", J.Int (fst expected)); ("worst_cost", J.Int (snd expected)) ]
  in
  emit ~report metrics

(* MD5 of `rv exp --all` stdout, committed beside the benchmark; run.sh
   runs from the repository root. *)
let expected_exp_digest () =
  let p = "rvbench/exp_all.md5" in
  if Sys.file_exists p then read_file p else die "committed digest %s not found" p

let exp_tables_untraced () =
  let digest = expected_exp_digest () in
  let setup_s = setup_warm () in
  let runs =
    timed_children ~args:(exp_args ~jobs:sweep_jobs) ~check:(fun out ->
        fail_if (not (S.digest_matches ~expected_hex:digest out))
          "rv exp --all stdout digest %s differs from the committed %s"
          (Digest.to_hex (Digest.string out)) (String.trim digest))
  in
  let metrics, report =
    sweep_e2e ~units:(List.length Rv_experiments.Report.ids) ~unit_name:"experiment tables per second"
      runs setup_s []
  in
  emit ~report metrics

(* --- traced sweeps -----------------------------------------------------------

   The traced run repeats the sweep in this program.  sweep_allpairs is
   rebuilt from the layers' public functions — symmetry detection and
   walk certification, schedule build, trajectory build behind the
   trajectory cache, meeting scan, pool tasks, symmetry replay and the
   in-order merge — with a span around each call, and its worst cell
   must equal the program's.  exp_tables wraps each table's public entry
   point and reads the pool's and the trajectory layer's existing
   rv_obs spans. *)

let gc_delta f =
  let a = Gc.quick_stat () in
  let t0 = now () in
  let r = f () in
  let wall = now () -. t0 in
  let b = Gc.quick_stat () in
  ( r,
    wall,
    [
      m "gc.minor_collections" "count" (float_of_int (b.Gc.minor_collections - a.Gc.minor_collections));
      m "gc.major_collections" "count" (float_of_int (b.Gc.major_collections - a.Gc.major_collections));
      m "gc.minor_words" "words" (b.Gc.minor_words -. a.Gc.minor_words);
    ] )

let same_ports (t0 : Traj.t) (t1 : Traj.t) =
  t0.Traj.rounds = t1.Traj.rounds
  && t0.Traj.first_move = t1.Traj.first_move
  && Array.for_all2 ( = ) t0.Traj.port t1.Traj.port

let traced_sweep ~pool s =
  let n = Pg.n s.g in
  let scan_rounds = Atomic.make 0 in
  S.with_span "sweep" @@ fun () ->
  ignore (S.with_span "dispatch.calibrate" Rv_experiments.Dispatch.constants);
  let build ~label ~start =
    let ex = s.explorer ~start in
    let sched = S.with_span "schedule.build" (fun () -> R.schedule s.algorithm ~space:s.space ~label ~explorer:ex) in
    S.with_span "traj.build" (fun () ->
        Traj.of_blocks ~g:s.g ~start
          (List.map
             (function
               | Rv_core.Schedule.Pause k -> Traj.Still k
               | Rv_core.Schedule.Explore e ->
                   Traj.Run (e.Rv_explore.Explorer.fresh (), e.Rv_explore.Explorer.bound))
             sched))
  in
  let sym =
    S.with_span "symmetry.detect" (fun () ->
        let sy = Sym.detect s.g in
        let labels = List.sort_uniq Int.compare (List.concat_map (fun (a, b) -> [ a; b ]) s.pairs) in
        let autos = Sym.automorphisms sy in
        let certified =
          Sym.reducible sy
          && List.for_all
               (fun label ->
                 let t0 = build ~label ~start:0 in
                 (* autos.(0) is the identity, as in the program's loop *)
                 Seq.for_all
                   (fun phi -> same_ports t0 (build ~label ~start:phi.(0)))
                   (Seq.drop 1 (Array.to_seq autos)))
               labels
        in
        if not certified then die "ring:128 walk family failed symmetry certification";
        sy)
  in
  (* The program's Auto dispatch probes two configurations with the
     reference simulator before choosing the trajectory path. *)
  (match (s.pairs, s.delays) with
  | (la, lb) :: _, (da, db) :: _ ->
      let probe (da, db) =
        S.with_span "dispatch.probe" (fun () ->
            ignore
              (R.run ~g:s.g ~explorer:s.explorer ~algorithm:s.algorithm ~space:s.space
                 { R.label = la; start = 0; delay = da }
                 { R.label = lb; start = 1; delay = db }))
      in
      probe (da, db);
      probe (List.nth s.delays (List.length s.delays - 1))
  | _ -> ());
  let cache = Rv_sim.Traj_cache.create ~build () in
  let pair_arr = Array.of_list s.pairs and delay_arr = Array.of_list s.delays in
  let nd = Array.length delay_arr in
  let reps = n - 1 in
  let chunks = min 8 reps in
  let base = reps / chunks and extra = reps mod chunks in
  let lo j = (j * base) + min j extra in
  let chunked =
    S.with_span "pool.run" @@ fun () ->
    let parent = S.current () in
    Rv_engine.Sweep.map_nested ?pool ~chunk:1 (Array.make (Array.length pair_arr) chunks)
      (fun o j ->
        S.with_span ~parent "pool.task" @@ fun () ->
        let la, lb = pair_arr.(o) in
        let l0 = lo j and l1 = lo (j + 1) in
        let out = Array.make ((l1 - l0) * nd) None in
        for i = l0 to l1 - 1 do
          let ta = Rv_sim.Traj_cache.get cache ~label:la ~start:0 in
          let tb = Rv_sim.Traj_cache.get cache ~label:lb ~start:(i + 1) in
          for d = 0 to nd - 1 do
            let da, db = delay_arr.(d) in
            let max_rounds = max (ta.Traj.rounds + da) (tb.Traj.rounds + db) + 1 in
            let mt =
              S.with_span "traj.scan" (fun () -> Traj.meet ~a:ta ~b:tb ~delay_a:da ~delay_b:db ~max_rounds)
            in
            ignore (Atomic.fetch_and_add scan_rounds mt.Traj.rounds_run);
            out.(((i - l0) * nd) + d) <-
              (match mt.Traj.meeting_round with Some t -> Some (t, mt.Traj.cost) | None -> None)
          done
        done;
        out)
  in
  let worst =
    S.with_span "pool.merge" @@ fun () ->
    Array.fold_left
      (fun acc per_chunk ->
        let table = Array.concat (Array.to_list per_chunk) in
        S.with_span "symmetry.replay" (fun () ->
            let acc = ref acc in
            for pa = 0 to n - 1 do
              for pb = 0 to n - 1 do
                if pa <> pb then begin
                  let _, c = Sym.canon_pair sym pa pb in
                  for d = 0 to nd - 1 do
                    match (!acc, table.(((c - 1) * nd) + d)) with
                    | Some (wt, wc), Some (t, cost) -> acc := Some (max wt t, max wc cost)
                    | _ -> acc := None
                  done
                end
              done
            done;
            !acc))
      (Some (0, 0)) chunked
  in
  (worst, Atomic.get scan_rounds)

let self_of selfs name = match List.assoc_opt name selfs with Some (t, c) -> (t, c) | None -> (0., 0)

(* Busy time per domain from the task spans named [task], and idle time
   as the rest of [window]: (index, busy, idle), in domain order. *)
let pool_split spans ~task ~window =
  let doms = Hashtbl.create 4 in
  List.iter
    (fun sp ->
      if sp.S.name = task then
        Hashtbl.replace doms sp.S.dom
          (Option.value ~default:0. (Hashtbl.find_opt doms sp.S.dom) +. (sp.S.t1 -. sp.S.t0)))
    spans;
  let busy = List.sort compare (Hashtbl.fold (fun d b acc -> (d, b) :: acc) doms []) in
  List.mapi (fun i (_, b) -> (i, b, Float.max 0. (window -. b))) busy

let pool_metrics split =
  List.concat_map
    (fun i ->
      let busy, idle = match List.nth_opt split i with Some (_, b, w) -> (b, w) | None -> (0., 0.) in
      [ m (Printf.sprintf "pool.busy_s.d%d" i) "s" busy; m (Printf.sprintf "pool.idle_s.d%d" i) "s" idle ])
    [ 0; 1 ]

let child_wall args =
  let wall, steal, code, _, out = run_child args in
  fail_if (code <> 0) "child %s exited %d" (List.hd args) code;
  (S.unstolen ~wall ~steal, out)

let process_start_s () =
  S.median (List.init 3 (fun _ -> fst (child_wall [ "version" ])))

(* --- fresh-process measurements -------------------------------------------

   A child rv run starts with an empty heap, and with two domains the
   collections that grow it are a large share of its wall time; a heap
   already grown by earlier work in this process would hide them.  So
   every in-process measurement that is compared with a child's wall
   runs in a fresh process too: this executable re-invoked with --inner,
   which prints one JSON line (wall, metrics, report, result). *)

type inner = { wall : float; metrics : metric list; report : (string * J.t) list; result : string }

let inner_json ~wall ~result metrics report =
  J.to_string
    (J.Obj
       [
         ("wall", J.Float wall);
         ("result", J.Str result);
         ("metrics", J.List (List.map (fun x -> J.List [ J.Str x.name; J.Str x.unit_; J.Float x.value ]) metrics));
         ("report", J.Obj report);
       ])

let run_inner mode =
  let out = "inner.out" in
  let fd_out = Unix.openfile (path out) [ Unix.O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let pid =
    Unix.create_process Sys.executable_name [| Sys.executable_name; "--inner"; mode |] Unix.stdin fd_out Unix.stderr
  in
  Unix.close fd_out;
  live := pid :: !live;
  let code, _ = reap pid in
  if code <> 0 then die "inner run %s exited %d" mode code;
  let text = String.trim (read_file (path out)) in
  let get k fs = List.assoc_opt k fs in
  match J.parse text with
  | Ok (J.Obj fs) ->
      let metrics =
        match get "metrics" fs with
        | Some (J.List l) ->
            List.filter_map
              (function
                | J.List [ J.Str name; J.Str unit_; v ] -> Option.map (fun value -> { name; unit_; value }) (J.to_float v)
                | _ -> None)
              l
        | _ -> []
      in
      {
        wall = Option.value ~default:0. (Option.bind (get "wall" fs) J.to_float);
        result = Option.value ~default:"" (Option.bind (get "result" fs) J.to_str);
        metrics;
        report = (match get "report" fs with Some (J.Obj r) -> r | _ -> []);
      }
  | _ -> die "inner run %s printed no result" mode

let sweep_counters () =
  let st = W.Stats.snapshot () and tc = Rv_sim.Traj_cache.stats () in
  let lookups = tc.Rv_sim.Traj_cache.hits + tc.Rv_sim.Traj_cache.misses in
  let cells = st.W.Stats.reference_cells + st.W.Stats.traj_cells + st.W.Stats.interval_cells in
  ( [
      m "symmetry.coverage" "ratio" (float_of_int st.W.Stats.covered /. float_of_int (max 1 st.W.Stats.simulated));
      m "traj_cache.lookups" "count" (float_of_int lookups);
      m "traj_cache.hit_ratio" "ratio" (float_of_int tc.Rv_sim.Traj_cache.hits /. float_of_int (max 1 lookups));
      m "sim.reference_cells" "count" (float_of_int st.W.Stats.reference_cells);
      m "dispatch.traj_share" "ratio" (float_of_int st.W.Stats.traj_cells /. float_of_int (max 1 cells));
    ],
    [
      ("sym_group", J.Str st.W.Stats.sym_group);
      ("orbit_size", J.Int st.W.Stats.orbit_size);
      ("covered", J.Int st.W.Stats.covered);
      ("simulated", J.Int st.W.Stats.simulated);
      ("traj_cache_misses", J.Int tc.Rv_sim.Traj_cache.misses);
    ] )

let with_jobs jobs f = if jobs > 1 then Rv_engine.Pool.with_pool ~jobs (fun p -> f (Some p)) else f None

let render_digest tables =
  Digest.to_hex (Digest.string (String.concat "" (List.map (fun (_, t) -> Rv_util.Table.render_ascii t) tables)))

(* Untraced, in a fresh process: the program's own entry point. *)
let inner_plain ~exp jobs =
  W.Stats.reset ();
  Rv_sim.Traj_cache.reset_stats ();
  let result, wall, gc =
    if exp then gc_delta (fun () -> render_digest (with_jobs jobs (fun pool -> Rv_experiments.Report.all ?pool ())))
    else
      let s = sweep_setup () in
      gc_delta (fun () ->
          match with_jobs jobs (fun pool -> reference_worst ?pool s) with
          | Ok (t, c) -> Printf.sprintf "%d/%d" t c
          | Error e -> "error: " ^ e)
  in
  let counters, report = sweep_counters () in
  print_endline (inner_json ~wall ~result (counters @ gc) report)

(* Layer self times from the recorded spans.  The spans partition the
   root span: on the calling domain every span counts its self time; the
   pool window counts once, split per worker domain into busy and idle. *)
let layer_accounting spans ~task ~window_span =
  let selfs = S.self_by_name spans in
  let window = match List.find_opt (fun sp -> sp.S.name = window_span) spans with
    | Some sp -> sp.S.t1 -. sp.S.t0 | None -> 0. in
  let caller = match List.find_opt (fun sp -> sp.S.parent = -1) spans with Some r -> r.S.dom | None -> 0 in
  let on_caller, window_self =
    List.fold_left
      (fun (acc, ws) (sp, st) ->
        if sp.S.name = window_span then (acc +. st, ws +. st)
        else if sp.S.dom = caller then (acc +. st, ws)
        else (acc, ws))
      (0., 0.) (S.self_times spans)
  in
  (selfs, pool_split spans ~task ~window, on_caller -. window_self +. window)

let inner_traced_sweep () =
  let s = sweep_setup () in
  ignore (S.take_spans ());
  let t0 = now () in
  let worst, scan_rounds =
    S.with_span "sweep" (fun () -> with_jobs sweep_jobs (fun pool -> traced_sweep ~pool s))
  in
  let wall = now () -. t0 in
  let spans = S.take_spans () in
  let selfs, split, accounted = layer_accounting spans ~task:"pool.task" ~window_span:"pool.run" in
  let self name = fst (self_of selfs name) and count name = float_of_int (snd (self_of selfs name)) in
  let metrics =
    [
      m "symmetry.detect_s" "s" (self "symmetry.detect");
      m "symmetry.setup_s" "s"
        (match List.find_opt (fun sp -> sp.S.name = "symmetry.detect") spans with
        | Some sp -> sp.S.t1 -. sp.S.t0
        | None -> 0.);
      m "symmetry.replay_s" "s" (self "symmetry.replay");
      m "schedule.build_s" "s" (self "schedule.build");
      m "schedule.builds" "count" (count "schedule.build");
      m "traj.build_s" "s" (self "traj.build");
      m "traj.builds" "count" (count "traj.build");
      m "traj.scan_s" "s" (self "traj.scan");
      m "traj.scan_rounds" "count" (float_of_int scan_rounds);
      m "dispatch.calibrate_s" "s" (self "dispatch.calibrate");
      m "dispatch.probe_s" "s" (self "dispatch.probe");
      m "pool.tasks" "count" (count "pool.task");
      m "pool.merge_s" "s" (self "pool.merge");
    ]
    @ pool_metrics split
  in
  let result = match worst with Some (t, c) -> Printf.sprintf "%d/%d" t c | None -> "no rendezvous" in
  let report =
    [
      ("accounted_s", J.Float accounted);
      ( "layer_self_s",
        J.Obj (List.map (fun (n, (t, c)) -> (n, J.Obj [ ("self_s", J.Float t); ("spans", J.Int c) ])) selfs) );
    ]
  in
  print_endline (inner_json ~wall ~result metrics report)

let inner_traced_exp () =
  ignore (S.take_spans ());
  Rv_obs.Obs.reset ();
  let t0 = now () in
  let tables =
    S.with_span "exp" @@ fun () ->
    ignore (S.with_span "dispatch.calibrate" Rv_experiments.Dispatch.constants);
    with_jobs sweep_jobs @@ fun pool ->
    Rv_obs.Obs.set_enabled true;
    let r =
      List.map
        (fun id ->
          match Rv_experiments.Report.by_id id with
          | Some f -> (id, S.with_span ("exp." ^ id) (fun () -> f ?pool ()))
          | None -> die "unknown experiment %s" id)
        Rv_experiments.Report.ids
    in
    Rv_obs.Obs.set_enabled false;
    r
  in
  let wall = now () -. t0 in
  let events = Rv_obs.Obs.events () in
  let spans = S.take_spans () in
  let selfs = S.self_by_name spans in
  let obs name =
    List.fold_left
      (fun (t, c) e ->
        match e.Rv_obs.Obs.kind with
        | Rv_obs.Obs.Span { dur_us; _ } when e.Rv_obs.Obs.name = name -> (t +. (dur_us /. 1e6), c + 1)
        | _ -> (t, c))
      (0., 0) events
  in
  (* The pool's own chunk spans, one lane per worker domain. *)
  let chunks =
    List.filter_map
      (fun e ->
        match e.Rv_obs.Obs.kind with
        | Rv_obs.Obs.Span { dur_us; _ } when e.Rv_obs.Obs.name = "pool.chunk" ->
            Some { S.id = 0; parent = -1; name = "pool.chunk"; dom = e.Rv_obs.Obs.tid; t0 = 0.; t1 = dur_us /. 1e6 }
        | _ -> None)
      events
  in
  let split = pool_split chunks ~task:"pool.chunk" ~window:(fst (obs "sweep.map_array")) in
  let tb, ntb = obs "traj.build" and ts, nts = obs "traj.scan" in
  let metrics =
    [
      m "traj.build_s" "s" tb;
      m "traj.builds" "count" (float_of_int ntb);
      m "traj.scan_s" "s" ts;
      m "dispatch.calibrate_s" "s" (fst (self_of selfs "dispatch.calibrate"));
      m "pool.tasks" "count" (float_of_int (List.length chunks));
    ]
    @ List.map (fun id -> m (exp_metric id) "s" (fst (self_of selfs ("exp." ^ id)))) Rv_experiments.Report.ids
    @ pool_metrics split
  in
  let accounted = List.fold_left (fun acc (_, (t, _)) -> acc +. t) 0. selfs in
  let report =
    [
      ("accounted_s", J.Float accounted);
      ("traj_scans", J.Int nts);
      ( "not_measured",
        J.Str
          "symmetry.*, schedule.*, traj.scan_rounds, dispatch.probe_s and pool.merge_s are 0 here: \
           those calls happen inside the experiments, which the benchmark wraps per table; traj.* \
           and pool.* come from the program's own rv_obs spans" );
    ]
  in
  print_endline (inner_json ~wall ~result:(render_digest tables) metrics report)

(* The parent side of a traced sweep: child walls at 2 and 1 domains,
   the process start cost, then the untraced and traced in-process runs
   in fresh processes.  Tracing overhead is traced minus untraced; the
   layers account for the child's wall when their sum, less that
   overhead, plus process start, comes to the child's wall. *)
let traced_sweeps ~exp =
  let args jobs = if exp then exp_args ~jobs else sweep_args ~jobs in
  let check =
    if exp then
      let digest = expected_exp_digest () in
      fun out -> fail_if (not (S.digest_matches ~expected_hex:digest out)) "rv exp --all stdout digest differs"
    else begin
      let s = sweep_setup () in
      let expected = match reference_worst s with Ok r -> r | Error e -> die "reference sweep failed: %s" e in
      bounds_check s expected;
      check_sweep_output ~expected
    end
  in
  let mode kind = (if exp then "exp:" else "sweep:") ^ kind in
  (* Rounds of (child at 2 domains, child at 1, untraced, traced) until
     the budget is spent, at least three: walls are medians. *)
  let deadline = now () +. budget () in
  let rec rounds acc =
    if List.length acc >= 3 && now () >= deadline then acc
    else begin
      let child2, out2 = child_wall (args sweep_jobs) in
      check out2;
      let child1, out1 = child_wall (args 1) in
      check out1;
      let plain = run_inner (mode "plain") in
      let traced = run_inner (mode "traced") in
      fail_if (plain.result <> traced.result) "traced result %s differs from untraced %s" traced.result
        plain.result;
      rounds ((child2, child1, plain, traced) :: acc)
    end
  in
  let all = rounds [] in
  let med f = S.median (List.map f all) in
  let child2 = med (fun (c, _, _, _) -> c) and child1 = med (fun (_, c, _, _) -> c) in
  let plain_wall = med (fun (_, _, p, _) -> p.wall) and traced_wall = med (fun (_, _, _, t) -> t.wall) in
  let _, _, plain, traced = List.hd all in
  let exec_s = process_start_s () in
  let accounted_layers =
    match List.assoc_opt "accounted_s" traced.report with Some v -> Option.value ~default:0. (J.to_float v) | None -> 0.
  in
  let overhead = traced_wall -. plain_wall in
  let accounted = accounted_layers -. (traced.wall -. plain_wall) +. exec_s in
  let metrics =
    traced.metrics @ plain.metrics
    @ [
        m "pool.speedup_2v1" "ratio" (child1 /. child2);
        m "trace.overhead_share" "ratio" (overhead /. plain_wall);
        m "trace.accounted_share" "ratio" (accounted /. child2);
      ]
  in
  let report =
    [
      ("child_wall_2domain_s", J.Float child2);
      ("child_wall_1domain_s", J.Float child1);
      ("process_start_s", J.Float exec_s);
      ("rounds", J.Int (List.length all));
      ("inprocess_untraced_wall_s", J.Float plain_wall);
      ("inprocess_traced_wall_s", J.Float traced_wall);
      ("tracing_overhead_s", J.Float overhead);
      ("layers_accounted_s", J.Float accounted_layers);
      ("accounted_s", J.Float accounted);
      ("untraced", J.Obj plain.report);
      ("traced", J.Obj traced.report);
    ]
  in
  (metrics, report)

(* ==========================================================================
   Serving: serve_hits and serve_compute
   ========================================================================== *)

let worst_line ~id ~graph ~space ~pairs ~max_delay ~debug =
  Printf.sprintf
    {|{"type":"worst","id":%d,"graph":"%s","algorithm":"fast","explorer":"auto","space":%d,"pairs":%d,"max_delay":%d%s}|}
    id graph space pairs max_delay
    (if debug then {|,"debug":true|} else "")

type key = { graph : string; space : int; kpairs : int; max_delay : int }

let query_of k =
  Proto.Worst
    {
      Proto.w_graph = k.graph;
      w_algorithm = "fast";
      w_explorer = "auto";
      w_space = k.space;
      w_max_pairs = k.kpairs;
      w_max_delay = k.max_delay;
    }

(* The baked index covers these cells; the LRU-only hot keys are warmed
   into the cache during set-up; fresh keys come from a disjoint space
   (ring sizes 26..64) and are each computed once. *)
let index_keys =
  List.concat_map
    (fun graph ->
      List.concat_map
        (fun kpairs -> List.map (fun max_delay -> { graph; space = 16; kpairs; max_delay }) [ 4; 8 ])
        [ 4; 8 ])
    [ "ring:16"; "ring:24" ]

let lru_keys = List.map (fun k -> { k with graph = (if k.graph = "ring:16" then "ring:12" else "ring:20") }) index_keys

let bake_args out =
  [ "bake"; "-o"; out; "--graphs"; "ring:16,ring:24"; "--spaces"; "16"; "--pairs"; "4,8"; "--max-delays"; "4,8"; "-j"; "1" ]

let fresh_space =
  List.concat_map
    (fun n ->
      List.concat_map
        (fun space ->
          List.concat_map
            (fun kpairs ->
              List.map (fun max_delay -> { graph = Printf.sprintf "ring:%d" n; space; kpairs; max_delay })
                [ 1; 2; 3; 4; 5; 6; 7; 8 ])
            [ 2; 3; 4 ])
        [ 8; 16; 24; 32 ])
    (List.init 39 (fun i -> 26 + i))

let expected_fields k =
  match Handler.eval ~deadline_us:None (query_of k) with
  | Handler.Done f -> f
  | Handler.Failed (_, msg, _) -> die "in-process evaluation failed: %s" msg

(* --- server child --------------------------------------------------------- *)

type server = { pid : int; port : int }

(* The server binds an ephemeral port and names it on its first line. *)
let start_server ~index =
  let log = "serve.out" in
  let pid = spawn ~out:log [ "serve"; "--port"; "0"; "-j"; "1"; "--index"; index ] in
  let deadline = now () +. 20. in
  let marker = "listening on 127.0.0.1:" in
  let ml = String.length marker in
  let rec find text i =
    if i + ml > String.length text then None
    else if String.sub text i ml = marker then begin
      let j = ref (i + ml) in
      while !j < String.length text && text.[!j] >= '0' && text.[!j] <= '9' do incr j done;
      int_of_string_opt (String.sub text (i + ml) (!j - i - ml))
    end
    else find text (i + 1)
  in
  let rec port () =
    match find (try read_file (path log) with Sys_error _ -> "") 0 with
    | Some p -> p
    | None when now () > deadline -> die "server did not report its port"
    | None ->
        Unix.sleepf 0.005;
        port ()
  in
  { pid; port = port () }

(* Peak RSS (KiB) of a live child.  A forked child's rusage peak also
   counts the parent's resident pages at fork time, which here grow with
   the client's data, so the server's own high-water mark is read while
   it is still running. *)
let vm_hwm_kb pid =
  match In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all with
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun l ->
             match String.split_on_char ':' l with
             | [ "VmHWM"; v ] -> int_of_string_opt (String.trim (Filename.chop_suffix (String.trim v) "kB"))
             | _ -> None)
  | exception Sys_error _ -> None

let stop_server srv =
  let hwm = vm_hwm_kb srv.pid in
  (try Unix.kill srv.pid Sys.sigterm with Unix.Unix_error _ -> ());
  (* A drain that hangs must not hang the benchmark. *)
  let done_ = Atomic.make false in
  let killer =
    Thread.create
      (fun () ->
        let t0 = now () in
        while (not (Atomic.get done_)) && now () -. t0 < 10. do Thread.delay 0.01 done;
        if not (Atomic.get done_) then try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ())
      ()
  in
  let code, rss = reap srv.pid in
  Atomic.set done_ true;
  Thread.join killer;
  (code, Option.value ~default:rss hwm)

(* --- client ----------------------------------------------------------------

   One thread multiplexes the connections with select, so the client
   adds no lock contention of its own.  Replies carry the request id and
   may arrive out of order on a connection (cached answers overtake
   queued compute), so they are matched by id. *)

type conn = { fd : Unix.file_descr; buf : Buffer.t }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; buf = Buffer.create 4096 }

let send c line =
  let s = line ^ "\n" in
  let rec go off = if off < String.length s then go (off + Unix.write_substring c.fd s off (String.length s - off)) in
  go 0

let chunk = Bytes.create 65536

(* Complete lines now buffered on [c]. *)
let read_lines c =
  let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
  if n = 0 then raise End_of_file;
  Buffer.add_subbytes c.buf chunk 0 n;
  let s = Buffer.contents c.buf in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some last ->
      Buffer.clear c.buf;
      Buffer.add_string c.buf (String.sub s (last + 1) (String.length s - last - 1));
      List.filter (fun l -> l <> "") (String.split_on_char '\n' (String.sub s 0 last))

let reply_id line =
  let p = {|{"id":|} in
  let pl = String.length p in
  if String.length line > pl && String.sub line 0 pl = p then
    let j = ref pl in
    while !j < String.length line && line.[!j] >= '0' && line.[!j] <= '9' do incr j done;
    int_of_string_opt (String.sub line pl (!j - pl))
  else None

type req = {
  rid : int;
  line : string;
  rkey : key;
  kind : [ `Index | `Cache | `Fresh ];
  on : int;  (** connection index *)
  mutable due : float;
  mutable sent : float;
  mutable recv : float;
  mutable reply : string option;
}

let next_id = ref 0

let make_req ~debug ~on kind k =
  incr next_id;
  {
    rid = !next_id;
    line = worst_line ~id:!next_id ~graph:k.graph ~space:k.space ~pairs:k.kpairs ~max_delay:k.max_delay ~debug;
    rkey = k;
    kind;
    on;
    due = 0.;
    sent = 0.;
    recv = 0.;
    reply = None;
  }

(* Drive [reqs] over [conns].  Closed loop: each connection keeps one
   request outstanding and sends its next one when the reply arrives
   (due = sent).  Open loop: each request is sent at its [due] time
   (already set), whatever is outstanding.  Returns when every request
   has its reply or [give_up] passes. *)
let drive ~closed ~give_up conns (reqs : req array) =
  let by_id = Hashtbl.create (Array.length reqs) in
  Array.iter (fun r -> Hashtbl.replace by_id r.rid r) reqs;
  let pending = ref (Array.length reqs) in
  let nconn = Array.length conns in
  let queues = Array.make nconn [] in
  Array.iter (fun r -> queues.(r.on) <- r :: queues.(r.on)) reqs;
  Array.iteri (fun i q -> queues.(i) <- List.rev q) queues;
  let send_one r =
    let t = now () in
    if closed then r.due <- t;
    r.sent <- t;
    try send conns.(r.on) r.line with Unix.Unix_error _ -> ()
  in
  let next_open = ref 0 in
  let order = Array.copy reqs in
  if not closed then Array.sort (fun a b -> Float.compare a.due b.due) order;
  let send_next_closed i =
    match queues.(i) with
    | r :: rest ->
        queues.(i) <- rest;
        send_one r
    | [] -> ()
  in
  if closed then Array.iteri (fun i _ -> send_next_closed i) conns;
  let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
  while !pending > 0 && now () < give_up do
    let t = now () in
    if not closed then
      while !next_open < Array.length order && order.(!next_open).due <= t do
        send_one order.(!next_open);
        incr next_open
      done;
    let timeout =
      if closed || !next_open >= Array.length order then 0.05
      else Float.max 0. (order.(!next_open).due -. now ())
    in
    match Unix.select fds [] [] timeout with
    | readable, _, _ ->
        List.iter
          (fun fd ->
            let i = ref 0 in
            Array.iteri (fun j c -> if c.fd = fd then i := j) conns;
            let c = conns.(!i) in
            match read_lines c with
            | lines ->
                let t = now () in
                List.iter
                  (fun line ->
                    match Option.bind (reply_id line) (Hashtbl.find_opt by_id) with
                    | Some r when r.reply = None ->
                        r.recv <- t;
                        r.reply <- Some line;
                        decr pending;
                        if closed then send_next_closed !i
                    | _ -> notes := ("unmatched reply: " ^ line) :: !notes)
                  lines
            | exception (End_of_file | Unix.Unix_error _) -> ())
          readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let admin port line =
  let c = connect port in
  Fun.protect ~finally:(fun () -> Unix.close c.fd) @@ fun () ->
  send c line;
  let rec go () =
    match read_lines c with
    | l :: _ -> l
    | [] -> go ()
  in
  go ()

let wait_healthy port =
  let deadline = now () +. 10. in
  let rec go () =
    match admin port {|{"type":"health","id":0}|} with
    | l when String.length l > 0 -> ()
    | _ -> go ()
    | exception Unix.Unix_error _ when now () < deadline ->
        Unix.sleepf 0.01;
        go ()
  in
  go ()

(* --- serve workloads ---------------------------------------------------------- *)

let conns_n = 2

(* serve_hits: a pass of this many requests takes about 0.4 s, long
   against the 10 ms ticks in which steal is counted. *)
let hits_per_pass = 8000

(* serve_compute: a fixed open-loop rate, one fifth fresh compute, in
   passes of [pass_s]. *)
let compute_rate = 250.
let pass_s = 1.0

type serve_state = {
  expected : (key, (string * J.t) list) Hashtbl.t;
  rng : Random.State.t;
  mutable fresh : key list;  (** unused fresh keys, seeded order *)
  used_fresh : (key, unit) Hashtbl.t;
}

let serve_state () =
  let rng = Random.State.make [| !seed; 0x5e17e |] in
  let expected = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace expected k (expected_fields k)) (index_keys @ lru_keys);
  let fresh = Array.of_list fresh_space in
  for i = Array.length fresh - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = fresh.(i) in
    fresh.(i) <- fresh.(j);
    fresh.(j) <- t
  done;
  { expected; rng; fresh = Array.to_list fresh; used_fresh = Hashtbl.create 256 }

let hot =
  Array.of_list (List.map (fun k -> (`Index, k)) index_keys @ List.map (fun k -> (`Cache, k)) lru_keys)

let hot_key st = hot.(Random.State.int st.rng (Array.length hot))

let take_fresh st =
  match st.fresh with
  | k :: rest ->
      st.fresh <- rest;
      if Hashtbl.mem st.used_fresh k then die "fresh key repeated within a run";
      Hashtbl.replace st.used_fresh k ();
      k
  | [] -> die "fresh key space exhausted"

(* Set-up: bake an index, spawn the server, wait until health answers,
   warm the cache.  Returns its wall time less steal, with the server
   and open connections. *)
let serve_setup i =
  let s0 = steal_s () in
  let t0 = now () in
  let idx = path (Printf.sprintf "index-%d.bin" i) in
  let _, _, code, _, _ = run_child ~out:"bake.out" (bake_args idx) in
  if code <> 0 then die "rv bake exited %d" code;
  let srv = start_server ~index:idx in
  wait_healthy srv.port;
  let conns = Array.init conns_n (fun _ -> connect srv.port) in
  let warm =
    Array.of_list
      (List.mapi
         (fun j k -> make_req ~debug:false ~on:(j mod conns_n) (if List.mem k index_keys then `Index else `Cache) k)
         (index_keys @ lru_keys @ index_keys @ lru_keys))
  in
  drive ~closed:true ~give_up:(now () +. 30.) conns warm;
  (S.unstolen ~wall:(now () -. t0) ~steal:(steal_since s0), srv, conns, idx)

let close_server srv conns =
  Array.iter (fun c -> Unix.close c.fd) conns;
  let code, rss = stop_server srv in
  fail_if (code <> 0) "server exited %d" code;
  rss

let render_expected st r =
  match r.kind with
  | `Fresh -> None
  | `Index | `Cache -> Some (Proto.ok_line ~id:(Some r.rid) (Hashtbl.find st.expected r.rkey))

let json_int line field =
  let p = Printf.sprintf {|"%s":|} field in
  let pl = String.length p in
  let rec find i =
    if i + pl > String.length line then None
    else if String.sub line i pl = p then begin
      let j = ref (i + pl) in
      while !j < String.length line && (line.[!j] = '-' || (line.[!j] >= '0' && line.[!j] <= '9')) do incr j done;
      int_of_string_opt (String.sub line (i + pl) (!j - i - pl))
    end
    else find (i + 1)
  in
  find 0

(* Stage durations from debug replies: "stages":[{"stage":"queue","start_us":..,"dur_us":..}] *)
let debug_stage line stage =
  let p = Printf.sprintf {|{"stage":"%s","start_us":|} stage in
  let pl = String.length p in
  let rec find i =
    if i + pl > String.length line then None
    else if String.sub line i pl = p then
      let rest = String.sub line (i + pl) (String.length line - i - pl) in
      match String.index_opt rest ':' with
      | Some k ->
          let j = ref (k + 1) in
          while !j < String.length rest && (rest.[!j] = '.' || (rest.[!j] >= '0' && rest.[!j] <= '9')) do incr j done;
          float_of_string_opt (String.sub rest (k + 1) (!j - k - 1))
      | None -> None
    else find (i + 1)
  in
  find 0

(* One pass of the request script, reduced as soon as it ends so the
   client's own heap stays small: hit replies are checked against their
   in-process rendering and dropped; fresh replies are kept for the check
   after the timed phase.  Latencies run from the due time. *)
type pass = {
  wall : float;
  steal : float array;  (** steal seconds per vCPU during the pass *)
  completed : int;
  lat : float list;
  hit_lat : float list;
  late : float list;
  fresh : req list;
  srv_total : float list;  (** debug replies: the server's own total *)
  queue_wait : float list;  (** debug replies to fresh requests: queue stage *)
}

let finish_pass st ~debug ~t0 ~steal reqs =
  let last = Array.fold_left (fun acc r -> Float.max acc r.recv) t0 reqs in
  let p =
    ref { wall = last -. t0; steal; completed = 0; lat = []; hit_lat = []; late = []; fresh = []; srv_total = []; queue_wait = [] }
  in
  Array.iter
    (fun r ->
      let smp = { S.due = r.due; sent = r.sent; recv = r.recv } in
      let q = !p in
      let q = { q with late = S.lateness_us smp :: q.late } in
      let q =
        match r.reply with
        | None -> q
        | Some line ->
            let l = S.latency_us smp in
            let q = { q with completed = q.completed + 1; lat = l :: q.lat } in
            let q = if r.kind = `Fresh then q else { q with hit_lat = l :: q.hit_lat } in
            if not debug then q
            else
              let q =
                match json_int line "total_us" with
                | Some t -> { q with srv_total = float_of_int t :: q.srv_total }
                | None -> q
              in
              if r.kind <> `Fresh then q
              else match debug_stage line "queue" with Some w -> { q with queue_wait = w :: q.queue_wait } | None -> q
      in
      p :=
        (match render_expected st r with
        | Some expected ->
            fail_if
              (S.failures [ (expected, r.reply) ] > 0)
              "reply to %s: got %s, expected %s" r.line (Option.value ~default:"(none)" r.reply) expected;
            q
        | None -> { q with fresh = r :: q.fresh }))
    reqs;
  !p

let run_passes ~compute ~debug ~seconds st conns =
  let deadline = now () +. seconds in
  let passes = ref [] in
  (* Start a pass only if it should end inside the budget. *)
  let expected () = match !passes with p :: _ -> p.wall | [] -> 0. in
  while !passes = [] || now () +. expected () < deadline do
    let reqs =
      if not compute then
        Array.init hits_per_pass (fun j ->
            let kind, k = hot_key st in
            make_req ~debug ~on:(j mod conns_n) kind k)
      else begin
        let n = int_of_float (compute_rate *. pass_s) in
        let t0 = now () +. 0.01 in
        Array.init n (fun j ->
            let r =
              if Random.State.int st.rng 5 = 0 then make_req ~debug ~on:(j mod conns_n) `Fresh (take_fresh st)
              else
                let kind, k = hot_key st in
                make_req ~debug ~on:(j mod conns_n) kind k
            in
            r.due <- t0 +. (float_of_int j /. compute_rate);
            r)
      end
    in
    let t0 = if compute then reqs.(0).due else now () in
    let s0 = steal_s () in
    drive ~closed:(not compute) ~give_up:(now () +. pass_s +. 30.) conns reqs;
    let steal = steal_since s0 in
    passes := finish_pass st ~debug ~t0 ~steal reqs :: !passes
  done;
  List.rev !passes

(* Fresh keys are evaluated in-process after the timed phase.  Returns
   the per-call compute times (microseconds). *)
let check_fresh passes =
  List.concat_map
    (fun p ->
      List.map
        (fun r ->
          let t0 = now () in
          let f = expected_fields r.rkey in
          let us = (now () -. t0) *. 1e6 in
          let expected = Proto.ok_line ~id:(Some r.rid) f in
          fail_if
            (S.failures [ (expected, r.reply) ] > 0)
            "reply to %s: got %s, expected %s" r.line (Option.value ~default:"(none)" r.reply) expected;
          us)
        p.fresh)
    passes

let collect f passes = S.sorted (List.concat_map f passes)

let serve_e2e ~compute setup_s rss passes =
  let lat = collect (fun p -> p.lat) passes in
  let hits = collect (fun p -> p.hit_lat) passes in
  let late = collect (fun p -> p.late) passes in
  (* A closed-loop pass is the client and the server taking turns on the
     two vCPUs, so steal on either lengthens it, as for a 2-domain child;
     an open-loop pass lasts as long as its schedule, which steal does
     not lengthen. *)
  let walls = List.map (fun p -> if compute then p.wall else S.unstolen ~wall:p.wall ~steal:p.steal) passes in
  (* Per pass, then the median pass: a few stalled passes move the tail,
     reported below, not the throughput. *)
  let rates = List.map2 (fun p w -> if w > 0. then float_of_int p.completed /. w else 0.) passes walls in
  let metrics =
    [
      m "setup_s" "s" setup_s;
      m "wall_s" "s" (S.median walls);
      m "peak_rss_mb" "MB" (rss /. 1024.);
      m "throughput_rps" "1/s" (S.median rates);
      m "latency_p50_us" "us" (med_arr lat);
    ]
  in
  let report =
    [
      ("loop", J.Str (if compute then Printf.sprintf "open, %.0f req/s over %d connections" compute_rate conns_n
                      else Printf.sprintf "closed, %d connections" conns_n));
      ("passes", J.Int (List.length passes));
      ("pass_wall_s", J.List (List.map (fun w -> J.Float w) walls));
      ("raw_pass_wall_s_median", J.Float (S.median (List.map (fun p -> p.wall) passes)));
      ("steal_s_median", J.Float (S.median (List.map (fun p -> total p.steal) passes)));
      ("requests", J.Int (Array.length late));
      ("fresh_requests", J.Int (List.fold_left (fun n p -> n + List.length p.fresh) 0 passes));
      ("latency_p50_us", J.Float (med_arr lat));
      ("latency_p99_us", tail_json lat);
      ("hit_p99_us", tail_json hits);
      ("generator_lateness_p50_us", J.Float (med_arr late));
      ("generator_lateness_tail_us", tail_json late);
    ]
  in
  (metrics, report)

let metrics_probe port = admin port {|{"type":"metrics","id":0}|}

(* The timed phase is split over [servers] server processes, each set
   up afresh: a server's thread placement and memory layout hold for its
   whole life, so spreading the run over several makes the run's medians
   steadier.  The set-up time reported is the median of theirs. *)
let servers = 8

let serve_untraced ~compute () =
  let st = serve_state () in
  let segments =
    List.init servers (fun i ->
        let setup_s, srv, conns, _ = serve_setup i in
        let passes = run_passes ~compute ~debug:false ~seconds:(budget () /. float_of_int servers) st conns in
        (setup_s, close_server srv conns, passes))
  in
  let passes = List.concat_map (fun (_, _, p) -> p) segments in
  ignore (check_fresh passes);
  let setup_s = S.median (List.map (fun (s, _, _) -> s) segments) in
  let rss = S.median (List.map (fun (_, r, _) -> float_of_int r) segments) in
  let metrics, report = serve_e2e ~compute setup_s rss passes in
  emit ~report metrics

(* Prometheus sample value for a labelled latency series. *)
let prom_latency body ~path ~q =
  let want = Printf.sprintf {|rv_serve_latency_us{kind="worst",path="%s",quantile="%s",window="1m"} |} path q in
  String.split_on_char '\n' body
  |> List.find_map (fun l ->
         let wl = String.length want in
         if String.length l > wl && String.sub l 0 wl = want then float_of_string_opt (String.sub l wl (String.length l - wl))
         else None)
  |> Option.value ~default:0.

let prom_counter body name =
  String.split_on_char '\n' body
  |> List.find_map (fun l ->
         match String.split_on_char ' ' l with [ n; v ] when n = name -> float_of_string_opt v | _ -> None)
  |> Option.value ~default:0.

let serve_traced ~compute () =
  let st = serve_state () in
  let _, srv, conns, idx = serve_setup 0 in
  (* Untraced passes first, then the same traffic with debug replies (the
     server's per-request stage spans, sharing the request id). *)
  let half = Float.max 1. (budget () /. 2.) in
  let plain = run_passes ~compute ~debug:false ~seconds:half st conns in
  let depth_max = ref 0 in
  let stop_poll = Atomic.make false in
  let poller =
    Thread.create
      (fun () ->
        while not (Atomic.get stop_poll) do
          (try
             match json_int (admin srv.port {|{"type":"health","id":0}|}) "queue_depth" with
             | Some d -> if d > !depth_max then depth_max := d
             | None -> ()
           with Unix.Unix_error _ -> ());
          Thread.delay 0.02
        done)
      ()
  in
  let traced = run_passes ~compute ~debug:true ~seconds:half st conns in
  Atomic.set stop_poll true;
  Thread.join poller;
  let mline = metrics_probe srv.port in
  let prom = admin srv.port {|{"type":"metrics","format":"prometheus","id":0}|} in
  let body =
    match J.parse prom with
    | Ok (J.Obj fs) -> (match List.assoc_opt "body" fs with Some (J.Str b) -> b | _ -> "")
    | _ -> ""
  in
  ignore (close_server srv conns);
  let compute_us = S.sorted (check_fresh (plain @ traced)) in
  let client_plain = med_arr (collect (fun p -> p.lat) plain) in
  let client_traced = med_arr (collect (fun p -> p.lat) traced) in
  let server_total = collect (fun p -> p.srv_total) traced in
  let queue_wait = collect (fun p -> p.queue_wait) traced in
  (* In-process timings of the serving layers' public functions on this
     workload's own requests. *)
  let ctr = ref 0 in
  let lines =
    Array.of_list
      (List.map
         (fun k -> worst_line ~id:7 ~graph:k.graph ~space:k.space ~pairs:k.kpairs ~max_delay:k.max_delay ~debug:false)
         (index_keys @ lru_keys))
  in
  let parse_us = per_call_us (fun () -> incr ctr; ignore (Proto.parse lines.(!ctr mod Array.length lines))) in
  let reader =
    match Rv_index.Reader.open_ idx with Ok r -> r | Error e -> die "index: %s" e
  in
  let idx_keys = Array.of_list (List.map (fun k -> Proto.canonical_key (query_of k)) index_keys) in
  let lookup_us = per_call_us (fun () -> incr ctr; ignore (Rv_index.Reader.lookup reader idx_keys.(!ctr mod 8))) in
  let cache = Rv_serve.Cache.create ~max_bytes:(8 * 1024 * 1024) in
  let lru = Array.of_list (List.map (fun k -> (Proto.canonical_key (query_of k), Hashtbl.find st.expected k)) lru_keys) in
  Array.iter (fun (k, f) -> Rv_serve.Cache.add cache k f) lru;
  let find_us = per_call_us (fun () -> incr ctr; ignore (Rv_serve.Cache.find cache (fst lru.(!ctr mod 8)))) in
  let render_us =
    per_call_us (fun () -> incr ctr; ignore (Proto.ok_line ~id:(Some !ctr) (snd lru.(!ctr mod 8))))
  in
  let scratch_cache = Rv_serve.Cache.create ~max_bytes:(8 * 1024 * 1024) in
  let add_us =
    per_call_us (fun () ->
        incr ctr;
        Rv_serve.Cache.add scratch_cache (string_of_int !ctr) (snd lru.(!ctr mod 8)))
  in
  let ratio a b = if a +. b = 0. then 0. else a /. (a +. b) in
  let fi f = Option.fold ~none:0. ~some:float_of_int (json_int mline f) in
  let server_p50 = med_arr server_total in
  let metrics =
    [
        m "gc.minor_collections" "count" (prom_counter body "rv_serve_gc_minor_collections_total");
        m "gc.major_collections" "count" (prom_counter body "rv_serve_gc_major_collections_total");
        m "gc.minor_words" "words" 0.;
        m "trace.overhead_share" "ratio" ((client_traced -. client_plain) /. client_plain);
        m "trace.accounted_share" "ratio" (server_p50 /. client_traced);
        m "proto.parse_us" "us" parse_us;
        m "index.lookup_us" "us" lookup_us;
        m "index.hit_ratio" "ratio" (ratio (fi "index_hits") (fi "index_misses"));
        m "cache.find_us" "us" find_us;
        m "cache.hit_ratio" "ratio" (ratio (fi "cache_hits") (fi "cache_misses"));
        m "handler.render_us" "us" render_us;
        m "cache.add_us" "us" add_us;
        m "cache.evictions" "count" (fi "cache_evictions");
        m "handler.compute_p50_us" "us" (med_arr compute_us);
        m "handler.compute_tail_us" "us" (tail_value compute_us);
        m "admission.queue_wait_us" "us" (med_arr queue_wait);
        m "admission.depth_max" "count" (float_of_int !depth_max);
        m "admission.shed" "count" (fi "overloaded");
        m "server.p50_us.index" "us_log2_ub" (prom_latency body ~path:"index" ~q:"0.5");
        m "server.p50_us.cache" "us_log2_ub" (prom_latency body ~path:"cache" ~q:"0.5");
        m "server.p50_us.compute" "us_log2_ub" (prom_latency body ~path:"sim" ~q:"0.5");
        m "server.p99_us.index" "us_log2_ub" (prom_latency body ~path:"index" ~q:"0.99");
        m "server.p99_us.cache" "us_log2_ub" (prom_latency body ~path:"cache" ~q:"0.99");
        m "server.p99_us.compute" "us_log2_ub" (prom_latency body ~path:"sim" ~q:"0.99");
        m "wire.residual_p50_us" "us" (client_traced -. server_p50);
      ]
  in
  ignore compute;
  let report =
    [
      ("client_p50_us_untraced", J.Float client_plain);
      ("client_p50_us_traced", J.Float client_traced);
      ("server_total_p50_us_exact", J.Float server_p50);
      ("handler_compute_tail", tail_json compute_us);
      ("server_percentiles", J.Str "server.p50_us.* and server.p99_us.* are log2 bucket upper bounds from the metrics probe");
    ]
  in
  (metrics, report)

(* Every traced run prints this whole set, in this order; a layer the
   workload does not exercise reports 0. *)
let per_layer =
  [
    ("symmetry.detect_s", "s"); ("symmetry.setup_s", "s"); ("symmetry.coverage", "ratio"); ("symmetry.replay_s", "s");
    ("schedule.build_s", "s"); ("schedule.builds", "count"); ("traj.build_s", "s");
    ("traj.builds", "count"); ("traj_cache.lookups", "count"); ("traj_cache.hit_ratio", "ratio");
    ("traj.scan_s", "s"); ("traj.scan_rounds", "count"); ("sim.reference_cells", "count");
    ("dispatch.traj_share", "ratio"); ("dispatch.calibrate_s", "s"); ("dispatch.probe_s", "s");
  ]
  @ List.map (fun id -> (exp_metric id, "s")) Rv_experiments.Report.ids
  @ [
      ("pool.busy_s.d0", "s"); ("pool.idle_s.d0", "s"); ("pool.busy_s.d1", "s"); ("pool.idle_s.d1", "s");
      ("pool.tasks", "count"); ("pool.merge_s", "s"); ("pool.speedup_2v1", "ratio");
      ("gc.minor_collections", "count"); ("gc.major_collections", "count"); ("gc.minor_words", "words");
      ("proto.parse_us", "us"); ("index.lookup_us", "us"); ("index.hit_ratio", "ratio");
      ("cache.find_us", "us"); ("cache.hit_ratio", "ratio"); ("handler.render_us", "us");
      ("cache.add_us", "us"); ("cache.evictions", "count"); ("handler.compute_p50_us", "us");
      ("handler.compute_tail_us", "us"); ("admission.queue_wait_us", "us");
      ("admission.depth_max", "count"); ("admission.shed", "count");
      ("server.p50_us.index", "us_log2_ub"); ("server.p50_us.cache", "us_log2_ub");
      ("server.p50_us.compute", "us_log2_ub"); ("server.p99_us.index", "us_log2_ub");
      ("server.p99_us.cache", "us_log2_ub"); ("server.p99_us.compute", "us_log2_ub");
      ("wire.residual_p50_us", "us"); ("trace.overhead_share", "ratio"); ("trace.accounted_share", "ratio");
    ]

let emit_layers (ms, report) =
  List.iter
    (fun x -> if not (List.mem_assoc x.name per_layer) then die "metric %s is not declared" x.name)
    ms;
  emit ~report
    (List.map
       (fun (name, unit_) ->
         match List.find_opt (fun x -> x.name = name) ms with Some x -> x | None -> m name unit_ 0.)
       per_layer)

let main () =
  match (!inner, !workload, !trace) with
  | "sweep:plain", _, _ -> inner_plain ~exp:false sweep_jobs
  | "exp:plain", _, _ -> inner_plain ~exp:true sweep_jobs
  | "sweep:traced", _, _ -> inner_traced_sweep ()
  | "exp:traced", _, _ -> inner_traced_exp ()
  | "", "sweep_allpairs", 0 -> sweep_allpairs_untraced ()
  | "", "exp_tables", 0 -> exp_tables_untraced ()
  | "", "serve_hits", 0 -> serve_untraced ~compute:false ()
  | "", "serve_compute", 0 -> serve_untraced ~compute:true ()
  | "", "sweep_allpairs", 1 -> emit_layers (traced_sweeps ~exp:false)
  | "", "exp_tables", 1 -> emit_layers (traced_sweeps ~exp:true)
  | "", "serve_hits", 1 -> emit_layers (serve_traced ~compute:false ())
  | "", "serve_compute", 1 -> emit_layers (serve_traced ~compute:true ())
  | i, w, t -> die "unknown mode: inner %S, workload %S, trace %d" i w t

(* An escaping exception still goes through [exit], so the at_exit
   clean-up kills the children and removes the scratch directory. *)
let () = try main () with e -> die "%s" (Printexc.to_string e)
