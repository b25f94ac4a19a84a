(* Tests for the symmetry-reduced sweep (rv_graph Symmetry + the
   Workload quotient): detected group orders per family, witness
   checking, canonical-pair properties, and — the load-bearing one —
   full-record equality of the reduced and unreduced sweeps across
   graph families, algorithms and seeded delay draws.  Also covers the
   adaptive-dispatch cost model with synthetic constants. *)

module Pg = Rv_graph.Port_graph
module Sym = Rv_graph.Symmetry
module R = Rv_core.Rendezvous
module Rng = Rv_util.Rng
module W = Rv_experiments.Workload
module D = Rv_experiments.Dispatch

let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------- group detection *)

let test_group_orders () =
  let cases =
    [
      ("ring:8", Rv_graph.Ring.oriented 8, 8, true);
      ("ring:12", Rv_graph.Ring.oriented 12, 12, true);
      ("torus:3x4", Rv_graph.Torus.make ~rows:3 ~cols:4, 12, true);
      ("hypercube:3", Rv_graph.Hypercube.make ~dim:3, 8, true);
      ("hypercube:4", Rv_graph.Hypercube.make ~dim:4, 16, true);
      ("circulant:7", Rv_graph.Complete_graph.circulant 7, 7, true);
      (* Rank port numbering breaks every nonidentity bijection. *)
      ("complete:7", Rv_graph.Complete_graph.make 7, 1, false);
      ("grid:3x4", Rv_graph.Grid.make ~rows:3 ~cols:4, 1, false);
    ]
  in
  List.iter
    (fun (name, g, expect_order, expect_reducible) ->
      let s = Sym.detect g in
      Alcotest.(check int) (name ^ " order") expect_order (Sym.order s);
      Alcotest.(check bool)
        (name ^ " reducible") expect_reducible (Sym.reducible s);
      if expect_reducible then
        Alcotest.(check bool) (name ^ " transitive") true (Sym.transitive s))
    cases

let test_intransitive_families_not_reduced () =
  List.iter
    (fun (name, g) ->
      let s = Sym.detect g in
      Alcotest.(check bool) (name ^ " not reducible") false (Sym.reducible s);
      Alcotest.(check string) (name ^ " trivial") "trivial" (Sym.group_name s))
    [
      ("tree (path:6)", Rv_graph.Tree.path 6);
      ("random:10:4", Rv_graph.Random_graph.connected (Rng.create ~seed:7) ~n:10 ~extra_edges:4);
    ]

(* ------------------------------------------------- witness checking *)

let test_check_witness () =
  let g = Rv_graph.Ring.oriented 8 in
  let s = Sym.detect g in
  (* Every detected automorphism re-verifies. *)
  Array.iter
    (fun phi ->
      match Sym.check_witness g phi with
      | Ok () -> ()
      | Error e -> Alcotest.failf "detected witness rejected: %s" e)
    (Sym.automorphisms s);
  (* A non-bijection is rejected. *)
  (match Sym.check_witness g [| 0; 0; 1; 2; 3; 4; 5; 6 |] with
  | Ok () -> Alcotest.fail "non-bijection accepted"
  | Error _ -> ());
  (* A bijection that is not port-preserving is rejected: reflection
     reverses the port sense on the oriented ring. *)
  let reflection = Array.init 8 (fun i -> (8 - i) mod 8) in
  (match Sym.check_witness g reflection with
  | Ok () -> Alcotest.fail "reflection accepted on oriented ring"
  | Error _ -> ());
  (* Wrong length is rejected, not out-of-bounds. *)
  match Sym.check_witness g [| 0; 1; 2 |] with
  | Ok () -> Alcotest.fail "short witness accepted"
  | Error _ -> ()

let test_canon_pair_properties () =
  List.iter
    (fun (name, g) ->
      let s = Sym.detect g in
      let n = Pg.n g in
      Alcotest.(check bool) (name ^ " reducible") true (Sym.reducible s);
      let autos = Sym.automorphisms s in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if a <> b then begin
            let ca, cb = Sym.canon_pair s a b in
            (* Representative is in canonical form and is a valid pair. *)
            Alcotest.(check int) (Printf.sprintf "%s (%d,%d) first" name a b) 0 ca;
            Alcotest.(check bool)
              (Printf.sprintf "%s (%d,%d) distinct" name a b)
              true (cb <> 0);
            (* Orbit invariance: every image maps to the same rep. *)
            Array.iter
              (fun phi ->
                let ca', cb' = Sym.canon_pair s phi.(a) phi.(b) in
                Alcotest.(check (pair int int))
                  (Printf.sprintf "%s orbit of (%d,%d)" name a b)
                  (ca, cb) (ca', cb'))
              autos;
            (* Idempotence: the rep is its own rep. *)
            let ca', cb' = Sym.canon_pair s ca cb in
            Alcotest.(check (pair int int))
              (Printf.sprintf "%s rep of rep (%d,%d)" name a b)
              (ca, cb) (ca', cb')
          end
        done
      done)
    [
      ("ring:8", Rv_graph.Ring.oriented 8);
      ("torus:3x4", Rv_graph.Torus.make ~rows:3 ~cols:4);
      ("hypercube:3", Rv_graph.Hypercube.make ~dim:3);
      ("circulant:6", Rv_graph.Complete_graph.circulant 6);
    ]

(* -------------------------------- reduced sweep == unreduced sweep *)

(* The whole contract: with `All_pairs positions the reduced sweep must
   reproduce the unreduced one record for record (full Record.t
   equality, which pins every outcome field and the stream order) and
   return the same worst cell — across families, algorithms and seeded
   delay draws.  [sym:false] runs the identical code with the quotient
   disabled, as [rv sweep --no-sym] does. *)
let reduced_families () =
  [
    ( "ring:8",
      Rv_graph.Ring.oriented 8,
      fun ~start ->
        ignore start;
        Rv_explore.Ring_walk.clockwise ~n:8 );
    ( "torus:3x4",
      Rv_graph.Torus.make ~rows:3 ~cols:4,
      let torus = Rv_graph.Torus.make ~rows:3 ~cols:4 in
      fun ~start -> Rv_explore.Euler_walk.closed torus ~start );
    ( "hypercube:3",
      Rv_graph.Hypercube.make ~dim:3,
      let cube = Rv_graph.Hypercube.make ~dim:3 in
      fun ~start -> Rv_explore.Map_dfs.returning cube ~start );
    ( "circulant:6",
      Rv_graph.Complete_graph.circulant 6,
      let k = Rv_graph.Complete_graph.circulant 6 in
      fun ~start -> Rv_explore.Map_dfs.returning k ~start );
  ]

let run_sweep ?pool ~sym ~g ~explorer ~algorithm ~space ~pairs ~delays () =
  let sink = Rv_engine.Sink.memory () in
  let result =
    W.worst_for ?pool ~sym ~g ~algorithm ~space ~explorer ~pairs
      ~positions:`All_pairs ~delays ~sink ()
  in
  (result, Rv_engine.Sink.records sink)

let check_same id (rr, recr) (ru, recu) =
  Alcotest.(check bool) (id ^ " same worst") true (rr = ru);
  Alcotest.(check int) (id ^ " same record count") (List.length recu) (List.length recr);
  List.iter2 (fun a b -> Alcotest.(check bool) (id ^ " record equal") true (a = b)) recr recu

let test_reduced_matches_unreduced () =
  let rng = Rng.create ~seed:0x53b1 in
  let space = 16 in
  List.iter
    (fun (fam, g, explorer) ->
      let e = (explorer ~start:0).Rv_explore.Explorer.bound in
      List.iter
        (fun algorithm ->
          (* Three seeded delay draws per (family, algorithm), spanning
             the boundaries the normalization cares about. *)
          for draw = 1 to 3 do
            let d () = Rng.choose rng [| 0; 1; e; e + 1 |] in
            let delays =
              List.sort_uniq Rv_util.Ord.(pair int int) [ (0, 0); (d (), d ()) ]
            in
            let pairs = W.sample_pairs ~space ~max_pairs:3 in
            let id = Printf.sprintf "%s %s draw%d" fam (R.name algorithm) draw in
            W.Stats.reset ();
            let reduced =
              run_sweep ~sym:true ~g ~explorer ~algorithm ~space ~pairs ~delays ()
            in
            let reduced_stats = W.Stats.snapshot () in
            let unreduced =
              run_sweep ~sym:false ~g ~explorer ~algorithm ~space ~pairs ~delays ()
            in
            check_same id reduced unreduced;
            (* And the reduction actually engaged: fewer cells simulated
               than covered, by exactly the group order. *)
            Alcotest.(check bool)
              (id ^ " reduction engaged")
              true
              (reduced_stats.W.Stats.orbit_size > 1)
          done)
        [ R.Cheap; R.Fast; R.Fwr 2 ])
    (reduced_families ())

let test_unreducible_families_report_none () =
  (* Tree and random graphs have no usable group: the sweep must fall
     back to the unreduced path and say so in the stats. *)
  let space = 8 in
  List.iter
    (fun (fam, g) ->
      let explorer ~start = Rv_explore.Map_dfs.returning g ~start in
      let pairs = W.sample_pairs ~space ~max_pairs:2 in
      W.Stats.reset ();
      let r =
        W.worst_for ~g ~algorithm:R.Fast ~space ~explorer ~pairs
          ~positions:`All_pairs ~delays:[ (0, 0) ] ()
      in
      let s = W.Stats.snapshot () in
      Alcotest.(check bool) (fam ^ " swept") true (Result.is_ok r);
      Alcotest.(check string) (fam ^ " group none") "none" s.W.Stats.sym_group;
      Alcotest.(check int) (fam ^ " orbit 1") 1 s.W.Stats.orbit_size)
    [
      ("tree (path:6)", Rv_graph.Tree.path 6);
      ("random:8:4", Rv_graph.Random_graph.connected (Rng.create ~seed:3) ~n:8 ~extra_edges:4);
    ]

(* Certification and the representative cells run as pool tasks; a
   two-domain reduced sweep must equal the sequential one and the
   unreduced one, record for record. *)
let test_reduced_on_pool () =
  List.iter
    (fun (fam, g, explorer) ->
      List.iter
        (fun algorithm ->
          let space = 16 in
          let e = (explorer ~start:0).Rv_explore.Explorer.bound in
          let delays = [ (0, 0); (0, e); (e + 1, 0) ] in
          let pairs = W.sample_pairs ~space ~max_pairs:3 in
          let id = Printf.sprintf "%s %s" fam (R.name algorithm) in
          let sweep ?pool sym =
            run_sweep ?pool ~sym ~g ~explorer ~algorithm ~space ~pairs ~delays ()
          in
          W.Stats.reset ();
          let pooled = Rv_engine.Pool.with_pool ~jobs:2 (fun pool -> sweep ~pool true) in
          let s = W.Stats.snapshot () in
          Alcotest.(check bool) (id ^ " reduced on the pool") true (s.W.Stats.orbit_size > 1);
          let labels =
            List.sort_uniq Int.compare (List.concat_map (fun (a, b) -> [ a; b ]) pairs)
          in
          Alcotest.(check int)
            (id ^ " one walk built per label") (List.length labels) s.W.Stats.traj_built;
          check_same (id ^ " pool vs sequential") pooled (sweep true);
          check_same (id ^ " pool vs unreduced") pooled (sweep false))
        [ R.Cheap; R.Fast ])
    (List.filter (fun (fam, _, _) -> fam = "ring:8" || fam = "torus:3x4") (reduced_families ()))

(* The torus' default explorer follows a global Hamiltonian cycle, so
   its walks are not images of each other: certification must refuse
   the order-12 group and the sweep must run unreduced. *)
let test_ham_torus_falls_back () =
  let ok = function Ok v -> v | Error e -> Alcotest.fail e in
  let gs = ok (Rv_experiments.Spec.parse_graph "torus:3x4") in
  let explorer = ok (Rv_experiments.Spec.parse_explorer gs "auto") in
  let g = gs.Rv_experiments.Spec.g in
  let pairs = W.sample_pairs ~space:8 ~max_pairs:3 in
  let delays = [ (0, 0); (0, 1) ] in
  W.Stats.reset ();
  let sweep sym = run_sweep ~sym ~g ~explorer ~algorithm:R.Fast ~space:8 ~pairs ~delays () in
  let reduced = sweep true in
  let s = W.Stats.snapshot () in
  Alcotest.(check string) "uncertified" "order-12/uncertified" s.W.Stats.sym_group;
  Alcotest.(check int) "x1 coverage" 1 s.W.Stats.orbit_size;
  check_same "ham torus" reduced (sweep false)

(* A planted family on the oriented ring: clockwise from every start
   except [bad], whose walk waits instead of moving in the last round
   of its last exploration — one automorphism image, one round, the
   walk's last active one.  Certification must catch it and fall back,
   and the fallback must equal the unreduced sweep. *)
let test_planted_break_falls_back () =
  let n = 8 and space = 4 and bad = 5 in
  let g = Rv_graph.Ring.oriented n in
  let pairs = [ (1, 2); (2, 3) ] in
  let clockwise = Rv_explore.Ring_walk.clockwise ~n in
  let executions label =
    Rv_core.Schedule.explorations (R.schedule R.Fast ~space ~label ~explorer:clockwise)
  in
  let last = List.fold_left (fun acc l -> max acc (executions l)) 0 [ 1; 2; 3 ] in
  let explorer ~start =
    if start <> bad then clockwise
    else begin
      (* Executions are counted per explorer value, and each walk is
         scheduled from a fresh one. *)
      let count = ref 0 in
      Rv_explore.Explorer.make ~name:"planted" ~bound:(n - 1) ~fresh:(fun () ->
          incr count;
          let k = !count and step = ref 0 in
          fun _ ->
            incr step;
            if k = last && !step = n - 1 then Rv_explore.Explorer.Wait
            else Rv_explore.Explorer.Move 0)
    end
  in
  let sweep sym =
    run_sweep ~sym ~g ~explorer ~algorithm:R.Fast ~space ~pairs ~delays:[ (0, 0); (0, 1) ] ()
  in
  W.Stats.reset ();
  let reduced = sweep true in
  let s = W.Stats.snapshot () in
  Alcotest.(check string) "uncertified" "order-8/uncertified" s.W.Stats.sym_group;
  let broken = List.length (List.filter (fun l -> executions l = last) [ 1; 2; 3 ]) in
  Alcotest.(check int)
    "every other image certified" ((3 * (n - 1)) - broken) s.W.Stats.images_certified;
  check_same "planted" reduced (sweep false)

(* ------------------------------------------------- dispatch model *)

let test_dispatch_decide () =
  (* Synthetic constants: builds cost 10ns/round, scans 1, sims 20. *)
  let c = { D.build_ns = 10.; scan_ns = 1.; sim_ns = 20. } in
  (* Amortized: tiny build, many configs — trajectory wins. *)
  Alcotest.(check bool)
    "amortized build -> traj" true
    (D.decide c { D.configs = 1000; build_rounds = 100; probe_rounds = 50 });
  (* EXP-E shape: builds dwarf the handful of short scans — reference. *)
  Alcotest.(check bool)
    "dominant build -> reference" false
    (D.decide c { D.configs = 15; build_rounds = 100_000; probe_rounds = 10 });
  (* Break-even pivot: build_ns * build = (sim_ns - scan_ns) * work.
     Just under wins, just over loses. *)
  let work = 100 * 10 in
  let pivot = 19 * work / 10 in
  Alcotest.(check bool)
    "under pivot -> traj" true
    (D.decide c { D.configs = 100; build_rounds = pivot - 1; probe_rounds = 10 });
  Alcotest.(check bool)
    "over pivot -> reference" false
    (D.decide c { D.configs = 100; build_rounds = pivot + 1; probe_rounds = 10 });
  (* Degenerate features are clamped, not crashing. *)
  ignore (D.decide c { D.configs = 0; build_rounds = 0; probe_rounds = 0 });
  (* Measured constants exist and are positive. *)
  let m = D.constants () in
  Alcotest.(check bool) "build_ns > 0" true (m.D.build_ns > 0.);
  Alcotest.(check bool) "scan_ns > 0" true (m.D.scan_ns > 0.);
  Alcotest.(check bool) "sim_ns > 0" true (m.D.sim_ns > 0.)

let () =
  Alcotest.run "rv_symmetry"
    [
      ( "group",
        [
          tc "detected orders per family" test_group_orders;
          tc "trees and random graphs are trivial"
            test_intransitive_families_not_reduced;
          tc "check_witness proves and refutes" test_check_witness;
          tc "canon_pair: canonical, orbit-invariant, idempotent"
            test_canon_pair_properties;
        ] );
      ( "sweep",
        [
          tc "reduced == unreduced (4 families x 3 algorithms x 3 draws)"
            test_reduced_matches_unreduced;
          tc "unreducible families fall back and report none"
            test_unreducible_families_report_none;
          tc "pool == sequential == unreduced (ring, euler torus)" test_reduced_on_pool;
          tc "ham torus is uncertified and equals unreduced" test_ham_torus_falls_back;
          tc "a break at one image's last round falls back" test_planted_break_falls_back;
        ] );
      ("dispatch", [ tc "cost model decisions" test_dispatch_decide ]);
    ]
