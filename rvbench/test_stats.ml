(* Self-test of the benchmark's statistics: the tail rule and its
   sample count, due-time latency and generator lateness, quartiles as
   the spread check computes them, span self-time, the steal correction,
   and planted wrong replies and digests that must count as failures. *)

open Rvbench_stats

let failed = ref 0

let check name ok =
  if not ok then begin
    incr failed;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9
let ramp n = Stats.sorted (List.init n (fun i -> float_of_int (i + 1)))

let () =
  (* p99 needs ten samples above its rank: 1000 samples qualify, 999 do
     not, and the ladder then falls back to p90. *)
  (match Stats.tail (ramp 1000) 99. with
  | Some t -> check "p99 of 1000" (t.Stats.value = 990. && t.Stats.n = 1000 && t.Stats.beyond = 10)
  | None -> check "p99 of 1000 qualifies" false);
  check "p99 of 999 refused" (Stats.tail (ramp 999) 99. = None);
  (match Stats.highest_tail (ramp 999) with
  | Some t -> check "ladder falls to p90" (t.Stats.pct = 90. && t.Stats.n = 999)
  | None -> check "p90 of 999 qualifies" false);
  check "ten samples have no tail" (Stats.highest_tail (ramp 10) = None);
  check "p50 of 20" (match Stats.highest_tail (ramp 20) with Some t -> t.Stats.pct = 50. | None -> false);
  (* Open loop: latency runs from the due time, so a generator stall is
     charged to the request; lateness reports the stall itself. *)
  let s = { Stats.due = 1.0; sent = 1.05; recv = 1.06 } in
  check "due-time latency" (close (Stats.latency_us s) 60_000.);
  check "generator lateness" (close (Stats.lateness_us s) 50_000.);
  let closed = { Stats.due = 2.0; sent = 2.0; recv = 2.000_5 } in
  check "closed-loop lateness is zero" (close (Stats.lateness_us closed) 0.);
  (* statistics.quantiles(values, n=4) *)
  let q xs (a, b, c) =
    let x, y, z = Stats.quartiles xs in
    close x a && close y b && close z c
  in
  check "quartiles 1..10" (q (List.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25));
  check "quartiles of two" (q [ 3.; 1. ] (0.5, 2.0, 3.5));
  check "quartiles of five" (q [ 5.; 1.; 9.; 2.; 7. ] (1.5, 5.0, 8.0));
  check "median even" (close (Stats.median [ 4.; 1.; 3.; 2. ]) 2.5);
  (* Self time subtracts the union of child intervals once, even when
     children overlap on two domains. *)
  let sp id parent dom t0 t1 = { Stats.id; parent; name = string_of_int id; dom; t0; t1 } in
  let spans = [ sp 0 (-1) 0 0. 10.; sp 1 0 1 1. 4.; sp 2 0 2 3. 6.; sp 3 1 1 1. 2. ] in
  let self = Stats.self_by_name spans in
  check "parent self" (close (fst (List.assoc "0" self)) 5.);
  check "child self" (close (fst (List.assoc "1" self)) 2.);
  (* Recorded spans nest through the domain-local stack. *)
  ignore (Stats.take_spans ());
  Stats.with_span "outer" (fun () -> Stats.with_span "inner" (fun () -> ()));
  (match Stats.take_spans () with
  | [ inner; outer ] -> check "nesting" (inner.Stats.parent = outer.Stats.id && outer.Stats.parent = -1)
  | _ -> check "two spans recorded" false);
  (* Steal: none leaves the wall; light steal comes off about as a sum;
     two vCPUs each stolen for the whole interval leave 0, not less. *)
  check "no steal" (close (Stats.unstolen ~wall:1.2 ~steal:[| 0.; 0. |]) 1.2);
  check "no vCPUs" (close (Stats.unstolen ~wall:1.2 ~steal:[||]) 1.2);
  check "one vCPU" (close (Stats.unstolen ~wall:1.0 ~steal:[| 0.25 |]) 0.75);
  check "light steal is about the sum"
    (Float.abs (Stats.unstolen ~wall:1.0 ~steal:[| 0.01; 0.02 |] -. 0.97) < 1e-3);
  check "overlap not double-counted" (close (Stats.unstolen ~wall:1.0 ~steal:[| 0.5; 0.5 |]) 0.25);
  check "never negative" (Stats.unstolen ~wall:0.5 ~steal:[| 0.6; 0.6 |] = 0.);
  (* Planted wrong replies and a wrong digest must register as failures. *)
  let good = {|{"id":3,"status":"ok","time":12}|} in
  check "exact reply" (Stats.reply_matches ~expected:good ~got:good);
  check "debug suffix tolerated"
    (Stats.reply_matches ~expected:good ~got:{|{"id":3,"status":"ok","time":12,"debug":{"total_us":4}}|});
  check "one wrong byte"
    (not (Stats.reply_matches ~expected:good ~got:{|{"id":3,"status":"ok","time":13}|}));
  check "other suffix refused"
    (not (Stats.reply_matches ~expected:good ~got:{|{"id":3,"status":"ok","time":12,"x":1}|}));
  check "failures counted"
    (Stats.failures
       [ (good, Some good); (good, Some {|{"id":3,"status":"ok","time":13}|}); (good, None) ]
    = 2);
  let text = "| A | 1 |\n" in
  let hex = Digest.to_hex (Digest.string text) in
  check "digest match" (Stats.digest_matches ~expected_hex:(hex ^ "\n") text);
  check "planted digest mismatch" (not (Stats.digest_matches ~expected_hex:hex "| A | 2 |\n"));
  if !failed > 0 then exit 1 else print_endline "rvbench stats: all checks passed"
