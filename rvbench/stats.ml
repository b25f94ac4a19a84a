(* Statistics, latency bookkeeping, output checks and span self-times
   for the benchmark.  Pure functions (plus one mutex-guarded span
   buffer), kept apart from the workload code so test_stats.ml can
   exercise every rule the benchmark's numbers rest on. *)

(* --- order statistics --------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least [p]% of the samples at or below it. *)
let rank_index n p =
  let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1 in
  max 0 (min (n - 1) k)

let percentile a p =
  if Array.length a = 0 then invalid_arg "Stats.percentile: no samples";
  a.(rank_index (Array.length a) p)

let median xs =
  match xs with
  | [] -> invalid_arg "Stats.median: no samples"
  | _ ->
      let a = sorted xs in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's statistics.quantiles(values, n=4) (the default "exclusive"
   method), so the benchmark's own spread check agrees with the one the
   results are judged by. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need two samples";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
  in
  (q 1, q 2, q 3)

let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0. then infinity else (q3 -. q1) /. q2

(* --- steal ----------------------------------------------------------------

   [wall] less the part of it in which at least one of the vCPUs in
   [steal] (seconds stolen from each during the interval) was stolen,
   each vCPU's steal taken as spread independently over the interval:
   wall x prod (1 - steal_i / wall).  For light steal this is the wall
   less the summed steal; unlike that difference it never goes below 0
   when the vCPUs are stolen at the same time. *)
let unstolen ~wall ~steal =
  Array.fold_left (fun w s -> w *. (1. -. Float.min 1. (s /. Float.max wall 1e-9))) wall steal

(* --- tail percentiles with a sample floor --------------------------------

   A percentile is reported only when at least [beyond] samples lie
   strictly above its rank, so a tail figure always rests on that many
   observations.  [tail] answers for one percentile; [highest_tail]
   walks down a ladder and returns the highest percentile that
   qualifies. *)

type tail = { pct : float; value : float; n : int; beyond : int }

let min_beyond = 10

let tail ?(beyond = min_beyond) a p =
  let n = Array.length a in
  if n = 0 then None
  else
    let k = rank_index n p in
    let above = n - 1 - k in
    if above >= beyond then Some { pct = p; value = a.(k); n; beyond = above } else None

let highest_tail ?beyond ?(ladder = [ 99.; 90.; 75.; 50. ]) a =
  List.find_map (fun p -> tail ?beyond a p) ladder

(* --- open- and closed-loop latency --------------------------------------

   Open loop: a request is timed from when it was due, not from when the
   generator got round to sending it, so a stall also charges the
   requests queued behind it; the generator's own lateness (sent - due)
   is reported beside it.  Closed loop: due = sent. *)

type sample = { due : float; sent : float; recv : float }

let latency_us s = (s.recv -. s.due) *. 1e6
let lateness_us s = (s.sent -. s.due) *. 1e6

(* --- output checks ------------------------------------------------------ *)

(* A reply is correct only if its bytes equal the in-process rendering.
   A traced reply may carry the server's debug object, which is appended
   as the last field and is timing data, so it is the one suffix
   tolerated. *)
let reply_matches ~expected ~got =
  String.equal expected got
  ||
  let n = String.length expected in
  n > 0
  && String.length got > n
  && expected.[n - 1] = '}'
  && String.sub got 0 (n - 1) = String.sub expected 0 (n - 1)
  && String.length got >= n + 9
  && String.sub got (n - 1) 9 = ",\"debug\":"

(* Requests whose reply is missing or differs from the expected bytes;
   every one counts as failed, none is dropped. *)
let failures pairs =
  List.fold_left
    (fun n (expected, got) ->
      match got with Some g when reply_matches ~expected ~got:g -> n | _ -> n + 1)
    0 pairs

let digest_matches ~expected_hex text =
  String.equal (Digest.to_hex (Digest.string text)) (String.trim expected_hex)

(* --- spans ---------------------------------------------------------------

   A span is one call into a layer: name, the domain it ran on, start,
   end and the span that caused it ([parent], -1 for a root).  Self time is the span's
   duration minus the part of its interval that child spans cover (the
   union of the children's intervals, so children running in parallel
   on other domains are not subtracted twice). *)

type span = { id : int; parent : int; name : string; dom : int; t0 : float; t1 : float }

let lock = Mutex.create ()
let buffer : span list ref = ref []
let next_id = Atomic.make 0
let stack_key : int list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let current () = match Domain.DLS.get stack_key with p :: _ -> p | [] -> -1

let record s =
  Mutex.lock lock;
  buffer := s :: !buffer;
  Mutex.unlock lock

let with_span ?parent name f =
  let parent = match parent with Some p -> p | None -> current () in
  let id = Atomic.fetch_and_add next_id 1 in
  let stack = Domain.DLS.get stack_key in
  Domain.DLS.set stack_key (id :: stack);
  let t0 = Unix.gettimeofday () in
  let finish () =
    let t1 = Unix.gettimeofday () in
    Domain.DLS.set stack_key stack;
    record { id; parent; name; dom = (Domain.self () :> int); t0; t1 }
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let take_spans () =
  Mutex.lock lock;
  let s = List.rev !buffer in
  buffer := [];
  Mutex.unlock lock;
  s

(* Total length of the union of [intervals], clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (total, Some (ca, Float.max cb b))
            else (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Each span with its self time. *)
let self_times spans =
  let kids = Hashtbl.create 1024 in
  List.iter
    (fun c ->
      let l = Option.value ~default:[] (Hashtbl.find_opt kids c.parent) in
      Hashtbl.replace kids c.parent ((c.t0, c.t1) :: l))
    spans;
  List.map
    (fun s ->
      let children = Option.value ~default:[] (Hashtbl.find_opt kids s.id) in
      (s, s.t1 -. s.t0 -. covered ~lo:s.t0 ~hi:s.t1 children))
    spans

(* Per-name (total self seconds, span count), in first-seen order. *)
let self_by_name spans =
  let tbl = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun (s, st) ->
      match Hashtbl.find_opt tbl s.name with
      | Some (t, c) -> Hashtbl.replace tbl s.name (t +. st, c + 1)
      | None ->
          order := s.name :: !order;
          Hashtbl.replace tbl s.name (st, 1))
    (self_times spans);
  List.rev_map (fun n -> (n, Hashtbl.find tbl n)) !order
