module Pg = Rv_graph.Port_graph
module Ex = Rv_explore.Explorer

type t = {
  start : int;
  rounds : int;
  first_move : int;
  pos : int array;
  port : int array;
  moves : int array;
}

(* One preallocated [Some q] per port number of [g]: the entry port
   handed to the stepper after every move comes from this table instead
   of a fresh option per round. *)
let entry_table g = Array.init (Pg.max_degree g) Option.some

let of_schedule ~g ~start ~rounds step =
  if rounds < 0 then invalid_arg "Traj.of_schedule: negative rounds";
  let pos = Array.make (rounds + 1) start in
  let port = Array.make (rounds + 1) (-1) in
  let moves = Array.make (rounds + 1) 0 in
  let entries = entry_table g in
  let entry = ref None in
  let first_move = ref (rounds + 1) in
  for r = 1 to rounds do
    let u = pos.(r - 1) in
    let obs = { Ex.degree = Pg.degree g u; entry = !entry } in
    match step obs with
    | Ex.Wait ->
        entry := None;
        pos.(r) <- u;
        port.(r) <- -1;
        moves.(r) <- moves.(r - 1)
    | Ex.Move p ->
        if p < 0 || p >= obs.Ex.degree then
          invalid_arg
            (Printf.sprintf
               "Traj.of_schedule: agent chose invalid port %d at node %d (degree %d)" p u
               obs.Ex.degree);
        let v, q = Pg.follow g u p in
        entry := entries.(q);
        if !first_move > rounds then first_move := r;
        pos.(r) <- v;
        port.(r) <- p;
        moves.(r) <- moves.(r - 1) + 1
  done;
  { start; rounds; first_move = !first_move; pos; port; moves }

type block = Still of int | Run of Ex.instance * int

let block_rounds blocks =
  List.fold_left
    (fun acc b ->
      let k = match b with Still k -> k | Run (_, k) -> k in
      if k < 0 then invalid_arg "Traj.of_blocks: negative block length";
      acc + k)
    0 blocks

let invalid_port p u degree =
  invalid_arg
    (Printf.sprintf "Traj.of_blocks: agent chose invalid port %d at node %d (degree %d)" p u
       degree)

let of_blocks ~g ~start blocks =
  let rounds = block_rounds blocks in
  let pos = Array.make (rounds + 1) start in
  let port = Array.make (rounds + 1) (-1) in
  let moves = Array.make (rounds + 1) 0 in
  let entries = entry_table g in
  let entry = ref None in
  let first_move = ref (rounds + 1) in
  let r = ref 0 in
  List.iter
    (function
      | Still k ->
          (* The agent stays put: ports are already -1 from
             initialization, and position/cost only need writing when
             they differ from the initialized values — so the wait
             prefix of a schedule (the bulk of the label-scaled
             rendezvous algorithms) costs nothing at all. *)
          let u = pos.(!r) and m = moves.(!r) in
          if u <> start then Array.fill pos (!r + 1) k u;
          if m <> 0 then Array.fill moves (!r + 1) k m;
          if k > 0 then entry := None;
          r := !r + k
      | Run (step, k) ->
          for _ = 1 to k do
            incr r;
            let u = pos.(!r - 1) in
            let obs = { Ex.degree = Pg.degree g u; entry = !entry } in
            match step obs with
            | Ex.Wait ->
                entry := None;
                pos.(!r) <- u;
                moves.(!r) <- moves.(!r - 1)
            | Ex.Move p ->
                if p < 0 || p >= obs.Ex.degree then invalid_port p u obs.Ex.degree;
                let v, q = Pg.follow g u p in
                entry := entries.(q);
                if !first_move > rounds then first_move := !r;
                pos.(!r) <- v;
                port.(!r) <- p;
                moves.(!r) <- moves.(!r - 1) + 1
          done)
    blocks;
  { start; rounds; first_move = !first_move; pos; port; moves }

(* Before [first_move] the walk is still on its start, so only the
   rounds from there on need mapping. *)
let image ~pos ~phi t =
  if Array.length pos <> t.rounds + 1 then invalid_arg "Traj.image: pos length";
  let src = t.pos and start = phi.(t.start) in
  Array.fill pos 0 (min t.first_move (t.rounds + 1)) start;
  for r = t.first_move to t.rounds do
    pos.(r) <- phi.(Array.unsafe_get src r)
  done;
  { t with start; pos }

(* Steps [blocks] from [phi.(t0.start)] exactly like [of_blocks], but
   instead of recording the walk compares every round with [t0] on the
   fly: the port taken (-1 for a wait) must equal [t0.port.(r)] and the
   node reached must be [phi.(t0.pos.(r))].  Nothing per-walk is
   allocated, and the first differing round ends the walk.  Inside a
   [Still] block the agent stays on [u = phi.(t0.pos.(r0))], so, [phi]
   being a bijection, the check reduces to [t0] waiting on
   [t0.pos.(r0)] — two constant scans. *)
let is_image ~g ~phi t0 blocks =
  let rounds = block_rounds blocks in
  rounds = t0.rounds
  &&
  let pos0 = t0.pos and port0 = t0.port in
  let entries = entry_table g in
  let entry = ref None in
  let first_move = ref (rounds + 1) in
  let u = ref phi.(t0.start) in
  let r = ref 0 and ok = ref true in
  let rec go = function
    | [] -> ()
    | Still k :: rest ->
        let w = pos0.(!r) and last = !r + k in
        while !ok && !r < last do
          incr r;
          if port0.(!r) <> -1 || pos0.(!r) <> w then ok := false
        done;
        if k > 0 then entry := None;
        if !ok then go rest
    | Run (step, k) :: rest ->
        let last = !r + k in
        while !ok && !r < last do
          incr r;
          let obs = { Ex.degree = Pg.degree g !u; entry = !entry } in
          match step obs with
          | Ex.Wait ->
              entry := None;
              if port0.(!r) <> -1 || phi.(pos0.(!r)) <> !u then ok := false
          | Ex.Move p ->
              if p < 0 || p >= obs.Ex.degree then invalid_port p !u obs.Ex.degree;
              let v, q = Pg.follow g !u p in
              entry := entries.(q);
              if !first_move > rounds then first_move := !r;
              u := v;
              if port0.(!r) <> p || phi.(pos0.(!r)) <> v then ok := false
        done;
        if !ok then go rest
  in
  go blocks;
  !ok && !first_move = t0.first_move

let clamp t r = if r < 0 then 0 else if r > t.rounds then t.rounds else r

let pos_at t r = t.pos.(clamp t r)

let cost_at t r = t.moves.(clamp t r)

type meeting = {
  met : bool;
  meeting_round : int option;
  meeting_node : int option;
  cost : int;
  cost_a : int;
  cost_b : int;
  rounds_run : int;
  crossings : int;
}

(* First round in [r1, r2] where [pos.(r - d)] equals [node]; 0 if none.
   The caller guarantees r - d is in bounds across the whole range.  This
   is the workhorse of the phased scan below: whenever one agent is
   pinned (asleep at its start, or finished at its final node), finding
   a meeting degenerates to scanning the other agent's position array
   for a constant. *)
let scan_const pos d r1 r2 node =
  let r = ref r1 and found = ref 0 in
  while !found = 0 && !r <= r2 do
    if Array.unsafe_get pos (!r - d) = node then found := !r else incr r
  done;
  !found

(* The shared segment scan behind {!meet} and {!meet_intervals}.  [from]
   is the round the detection window opens: meetings and crossings in
   rounds [<= from] are invisible.  The waiting model opens at 0 (both
   agents count from round 1); the parachute model opens at the later
   normalized delay — before that round the sleeping agent has not been
   placed, so co-location does not end the run (Sim.present).

   The scan walks segments of constant agent state instead of single
   rounds.  In absolute rounds, agent [x] is {e pinned} at its start
   through round [s_x] (asleep, plus any wait prefix of its schedule —
   for the rendezvous algorithms that prefix is the bulk of the walk),
   {e active} through round [e_x], and pinned at its final node
   afterwards.  Within a segment — a maximal interval crossing none of
   the four boundaries — a pinned pair can only meet at the segment's
   first detectable round (their nodes are fixed; in the waiting model
   that round was already compared by an earlier segment, in the
   parachute model it is the placement round of the later agent), a
   pinned/active pair reduces to scanning one position array for a
   constant ([scan_const]) with no crossing possible (the pinned agent
   takes no port), and only the active/active segments run the full
   meeting-plus-crossing loop.  Equivalence with the round-by-round
   reference simulator is property-tested in test/test_traj.ml for both
   models.

   Returns [(round, node, crossings)] with [node = -1] when no meeting
   was found (nodes are non-negative; the sentinel keeps the loop free
   of option allocations — this is the hottest loop in the tree, R8). *)
let meet_scan ~a ~b ~da ~db ~horizon ~from =
  let ra = a.rounds and rb = b.rounds in
  let pos_a = a.pos and pos_b = b.pos in
  let port_a = a.port and port_b = b.port in
  let crossings = ref 0 in
  let meet_node = ref (-1) in
  let r = ref (if from < horizon then from else horizon) in
  let sa = da + min (a.first_move - 1) ra and ea = da + ra in
  let sb = db + min (b.first_move - 1) rb and eb = db + rb in
  let fin_a = pos_a.(ra) and fin_b = pos_b.(rb) in
  while !r < horizon && !meet_node < 0 do
    let lo = !r in
    let hi = ref horizon in
    if sa > lo && sa < !hi then hi := sa;
    if ea > lo && ea < !hi then hi := ea;
    if sb > lo && sb < !hi then hi := sb;
    if eb > lo && eb < !hi then hi := eb;
    let hi = !hi in
    let a_pinned = lo >= ea || lo < sa and b_pinned = lo >= eb || lo < sb in
    if a_pinned && b_pinned then begin
      let na = if lo < sa then a.start else fin_a in
      let nb = if lo < sb then b.start else fin_b in
      if na = nb then begin
        (* With [from = 0] this is unreachable from distinct starts — a
           pinned pair on the same node was co-located one round earlier,
           which a previous segment already detected.  With a positive
           [from] it is the parachute placement meeting: the later agent
           lands on (or finishes next to) a finished partner. *)
        r := lo + 1;
        meet_node := na
      end
      else r := hi
    end
    else if a_pinned || b_pinned then begin
      let node =
        if a_pinned then if lo < sa then a.start else fin_a
        else if lo < sb then b.start
        else fin_b
      in
      let f =
        if a_pinned then scan_const pos_b db (lo + 1) hi node
        else scan_const pos_a da (lo + 1) hi node
      in
      if f > 0 then begin
        r := f;
        meet_node := node
      end
      else r := hi
    end
    else begin
      let prev_a = ref pos_a.(lo - da) and prev_b = ref pos_b.(lo - db) in
      while !r < hi && !meet_node < 0 do
        incr r;
        let la = !r - da and lb = !r - db in
        let pa = Array.unsafe_get pos_a la and pb = Array.unsafe_get pos_b lb in
        if
          pa = !prev_b && pb = !prev_a
          && Array.unsafe_get port_a la >= 0
          && Array.unsafe_get port_b lb >= 0
        then incr crossings;
        if pa = pb then meet_node := pa
        else begin
          prev_a := pa;
          prev_b := pb
        end
      done
    end
  done;
  (!r, !meet_node, !crossings)

let meet_with ~span ~from_of ~a ~b ~delay_a ~delay_b ~max_rounds =
  if a.start = b.start then invalid_arg "Traj.meet: agents must start at distinct nodes";
  if delay_a < 0 || delay_b < 0 then invalid_arg "Traj.meet: negative delay";
  (* Same normalization as Sim.run: the first [min delay] rounds are
     silent (both agents asleep at distinct nodes), so skip them in the
     scan and add them back to every reported round. *)
  let skip = max 0 (min (min delay_a delay_b) max_rounds) in
  let da = delay_a - skip and db = delay_b - skip in
  let horizon = max 0 (max_rounds - skip) in
  let scan () =
    let r, node, crossings =
      meet_scan ~a ~b ~da ~db ~horizon ~from:(from_of ~da ~db)
    in
    if Rv_obs.Obs.enabled () then Rv_obs.Histogram.observe "traj.scan_rounds" r;
    let cost_a = cost_at a (r - da) and cost_b = cost_at b (r - db) in
    if node >= 0 then
      {
        met = true;
        meeting_round = Some (r + skip);
        meeting_node = Some node;
        cost = cost_a + cost_b;
        cost_a;
        cost_b;
        rounds_run = r + skip;
        crossings;
      }
    else
      {
        met = false;
        meeting_round = None;
        meeting_node = None;
        cost = cost_a + cost_b;
        cost_a;
        cost_b;
        rounds_run = r + skip;
        crossings;
      }
  in
  if Rv_obs.Obs.enabled () then
    Rv_obs.Obs.span ~cat:"traj"
      ~args:
        [
          ("delay_a", Rv_obs.Json.Int delay_a);
          ("delay_b", Rv_obs.Json.Int delay_b);
          ("max_rounds", Rv_obs.Json.Int max_rounds);
        ]
      span scan
  else scan ()

let waiting_from ~da:_ ~db:_ = 0

(* Parachute: the later agent is placed at the end of round [max da db]
   (normalized), and Sim.run's first presence-gated comparison is after
   the moves of the following round — so the detection window opens at
   exactly that boundary. *)
let parachute_from ~da ~db = if da > db then da else db

let meet ~a ~b ~delay_a ~delay_b ~max_rounds =
  meet_with ~span:"traj.scan" ~from_of:waiting_from ~a ~b ~delay_a ~delay_b ~max_rounds

let meet_intervals ~a ~b ~delay_a ~delay_b ~max_rounds =
  meet_with ~span:"traj.scan_intervals" ~from_of:parachute_from ~a ~b ~delay_a ~delay_b
    ~max_rounds
