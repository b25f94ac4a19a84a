module Pg = Rv_graph.Port_graph
module Ex = Rv_explore.Explorer

type model = Waiting | Parachute

type agent = { start : int; delay : int; step : Ex.instance }

type outcome = {
  met : bool;
  meeting_round : int option;
  meeting_node : int option;
  cost : int;
  cost_a : int;
  cost_b : int;
  rounds_run : int;
  crossings : int;
  trace : Trace.t option;
  trace_dropped : int;
}

type walker = {
  mutable pos : int;
  mutable entry : int option;
  mutable moves : int;
  wake : int;  (* first round in which the agent acts *)
  step_fn : Ex.instance;
}

let act_of walker g round =
  if round < walker.wake then Ex.Wait
  else begin
    let obs = { Ex.degree = Pg.degree g walker.pos; entry = walker.entry } in
    match walker.step_fn obs with
    | Ex.Wait -> Ex.Wait
    | Ex.Move p ->
        if p < 0 || p >= obs.degree then
          invalid_arg
            (Printf.sprintf "Sim.run: agent chose invalid port %d at node %d (degree %d)"
               p walker.pos obs.degree)
        else Ex.Move p
  end

let apply walker g action =
  match action with
  | Ex.Wait -> walker.entry <- None
  | Ex.Move p ->
      let v, q = Pg.follow g walker.pos p in
      walker.pos <- v;
      walker.entry <- Some q;
      walker.moves <- walker.moves + 1

let present model walker round =
  match model with Waiting -> true | Parachute -> round >= walker.wake

let default_trace_cap = 100_000

let run ?(model = Waiting) ?(record = false) ?(trace_cap = default_trace_cap) ~g
    ~max_rounds a b =
  if a.start = b.start then invalid_arg "Sim.run: agents must start at distinct nodes";
  if a.delay < 0 || b.delay < 0 then invalid_arg "Sim.run: negative delay";
  (* Normalize delays: during the first [min delay] rounds both agents
     are asleep at distinct nodes, so nothing can happen — skip those
     rounds in the loop and add them back to every reported round. *)
  let skip = max 0 (min (min a.delay b.delay) max_rounds) in
  let max_rounds = max_rounds - skip in
  let wa =
    { pos = a.start; entry = None; moves = 0; wake = a.delay - skip + 1; step_fn = a.step }
  in
  let wb =
    { pos = b.start; entry = None; moves = 0; wake = b.delay - skip + 1; step_fn = b.step }
  in
  let ring = if record then Some (Trace.Ring.create ~cap:trace_cap) else None in
  let crossings = ref 0 in
  let meeting_round = ref None and meeting_node = ref None in
  let round = ref 0 in
  (* Observability: everything here is per-run (one span, a handful of
     counter adds) except deep mode, which also publishes the round clock
     and gives each agent its own trace lane. *)
  let obs = Rv_obs.Obs.enabled () in
  let deep = obs && Rv_obs.Obs.deep () in
  let lane_a = if deep then Rv_obs.Obs.new_lane "agent A" else 0 in
  let lane_b = if deep then Rv_obs.Obs.new_lane "agent B" else 0 in
  if obs then
    Rv_obs.Obs.begin_span ~cat:"sim"
      ~args:
        [
          ("max_rounds", Rv_obs.Json.Int max_rounds);
          ("start_a", Rv_obs.Json.Int a.start);
          ("start_b", Rv_obs.Json.Int b.start);
        ]
      "sim.run";
  (try
     while !round < max_rounds do
       incr round;
       let r = !round in
       if deep then Rv_obs.Obs.set_round r;
       let act_a = (if deep then Rv_obs.Obs.set_lane lane_a; act_of wa g r) in
       let act_b = (if deep then Rv_obs.Obs.set_lane lane_b; act_of wb g r) in
       if deep then Rv_obs.Obs.clear_lane ();
       let before_a = wa.pos and before_b = wb.pos in
       apply wa g act_a;
       apply wb g act_b;
       let crossed =
         (match (act_a, act_b) with
         | Ex.Move _, Ex.Move _ -> wa.pos = before_b && wb.pos = before_a
         | Ex.Wait, _ | _, Ex.Wait -> false)
         && present model wa r && present model wb r
       in
       if crossed then incr crossings;
       (match ring with
       | None -> ()
       | Some ring ->
           Trace.Ring.add ring
             { Trace.round = r + skip; pos_a = wa.pos; pos_b = wb.pos; act_a; act_b; crossed });
       if wa.pos = wb.pos && present model wa r && present model wb r then begin
         meeting_round := Some (r + skip);
         meeting_node := Some wa.pos;
         if deep then
           Rv_obs.Obs.instant ~cat:"sim"
             ~args:[ ("node", Rv_obs.Json.Int wa.pos); ("cost", Rv_obs.Json.Int (wa.moves + wb.moves)) ]
             "meeting";
         raise Exit
       end
     done
   with Exit -> ());
  if obs then begin
    let met = !meeting_round <> None in
    Rv_obs.Counter.count "sim.runs" 1;
    Rv_obs.Counter.count "sim.rounds" !round;
    Rv_obs.Counter.count "sim.moves" (wa.moves + wb.moves);
    Rv_obs.Counter.count "sim.crossings" !crossings;
    if met then Rv_obs.Counter.count "sim.meetings" 1;
    let awake w = max 0 (!round - (w.wake - 1)) in
    Rv_obs.Counter.count "sim.waits" (awake wa - wa.moves + (awake wb - wb.moves));
    Rv_obs.Histogram.observe "sim.rounds_per_run" !round;
    Rv_obs.Histogram.observe "sim.cost_per_run" (wa.moves + wb.moves);
    if deep then Rv_obs.Obs.set_round (-1);
    Rv_obs.Obs.end_span ()
  end;
  {
    met = !meeting_round <> None;
    meeting_round = !meeting_round;
    meeting_node = !meeting_node;
    cost = wa.moves + wb.moves;
    cost_a = wa.moves;
    cost_b = wb.moves;
    rounds_run = !round + skip;
    crossings = !crossings;
    trace = (match ring with Some ring -> Some (Trace.Ring.to_list ring) | None -> None);
    trace_dropped = (match ring with Some ring -> Trace.Ring.dropped ring | None -> 0);
  }

let time outcome =
  match outcome.meeting_round with
  | Some r -> r
  | None -> invalid_arg "Sim.time: the agents did not meet"

let time_from_later_wake outcome ~later_delay =
  max 0 (time outcome - later_delay)

let solo ~g ~rounds ~start step =
  let w = { pos = start; entry = None; moves = 0; wake = 1; step_fn = step } in
  let actions = ref [] in
  for r = 1 to rounds do
    let act = act_of w g r in
    apply w g act;
    actions := act :: !actions
  done;
  (w.pos, List.rev !actions)
