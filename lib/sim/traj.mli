(** Materialized agent trajectories and the vectorized meeting scan.

    In the waiting model an agent's walk is a pure function of
    (graph, schedule, start): the agent is present from round 1, its
    step function sees only degrees and entry ports, and neither the
    partner nor the wake-up delay can influence it.  A {!t} is that walk
    executed once and flattened into int arrays — per-round position,
    port taken, and cumulative move count — so that an adversarial sweep
    can replay it under every delay offset by scanning arrays with
    shifted indices instead of re-running the round-by-round simulator
    ({!Sim.run}) with its closure dispatch and observation allocation.

    {!meet} reproduces {!Sim.run}'s outcome exactly for the waiting
    model (same meeting round, node, costs, crossings and round cap
    semantics, including the delay normalization documented there); the
    equivalence is property-tested in [test/test_traj.ml] and asserted
    at bench time on full sweeps.

    The {e parachute} model is served by {!meet_intervals}: the walks
    themselves are model-independent ({!Sim}'s agents wait until their
    wake round in both models, so position and port arrays are
    identical), and parachute presence only gates {e detection} — both
    agents are present exactly from round [max delay_a delay_b + 1]
    onwards.  The parachute scan is therefore the waiting scan with the
    detection window opened at that boundary instead of at round 1
    (see DESIGN.md §3.6). *)

type t = private {
  start : int;  (** starting node; [pos.(0)] *)
  rounds : int;
      (** materialized rounds — the schedule's duration; the agent
          waits at [pos.(rounds)] forever afterwards *)
  first_move : int;
      (** first round with a port taken, [rounds + 1] if the agent never
          moves.  The scan in {!meet} uses it to skip the wait prefix —
          for the label-scaled rendezvous schedules that prefix is the
          bulk of the walk — in O(1). *)
  pos : int array;  (** length [rounds + 1]; [pos.(r)] = node after round [r] *)
  port : int array;
      (** length [rounds + 1]; [port.(r)] = port taken in round [r],
          [-1] for a wait; [port.(0) = -1] *)
  moves : int array;
      (** length [rounds + 1]; prefix sums — [moves.(r)] = edge
          traversals in rounds [1..r], so cost-at-round is O(1) *)
}

val of_schedule :
  g:Rv_graph.Port_graph.t ->
  start:int ->
  rounds:int ->
  Rv_explore.Explorer.instance ->
  t
(** [of_schedule ~g ~start ~rounds step] steps [step] (a fresh
    {!Rv_core.Schedule.to_instance}-style stepper, i.e. an undelayed
    agent program starting in round 1) for exactly [rounds] rounds from
    [start] and records the walk.  Raises [Invalid_argument] on an
    out-of-range port, like {!Sim.run}. *)

type block =
  | Still of int  (** the agent waits in place this many rounds ([>= 0]) *)
  | Run of Rv_explore.Explorer.instance * int
      (** step this instance for that many rounds *)

val of_blocks : g:Rv_graph.Port_graph.t -> start:int -> block list -> t
(** Block-structured constructor, equivalent to {!of_schedule} on the
    concatenated rounds but much cheaper when the schedule's shape is
    known: a [Still] block is materialized with [Array.fill] (no
    per-round dispatch — and the leading wait prefix of the label-scaled
    rendezvous schedules costs nothing at all, because the arrays are
    already initialized to the resting state).  [Run] blocks step their
    instance exactly like {!of_schedule}.  This is what the sweep fast
    path feeds {!Rv_core.Schedule.t} steps into. *)

val image : pos:int array -> phi:int array -> t -> t
(** [image ~pos ~phi t] is [t] carried along the node map [phi]: it
    starts at [phi.(t.start)] and is at [phi.(t.pos.(r))] after round
    [r], with the same [rounds] and [first_move].  The positions are
    written into [pos] (length [t.rounds + 1], else [Invalid_argument]),
    which becomes the result's position array, so one buffer serves a
    sequence of images and each is valid until [pos] is written again.
    The [port] and [moves] arrays are shared with [t], not copied.  When
    [phi] is a port-preserving automorphism and {!is_image} certified
    the walk from [phi.(t.start)], this equals {!of_blocks} from that
    start. *)

val is_image : g:Rv_graph.Port_graph.t -> phi:int array -> t -> block list -> bool
(** [is_image ~g ~phi t0 blocks] steps [blocks] from [phi.(t0.start)]
    as {!of_blocks} would and checks each round against [t0]: the same
    port (a wait included) and the node [phi.(t0.pos.(r))].  It also
    requires the same [rounds] and [first_move].  So it holds exactly
    when [of_blocks ~g ~start:phi.(t0.start) blocks] equals
    [image ~pos ~phi t0], but it allocates no per-walk array and stops at
    the first round that differs.  Raises [Invalid_argument] like
    {!of_blocks} on a negative block length or an invalid port reached
    before that round. *)

val pos_at : t -> int -> int
(** [pos_at t r] is the node after [r] of the agent's own rounds,
    clamped into [0..t.rounds] (before round 1 the agent is at [start];
    after [t.rounds] it waits in place forever). *)

val cost_at : t -> int -> int
(** [cost_at t r] is the number of edge traversals in the agent's first
    [r] rounds, clamped like {!pos_at}. *)

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
(** The delay-dependent outcome fields of {!Sim.outcome} (everything
    except the trace, which only the reference simulator records). *)

val meet : a:t -> b:t -> delay_a:int -> delay_b:int -> max_rounds:int -> meeting
(** [meet ~a ~b ~delay_a ~delay_b ~max_rounds] finds the first meeting
    of the two trajectories under the given wake-up delays in the
    waiting model, by scanning the position arrays with shifted indices:
    agent [a]'s position in absolute round [r] is [pos_at a (r - delay_a)].
    Same-node meetings and unnoticed edge crossings are detected from
    the positions at rounds [r - 1] and [r], exactly as {!Sim.run} does.

    Delays follow {!Sim.run}'s convention: arbitrary non-negative delays
    are accepted, the common [min delay] prefix is silent, and reported
    rounds include it.  Starting nodes must be distinct
    ([Invalid_argument] otherwise).

    When {!Rv_obs.Obs} is enabled, each call emits one ["traj.scan"]
    span and observes the scanned length in the ["traj.scan_rounds"]
    histogram. *)

val meet_intervals :
  a:t -> b:t -> delay_a:int -> delay_b:int -> max_rounds:int -> meeting
(** [meet_intervals] is {!meet} for the {e parachute} model: identical
    walks and delay normalization, but meetings and crossings are only
    detectable from round [max delay_a delay_b + 1] onwards — before
    that the later agent has not been placed ({!Sim.run}'s presence
    gate).  Reproduces {!Sim.run} [~model:Parachute] exactly on every
    outcome field; property-tested in [test/test_traj.ml].  Emits a
    ["traj.scan_intervals"] span when observation is enabled. *)
