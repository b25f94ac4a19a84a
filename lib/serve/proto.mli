(** The rv_serve wire protocol: newline-delimited JSON, one request
    object per line, one response object per line.

    Requests carry a ["type"] field selecting the query:

    - ["worst"] — worst-case time/cost sweep over sampled label pairs
      (fields: [graph], [algorithm], [explorer], [space], [pairs],
      [max_delay])
    - ["run"] — one rendezvous simulation (fields: [graph], [algorithm],
      [explorer], [space], [label_a], [label_b], [start_a], [start_b],
      [delay_a], [delay_b], [model])
    - ["health"], ["metrics"], ["version"], ["obs"] — admin probes,
      answered inline without touching the work queue.  ["metrics"]
      accepts [format]: ["json"] (default) or ["prometheus"] (the reply
      carries the text exposition in a ["body"] string field, since the
      transport is line-delimited).  ["obs"] returns the newest [last]
      (default 64) flight-recorder records.

    Every request may carry an ["id"] (echoed verbatim in the response),
    a ["deadline_ms"] budget, and a ["debug"] boolean — when true the
    reply gains a ["debug"] object with the request's id, answer path
    and per-stage timing breakdown (non-deterministic by nature, so
    never part of the cached/golden reply).  The parser is strict — unknown or
    duplicated fields, out-of-range values and non-object lines are
    rejected with a [bad_request] reply — because the serve path makes
    this the system's untrusted-input boundary.

    Responses are [{"status":"ok", ...}] or
    [{"status":"error","code":C,"message":M, ...}] with [C] one of
    [bad_request], [overloaded], [deadline_exceeded],
    [failed_rendezvous], [internal]. *)

type worst_q = Rv_index.Key.worst = {
  w_graph : string;
  w_algorithm : string;
  w_explorer : string;
  w_space : int;
  w_max_pairs : int;
  w_max_delay : int;
}
(** Re-exported from {!Rv_index.Key}: a parsed request is the same value
    the index baker keys records by, so cache and index can never
    disagree about key identity or order. *)

type run_q = Rv_index.Key.run = {
  r_graph : string;
  r_algorithm : string;
  r_explorer : string;
  r_space : int;
  r_label_a : int;
  r_label_b : int;
  r_start_a : int;
  r_start_b : int;  (** [-1] = antipode of [r_start_a] (resolved server-side) *)
  r_delay_a : int;
  r_delay_b : int;
  r_parachute : bool;
}

type query = Rv_index.Key.query = Worst of worst_q | Run of run_q

type metrics_format = Fmt_json | Fmt_prometheus

type obs_q = { o_last : int }
(** How many of the newest flight-recorder records to return. *)

type admin = Health | Metrics of metrics_format | Version | Obs of obs_q

type request = {
  id : int option;  (** echoed in the response when present *)
  deadline_ms : int option;
  debug : bool;  (** append a per-stage timing breakdown to the reply *)
  body : [ `Query of query | `Admin of admin ];
}

val max_line_len : int
(** Longest accepted request line, in bytes; the server's reader stops
    buffering there. *)

val setup_socket : Unix.file_descr -> unit
(** Socket options for either end of an rv connection: sets
    [TCP_NODELAY], so a reply line leaves as soon as it is written.  With
    Nagle's algorithm on, a reply written while an earlier one on the same
    connection is unacknowledged waits for the peer's next request (or its
    delayed-ACK timer) to carry the ACK.  A descriptor that refuses the
    option is left as it is. *)

val close_socket : Unix.file_descr -> out_channel -> unit
(** Flush [oc], then close [fd] exactly once, ignoring errors.  [fd] is
    the descriptor under both of a connection's channels: [close_out]
    then [close_in] would close the number twice, and under connection
    churn the kernel may hand that number to another thread's new
    connection in between — the second close would tear it down. *)

val parse : string -> (request, string) result
(** Parse and validate one request line.  Never raises. *)

val canonical_key : query -> string
(** The cache key: a canonical rendering of the resolved query, with
    every defaultable field made explicit and [id]/[deadline_ms]
    excluded — two requests that ask the same question share a key.
    This is {!Rv_index.Key.render}, the same function that keys baked
    index records. *)

type code =
  | Bad_request
  | Overloaded
  | Deadline_exceeded
  | Failed_rendezvous
  | Internal

val code_to_string : code -> string

val ok_line : id:int option -> (string * Rv_obs.Json.t) list -> string
(** Render a success response (no trailing newline).  [fields] must start
    with [("status", Str "ok")]; the [id], when present, is prepended —
    so a cached field list re-renders to byte-identical output. *)

val error_line :
  id:int option ->
  ?extra:(string * Rv_obs.Json.t) list ->
  code ->
  string ->
  string
(** Render an error response (no trailing newline).  [extra] carries
    structured context such as partial-progress counters. *)
