(** Per-request tracing slot: a deterministic request id plus a small
    fixed array of named stage intervals (parse, index, cache, queue,
    compute, reply…), stamped with {!Clock.now_us} as the request moves
    admission → queue → dispatcher → resolution.

    The slot is lock-free by ownership, not by atomics: exactly one
    thread writes it at any time — the connection thread up to enqueue,
    then the dispatcher — and the admission queue's mutex orders the
    hand-off.  Stage recording is skipped when the server's telemetry is
    off (unless the request asked for [debug]); ids and timestamps for
    deadline accounting are kept regardless.

    A stage that never ends (raise, capacity overflow) is closed at
    {!finish} time; {!stage_end} with no matching open stage is a
    tolerated no-op.  rv_lint's R5 still checks call sites pair
    [stage_begin]/[stage_end] lexically, with reasoned allows where a
    stage legitimately crosses threads (the queue stage). *)

type t

val max_stages : int

val create : id:int -> recv_us:float -> ?enabled:bool -> unit -> t
(** [enabled] mirrors the server's telemetry flag (default true). *)

val id : t -> int
val recv_us : t -> float

val debug : t -> bool
val set_debug : t -> bool -> unit
(** Set from the parsed request; when true, stages are recorded even
    with telemetry off so the reply's breakdown is populated. *)

val kind : t -> string
val set_kind : t -> string -> unit
(** Query kind: ["worst"], ["run"], an admin type, or ["invalid"]. *)

type path = Unresolved | Admin | Index | Cache | Sim | Shed | Error

val path_name : path -> string
(** The answer path's wire name: ["none"] (unresolved), ["admin"],
    ["index"], ["cache"], ["sim"], ["shed"], ["error"]. *)

val path : t -> path
val set_path : t -> path -> unit

val deadline_us : t -> float option
val set_deadline_us : t -> float -> unit
(** Absolute deadline, for the slow-request classification (>budget/2). *)

val tracing : t -> bool
(** Whether stages are being recorded ([enabled || debug]) — lets a hot
    path skip taking a timestamp it would only feed to a no-op. *)

val stage_begin : ?now_us:float -> t -> string -> unit
val stage_end : ?now_us:float -> t -> string -> unit
(** [stage_end] closes the most recent open stage with this name.
    [?now_us] supplies an already-taken timestamp so adjacent
    end/begin pairs at a stage hand-off cost one clock read, not two. *)

val finish : t -> now_us:float -> unit
(** Stamp completion (idempotent) and close any stage left open. *)

val total_us : t -> int
(** Completion minus receive, in microseconds; [0] if unfinished. *)

val stages : t -> (string * float * float) list
(** [(name, begin_us, end_us)] in begin order, absolute {!Clock} time. *)
