(* A request span is written by exactly one thread at a time — the
   connection thread until the job is queued, then the dispatcher after
   it is dequeued — with the admission queue's mutex ordering the
   hand-off.  No lock is needed on the slot itself. *)

let max_stages = 8

type path = Unresolved | Admin | Index | Cache | Sim | Shed | Error

let path_name = function
  | Unresolved -> "none"
  | Admin -> "admin"
  | Index -> "index"
  | Cache -> "cache"
  | Sim -> "sim"
  | Shed -> "shed"
  | Error -> "error"

type stage = { mutable s_name : string; mutable s_t0 : float; mutable s_t1 : float }

type t = {
  id : int;
  recv_us : float;
  enabled : bool;
  mutable debug : bool;
  mutable kind : string;
  mutable path : path;
  mutable deadline_us : float;  (* absolute; nan = none *)
  mutable done_us : float;  (* absolute; nan = unfinished *)
  mutable nstages : int;
  stages : stage array;
}

let create ~id ~recv_us ?(enabled = true) () =
  {
    id;
    recv_us;
    enabled;
    debug = false;
    kind = "unknown";
    path = Unresolved;
    deadline_us = Float.nan;
    done_us = Float.nan;
    nstages = 0;
    stages =
      Array.init max_stages (fun _ -> { s_name = ""; s_t0 = 0.; s_t1 = Float.nan });
  }

let id t = t.id
let recv_us t = t.recv_us
let debug t = t.debug
let set_debug t d = t.debug <- d
let kind t = t.kind
let path t = t.path
let set_kind t k = t.kind <- k
let set_path t p = t.path <- p
let set_deadline_us t d = t.deadline_us <- d
let deadline_us t = if Float.is_nan t.deadline_us then None else Some t.deadline_us

let tracing t = t.enabled || t.debug

let stage_begin ?now_us t name =
  if tracing t && t.nstages < max_stages then begin
    let s = t.stages.(t.nstages) in
    s.s_name <- name;
    s.s_t0 <- (match now_us with Some v -> v | None -> Clock.now_us ());
    s.s_t1 <- Float.nan;
    t.nstages <- t.nstages + 1
  end

let stage_end ?now_us t name =
  if tracing t then begin
    (* Close the most recent open stage with this name; unmatched ends
       are tolerated (the stage may have been dropped at capacity). *)
    let rec go i =
      if i >= 0 then begin
        let s = t.stages.(i) in
        if String.equal s.s_name name && Float.is_nan s.s_t1 then
          s.s_t1 <- (match now_us with Some v -> v | None -> Clock.now_us ())
        else go (i - 1)
      end
    in
    go (t.nstages - 1)
  end

let finish t ~now_us =
  if Float.is_nan t.done_us then begin
    t.done_us <- now_us;
    (* Close any stage left open (e.g. a raise mid-stage). *)
    for i = 0 to t.nstages - 1 do
      let s = t.stages.(i) in
      if Float.is_nan s.s_t1 then s.s_t1 <- now_us
    done
  end

let total_us t =
  if Float.is_nan t.done_us then 0
  else max 0 (int_of_float (t.done_us -. t.recv_us))

let stages t =
  let out = ref [] in
  for i = t.nstages - 1 downto 0 do
    let s = t.stages.(i) in
    let t1 = if Float.is_nan s.s_t1 then s.s_t0 else s.s_t1 in
    out := (s.s_name, s.s_t0, t1) :: !out
  done;
  !out
