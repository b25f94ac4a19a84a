(* Request parsing is deliberately strict: this is the one place where
   bytes from the network meet the simulation stack, so unknown fields,
   duplicate fields, wrong types and out-of-range values are all rejected
   here with a message precise enough to fix the request. *)

module Json = Rv_obs.Json
module Key = Rv_index.Key

(* The query records ARE the canonical-key records: re-exporting
   {!Rv_index.Key}'s types means a parsed request, a cache key and an
   index record key are the same value rendered by the same function —
   there is no second total order to drift out of sync. *)

type worst_q = Key.worst = {
  w_graph : string;
  w_algorithm : string;
  w_explorer : string;
  w_space : int;
  w_max_pairs : int;
  w_max_delay : int;
}

type run_q = Key.run = {
  r_graph : string;
  r_algorithm : string;
  r_explorer : string;
  r_space : int;
  r_label_a : int;
  r_label_b : int;
  r_start_a : int;
  r_start_b : int;
  r_delay_a : int;
  r_delay_b : int;
  r_parachute : bool;
}

type query = Key.query = Worst of worst_q | Run of run_q
type metrics_format = Fmt_json | Fmt_prometheus
type obs_q = { o_last : int }
type admin = Health | Metrics of metrics_format | Version | Obs of obs_q

type request = {
  id : int option;
  deadline_ms : int option;
  debug : bool;
  body : [ `Query of query | `Admin of admin ];
}

type code =
  | Bad_request
  | Overloaded
  | Deadline_exceeded
  | Failed_rendezvous
  | Internal

let code_to_string = function
  | Bad_request -> "bad_request"
  | Overloaded -> "overloaded"
  | Deadline_exceeded -> "deadline_exceeded"
  | Failed_rendezvous -> "failed_rendezvous"
  | Internal -> "internal"

(* --- field extraction -------------------------------------------------- *)

let ( let* ) = Result.bind

(* Hard ceilings on every numeric knob: a malicious request must not be
   able to ask for an astronomically large graph, label space or sweep. *)
let max_space = 65_536
let max_pairs_cap = 4_096
let max_delay_cap = 1_000_000
let max_deadline_ms = 86_400_000
let max_label = 1_000_000
let max_position = 10_000_000
let max_spec_len = 256
let max_line_len = 65_536

let setup_socket fd =
  try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ()

let close_socket fd oc =
  (try flush oc with Sys_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let find_field fields name =
  List.find_map (fun (k, v) -> if String.equal k name then Some v else None) fields

let get_str fields ~default name =
  match find_field fields name with
  | None -> (
      match default with
      | Some d -> Ok d
      | None -> Error (Printf.sprintf "missing required field %S" name))
  | Some (Json.Str s) ->
      if String.length s > max_spec_len then
        Error (Printf.sprintf "%s: spec longer than %d bytes" name max_spec_len)
      else Ok s
  | Some _ -> Error (Printf.sprintf "%s: expected a string" name)

let get_int fields ~default ~lo ~hi name =
  match find_field fields name with
  | None -> (
      match default with
      | Some d -> Ok d
      | None -> Error (Printf.sprintf "missing required field %S" name))
  | Some v -> (
      match Json.to_int v with
      | None -> Error (Printf.sprintf "%s: expected an integer" name)
      | Some i ->
          if i < lo || i > hi then
            Error (Printf.sprintf "%s: %d out of range [%d, %d]" name i lo hi)
          else Ok i)

let get_bool fields ~default name =
  match find_field fields name with
  | None -> Ok default
  | Some (Json.Bool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "%s: expected a boolean" name)

let get_opt_int fields ~lo ~hi name =
  match find_field fields name with
  | None -> Ok None
  | Some _ -> Result.map Option.some (get_int fields ~default:None ~lo ~hi name)

let check_fields fields ~allowed =
  let rec dup_free = function
    | [] -> Ok ()
    | (k, _) :: rest ->
        if List.exists (fun (k', _) -> String.equal k k') rest then
          Error (Printf.sprintf "duplicate field %S" k)
        else dup_free rest
  in
  let* () = dup_free fields in
  match
    List.find_opt (fun (k, _) -> not (List.exists (String.equal k) allowed)) fields
  with
  | Some (k, _) ->
      Error
        (Printf.sprintf "unknown field %S (accepted: %s)" k
           (String.concat ", " allowed))
  | None -> Ok ()

let common_fields = [ "type"; "id"; "deadline_ms"; "debug" ]
let max_obs_last = 4_096

let parse_worst fields =
  let* () =
    check_fields fields
      ~allowed:
        (common_fields
        @ [ "graph"; "algorithm"; "explorer"; "space"; "pairs"; "max_delay" ])
  in
  let* w_graph = get_str fields ~default:None "graph" in
  let* w_algorithm = get_str fields ~default:None "algorithm" in
  let* w_explorer = get_str fields ~default:(Some "auto") "explorer" in
  let* w_space = get_int fields ~default:(Some 16) ~lo:2 ~hi:max_space "space" in
  let* w_max_pairs =
    get_int fields ~default:(Some 8) ~lo:1 ~hi:max_pairs_cap "pairs"
  in
  let* w_max_delay =
    get_int fields ~default:(Some 8) ~lo:0 ~hi:max_delay_cap "max_delay"
  in
  Ok (Worst { w_graph; w_algorithm; w_explorer; w_space; w_max_pairs; w_max_delay })

let parse_run fields =
  let* () =
    check_fields fields
      ~allowed:
        (common_fields
        @ [
            "graph"; "algorithm"; "explorer"; "space"; "label_a"; "label_b";
            "start_a"; "start_b"; "delay_a"; "delay_b"; "model";
          ])
  in
  let* r_graph = get_str fields ~default:None "graph" in
  let* r_algorithm = get_str fields ~default:None "algorithm" in
  let* r_explorer = get_str fields ~default:(Some "auto") "explorer" in
  let* r_space = get_int fields ~default:(Some 16) ~lo:2 ~hi:max_space "space" in
  let* r_label_a = get_int fields ~default:None ~lo:1 ~hi:max_label "label_a" in
  let* r_label_b = get_int fields ~default:None ~lo:1 ~hi:max_label "label_b" in
  let* r_start_a = get_int fields ~default:(Some 0) ~lo:0 ~hi:max_position "start_a" in
  let* r_start_b =
    get_int fields ~default:(Some (-1)) ~lo:(-1) ~hi:max_position "start_b"
  in
  let* r_delay_a = get_int fields ~default:(Some 0) ~lo:0 ~hi:max_delay_cap "delay_a" in
  let* r_delay_b = get_int fields ~default:(Some 0) ~lo:0 ~hi:max_delay_cap "delay_b" in
  let* model = get_str fields ~default:(Some "waiting") "model" in
  let* r_parachute =
    match model with
    | "waiting" -> Ok false
    | "parachute" -> Ok true
    | other -> Error (Printf.sprintf "model: %S is not \"waiting\" or \"parachute\"" other)
  in
  Ok
    (Run
       {
         r_graph; r_algorithm; r_explorer; r_space; r_label_a; r_label_b;
         r_start_a; r_start_b; r_delay_a; r_delay_b; r_parachute;
       })

let parse_admin fields admin =
  let* () = check_fields fields ~allowed:common_fields in
  Ok admin

let parse_metrics fields =
  let* () = check_fields fields ~allowed:(common_fields @ [ "format" ]) in
  let* fmt = get_str fields ~default:(Some "json") "format" in
  match fmt with
  | "json" -> Ok (Metrics Fmt_json)
  | "prometheus" -> Ok (Metrics Fmt_prometheus)
  | other ->
      Error (Printf.sprintf "format: %S is not \"json\" or \"prometheus\"" other)

let parse_obs fields =
  let* () = check_fields fields ~allowed:(common_fields @ [ "last" ]) in
  let* o_last = get_int fields ~default:(Some 64) ~lo:1 ~hi:max_obs_last "last" in
  Ok (Obs { o_last })

let parse line =
  if String.length line > max_line_len then
    Error (Printf.sprintf "request line longer than %d bytes" max_line_len)
  else
    match Json.parse line with
    | Error e -> Error ("invalid JSON: " ^ e)
    | Ok (Json.Obj fields) ->
        let* id = get_opt_int fields ~lo:0 ~hi:max_int "id" in
        let* deadline_ms = get_opt_int fields ~lo:1 ~hi:max_deadline_ms "deadline_ms" in
        let* debug = get_bool fields ~default:false "debug" in
        let* typ = get_str fields ~default:None "type" in
        let* body =
          match typ with
          | "worst" -> Result.map (fun q -> `Query q) (parse_worst fields)
          | "run" -> Result.map (fun q -> `Query q) (parse_run fields)
          | "health" -> Result.map (fun a -> `Admin a) (parse_admin fields Health)
          | "metrics" -> Result.map (fun a -> `Admin a) (parse_metrics fields)
          | "version" -> Result.map (fun a -> `Admin a) (parse_admin fields Version)
          | "obs" -> Result.map (fun a -> `Admin a) (parse_obs fields)
          | other ->
              Error
                (Printf.sprintf
                   "type: unknown request type %S (accepted: worst, run, health, \
                    metrics, version, obs)"
                   other)
        in
        Ok { id; deadline_ms; debug; body }
    | Ok _ -> Error "request must be a JSON object"

(* --- canonical keys ---------------------------------------------------- *)

let canonical_key = Key.render

(* --- response rendering ------------------------------------------------ *)

let render ~id fields =
  let fields =
    match id with None -> fields | Some i -> ("id", Json.Int i) :: fields
  in
  Json.to_string (Json.Obj fields)

let ok_line ~id fields = render ~id fields

let error_line ~id ?(extra = []) code msg =
  render ~id
    ([
       ("status", Json.Str "error");
       ("code", Json.Str (code_to_string code));
       ("message", Json.Str msg);
     ]
    @ extra)
