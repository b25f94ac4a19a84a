module Json = Rv_obs.Json

type t = {
  graph : string;
  algorithm : string;
  label_a : int;
  label_b : int;
  start_a : int;
  start_b : int;
  delay_a : int;
  delay_b : int;
  met : bool;
  time : int;
  cost : int;
}

let to_json r =
  Json.to_string
    (Json.Obj
       [
         ("graph", Json.Str r.graph);
         ("algorithm", Json.Str r.algorithm);
         ("label_a", Json.Int r.label_a);
         ("label_b", Json.Int r.label_b);
         ("start_a", Json.Int r.start_a);
         ("start_b", Json.Int r.start_b);
         ("delay_a", Json.Int r.delay_a);
         ("delay_b", Json.Int r.delay_b);
         ("met", Json.Bool r.met);
         ("time", Json.Int r.time);
         ("cost", Json.Int r.cost);
       ])

(* Reading is strict: a flat object whose values are strings, integers
   and booleans only — no floats (not even integral ones), nulls or
   nested values, in any field. *)

exception Bad of string

let of_json line =
  match Json.parse line with
  | Error msg -> Error msg
  | Ok (Json.Obj fields) -> (
      let get k =
        match List.assoc_opt k fields with
        | Some v -> v
        | None -> raise (Bad ("missing field " ^ k))
      in
      let expected k what = raise (Bad (k ^ ": expected " ^ what)) in
      let str k = match get k with Json.Str s -> s | _ -> expected k "a string" in
      let int k = match get k with Json.Int i -> i | _ -> expected k "an integer" in
      let bool k = match get k with Json.Bool b -> b | _ -> expected k "a boolean" in
      try
        List.iter
          (function
            | _, (Json.Str _ | Json.Int _ | Json.Bool _) -> ()
            | k, _ -> raise (Bad (k ^ ": unsupported value")))
          fields;
        Ok
          {
            graph = str "graph";
            algorithm = str "algorithm";
            label_a = int "label_a";
            label_b = int "label_b";
            start_a = int "start_a";
            start_b = int "start_b";
            delay_a = int "delay_a";
            delay_b = int "delay_b";
            met = bool "met";
            time = int "time";
            cost = int "cost";
          }
      with Bad msg -> Error msg)
  | Ok _ -> Error "expected a JSON object"

(* CSV *)

let csv_header =
  "graph,algorithm,label_a,label_b,start_a,start_b,delay_a,delay_b,met,time,cost"

let escape_csv s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s then begin
    let b = Buffer.create (String.length s + 2) in
    Buffer.add_char b '"';
    String.iter
      (fun c -> if c = '"' then Buffer.add_string b "\"\"" else Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b
  end
  else s

let to_csv r =
  Printf.sprintf "%s,%s,%d,%d,%d,%d,%d,%d,%b,%d,%d" (escape_csv r.graph)
    (escape_csv r.algorithm) r.label_a r.label_b r.start_a r.start_b r.delay_a
    r.delay_b r.met r.time r.cost
