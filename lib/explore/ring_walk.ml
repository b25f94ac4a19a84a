let fixed_port ~name ~n port =
  if n < 3 then invalid_arg (name ^ ": need n >= 3");
  (* Every round takes the same action: share one value instead of
     allocating a [Move port] per step. *)
  let move = Explorer.Move port in
  Explorer.make ~name ~bound:(n - 1) ~fresh:(fun () _ -> move)

let clockwise ~n = fixed_port ~name:"ring-clockwise" ~n 0

let counterclockwise ~n = fixed_port ~name:"ring-counterclockwise" ~n 1
