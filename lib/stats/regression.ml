type fit = { slope : float; intercept : float; r2 : float }

let linear pts =
  let n = List.length pts in
  if n < 2 then invalid_arg "Regression.linear: need at least two points";
  let nf = float_of_int n in
  let sx = List.fold_left (fun acc (x, _) -> acc +. x) 0.0 pts in
  let sy = List.fold_left (fun acc (_, y) -> acc +. y) 0.0 pts in
  let mx = sx /. nf and my = sy /. nf in
  let sxx = List.fold_left (fun acc (x, _) -> acc +. ((x -. mx) *. (x -. mx))) 0.0 pts in
  let sxy = List.fold_left (fun acc (x, y) -> acc +. ((x -. mx) *. (y -. my))) 0.0 pts in
  if sxx = 0.0 then invalid_arg "Regression.linear: x values are all equal";
  let slope = sxy /. sxx in
  let intercept = my -. (slope *. mx) in
  let ss_tot = List.fold_left (fun acc (_, y) -> acc +. ((y -. my) *. (y -. my))) 0.0 pts in
  let ss_res =
    List.fold_left
      (fun acc (x, y) ->
        let e = y -. ((slope *. x) +. intercept) in
        acc +. (e *. e))
      0.0 pts
  in
  let r2 = if ss_tot = 0.0 then 1.0 else 1.0 -. (ss_res /. ss_tot) in
  { slope; intercept; r2 }

let log_log pts =
  let mapped =
    List.map
      (fun (x, y) ->
        if x <= 0.0 || y <= 0.0 then invalid_arg "Regression.log_log: non-positive point";
        (log x, log y))
      pts
  in
  linear mapped

let semilog_x pts =
  let mapped =
    List.map
      (fun (x, y) ->
        if x <= 0.0 then invalid_arg "Regression.semilog_x: non-positive x";
        (log x, y))
      pts
  in
  linear mapped
