let rule widths =
  let parts = List.map (fun w -> String.make (w + 2) '-') widths in
  "+" ^ String.concat "+" parts ^ "+"

let row widths cells =
  let cells =
    List.map2
      (fun w c ->
        let pad = w - String.length c in
        if pad >= 0 then " " ^ c ^ String.make (pad + 1) ' ' else " " ^ c ^ " ")
      widths cells
  in
  "|" ^ String.concat "|" cells ^ "|"

let print ?out ~title ~header rows =
  let ppf = Option.value ~default:Format.std_formatter out in
  let all = header :: List.map (fun (label, cells) -> label :: cells) rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let widths =
    List.init ncols (fun i ->
        List.fold_left
          (fun acc r ->
            match List.nth_opt r i with
            | Some c -> max acc (String.length c)
            | None -> acc)
          0 all)
  in
  Format.fprintf ppf "@.== %s ==@." title;
  Format.fprintf ppf "%s@." (rule widths);
  Format.fprintf ppf "%s@." (row widths header);
  Format.fprintf ppf "%s@." (rule widths);
  List.iter
    (fun (label, cells) ->
      let cells =
        cells @ List.init (ncols - 1 - List.length cells) (fun _ -> "")
      in
      Format.fprintf ppf "%s@." (row widths (label :: cells)))
    rows;
  Format.fprintf ppf "%s@." (rule widths);
  Format.pp_print_flush ppf ()

let fmt_mops v = Printf.sprintf "%.2f" v
let fmt_ratio v = Printf.sprintf "%.2f" v
let fmt_ms ns = Printf.sprintf "%.2f" (ns /. 1e6)
