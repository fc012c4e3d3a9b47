let instrumentation_markers =
  [
    "Respct.";
    "App_env.rp";
    "App_env.store_once";
    "App_env.register";
    "App_env.deregister";
    "update_incll";
    "add_modified";
    "alloc_incll";
    "checkpoint_allow";
    "checkpoint_prevent";
    "cond_wait";
  ]

let targets =
  [
    ("HashMap", "lib/pds/hashmap_respct.ml");
    ("Queue", "lib/pds/queue_respct.ml");
    ("Dedup", "lib/apps/dedup.ml");
    ("Swaptions", "lib/apps/swaptions.ml");
    ("MatMul", "lib/apps/matmul.ml");
    ("LR", "lib/apps/linreg.ml");
    ("KV store", "lib/apps/kvstore.ml");
  ]

let count_file path =
  let ic = open_in path in
  let total = ref 0 and instrumented = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr total;
       if
         List.exists
           (fun marker ->
             let rec find i =
               i + String.length marker <= String.length line
               && (String.sub line i (String.length marker) = marker
                  || find (i + 1))
             in
             find 0)
           instrumentation_markers
       then incr instrumented
     done
   with End_of_file -> ());
  close_in ic;
  (!instrumented, !total)

let rows ?(root = ".") () =
  List.filter_map
    (fun (name, path) ->
      let path = Filename.concat root path in
      if Sys.file_exists path then begin
        let instrumented, total = count_file path in
        Some
          ( name,
            [
              string_of_int instrumented;
              string_of_int total;
              Printf.sprintf "%.2f%%"
                (100.0 *. float_of_int instrumented /. float_of_int total);
            ] )
      end
      else None)
    targets
