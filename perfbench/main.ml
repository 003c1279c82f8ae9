(* The repository's benchmark (see README.md beside this file).

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Untraced (--trace 0) runs print the end-to-end metrics; traced runs
   (--trace 1) print the per-layer ones and write the span report to
   .perfbench/trace-NAME-N.jsonl. The last line of standard output is
   one JSON object: {"correct", "attempted", "failed", "metrics"}.
   Exit codes: 0 when every outcome matched the oracle, 1 when one did
   not (the result is still printed), 2 on bad arguments. *)

let workloads =
  [ ("oneshot_64", Oneshot.run { n = 6; m = 2; bits = 64; setups = 3 });
    ("oneshot_512", Oneshot.run { n = 4; m = 1; bits = 512; setups = 1 });
    ("serve_saturated", Serve_load.run) ]

let usage () =
  prerr_endline
    ("usage: main.exe --workload {"
    ^ String.concat "|" (List.map fst workloads)
    ^ "} --seed N --seconds S --trace 0|1");
  exit 2

let parse argv =
  let rec go acc = function
    | key :: v :: rest when String.starts_with ~prefix:"--" key ->
        go ((String.sub key 2 (String.length key - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let args = go [] (List.tl (Array.to_list argv)) in
  let get k = match List.assoc_opt k args with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload =
    match List.assoc_opt (get "workload") workloads with
    | Some w -> w
    | None -> usage ()
  in
  let seconds = int "seconds" and trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  (get "workload", workload, int "seed", float_of_int seconds, trace = 1)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "non-finite metric"

let () =
  let name, workload, seed, seconds, trace = parse Sys.argv in
  Acct.record_spans trace;
  let correct, attempted, failed, metrics = workload ~seed ~seconds ~trace in
  if trace then begin
    Meas.ensure_dir Meas.work_root;
    Acct.write_report
      ~path:
        (Filename.concat Meas.work_root
           (Printf.sprintf "trace-%s-%d.jsonl" name seed))
      ~meta:
        [ ("workload", name);
          ("seed", string_of_int seed);
          ( "counts",
            if String.starts_with ~prefix:"serve" name then
              "schedule-dependent"
            else "seed-determined" ) ]
  end;
  List.iter
    (fun (m : Meas.metric) ->
      Printf.eprintf "%-34s %16.6f %s\n" m.name m.value m.unit)
    metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (m : Meas.metric) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
              (json_number m.value) m.unit)
          metrics));
  if not correct then exit 1
