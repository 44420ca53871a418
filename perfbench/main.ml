(* Command line of the benchmark:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   prints a human-readable report, then, as the last line of standard
   output, one JSON object {correct, attempted, failed, metrics}: the
   end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
   Exits 1 when any operation failed or any output check mismatched.
   A traced run also writes its spans to _perfbench/trace-NAME-SEED.json
   (Chrome trace-event format). *)

let usage () =
  prerr_endline
    "usage: main.exe --workload (sweep|check|serve_cold|serve_warm) --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  Perfbench.Proc.daemon_main_if_requested ();
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let workload = get "workload" in
  let seed = Option.value ~default:0 (int_of_string_opt (get "seed")) in
  let seconds = Option.value ~default:10.0 (float_of_string_opt (get "seconds")) in
  let trace = get "trace" = "1" in
  if not (List.mem_assoc workload Perfbench.Bench.workloads) then usage ();
  (* a signal must still run the daemon and temp-dir cleanup *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  let open Perfbench in
  print_endline (Bench.header ~workload ~seed ~seconds ~trace);
  let r = Bench.run ~workload ~seed ~seconds ~trace in
  Bench.pp_rows stdout "end-to-end (tracing off):" r.Bench.e2e;
  Bench.pp_rows stdout "workload figures:" r.Bench.report;
  if trace then begin
    Bench.pp_rows stdout "per-layer (traced run):" r.Bench.layers;
    let path =
      Filename.concat Proc.root (Printf.sprintf "trace-%s-%d.json" workload seed)
    in
    Proc.mkdir_p Proc.root;
    Span.write_chrome path r.Bench.spans;
    Printf.printf "wrote %d spans to %s\n" (List.length r.Bench.spans) path
  end;
  List.iter (fun m -> Printf.printf "FAILED: %s\n" m) (List.rev r.Bench.tally.Measure.messages);
  print_endline (Bench.json_line r ~trace);
  if r.Bench.tally.Measure.failed > 0 then exit 1
