(* One benchmark run: a workload from a seed, measured for a number of
   seconds, with its outputs checked. *)

let workloads =
  [ ("sweep", Wl_sweep.run)
  ; ("check", Wl_check.run)
  ; ("serve_cold", Wl_serve.run ~warm:false)
  ; ("serve_warm", Wl_serve.run ~warm:true)
  ]

type result =
  { tally : Measure.tally
  ; e2e : Measure.row list  (** the end-to-end metrics, tracing off *)
  ; report : Measure.row list  (** workload-specific figures and counters *)
  ; layers : Measure.row list  (** per-layer metrics, traced runs only *)
  ; spans : Span.t list
  }

let run ~workload ~seed ~seconds ~trace =
  let f =
    match List.assoc_opt workload workloads with
    | Some f -> f
    | None -> invalid_arg ("unknown workload " ^ workload)
  in
  let tally = Measure.tally () in
  Proc.with_temp_dir workload (fun dir ->
    let e2e, report, (spans, layers) = f tally ~seed ~seconds ~trace ~dir in
    let report =
      report
      @ [ Measure.row "error_rate" "ratio" (Measure.error_rate tally)
            ~note:(Printf.sprintf "%d of %d" tally.Measure.failed tally.Measure.attempted)
        ]
    in
    { tally; e2e; report; layers; spans })

let json_metrics rows =
  String.concat ", "
    (List.map
       (fun (r : Measure.row) ->
          Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" r.Measure.name
            r.Measure.value r.Measure.unit_)
       rows)

(* The contract line: the last line of standard output. *)
let json_line r ~trace =
  let t = r.tally in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (t.Measure.failed = 0) t.Measure.attempted t.Measure.failed
    (json_metrics (if trace then r.layers else r.e2e))

let pp_rows oc title rows =
  Printf.fprintf oc "%s\n" title;
  List.iter
    (fun (r : Measure.row) ->
       Printf.fprintf oc "  %-28s %16.6g %-9s %s%s\n" r.Measure.name r.Measure.value
         r.Measure.unit_
         (if r.Measure.det then "[deterministic]" else "")
         (if r.Measure.note = "" then "" else "  (" ^ r.Measure.note ^ ")"))
    rows

let header ~workload ~seed ~seconds ~trace =
  Printf.sprintf "perfbench workload=%s seed=%d seconds=%g trace=%b nproc=%d ocaml=%s"
    workload seed seconds trace
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
