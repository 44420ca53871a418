(* Canonical Stats.t fingerprint over the synthetic workload suite.

   Runs every workload through the cycle-level SM simulator — both the
   default-register kernel and a register-allocated variant with
   local/shared spill code — and prints every Stats.t field in a fixed
   textual format. Two builds of the simulator are semantics-equivalent
   iff their fingerprints are byte-identical, which is how the
   predecoded/unboxed fast path is validated against the reference
   interpreter (see DESIGN.md).

   Usage: dune exec bench/statdump.exe [-- --blocks N] [--tlp T,T,...] *)

let fermi = Gpusim.Config.fermi

let pp_stats name st =
  Printf.printf "%s %s\n" name (Gpusim.Stats.fingerprint st)

let fingerprint ~blocks ~tlps (app : Workloads.App.t) =
  let input =
    { (Workloads.App.default_input app) with Workloads.App.num_blocks = blocks }
  in
  List.iter
    (fun tlp ->
       let launch = Workloads.App.launch app ~tlp ~input () in
       let st = Gpusim.Sm.run fermi launch in
       pp_stats (Printf.sprintf "%s/default/tlp%d" app.Workloads.App.abbr tlp) st;
       (* allocated kernel with a tight register budget: exercises the
          local-spill (and, with spare shared, shared-spill) paths *)
       let alloc =
         Regalloc.Allocator.allocate
           ~block_size:app.Workloads.App.block_size
           ~shared_policy:(`Spare 512) ~reg_limit:20
           (Workloads.App.kernel app)
       in
       let launch =
         Workloads.App.launch app ~kernel:alloc.Regalloc.Allocator.kernel ~tlp
           ~input ()
       in
       let st = Gpusim.Sm.run fermi launch in
       pp_stats (Printf.sprintf "%s/r20/tlp%d" app.Workloads.App.abbr tlp) st)
    tlps

let positive flag s =
  match int_of_string_opt s with
  | Some n when n > 0 -> n
  | _ ->
    raise
      (Arg.Bad (Printf.sprintf "%s: expected a positive integer, got %S" flag s))

let () =
  let blocks = ref 2 in
  let tlps = ref [ 1; 3 ] in
  let spec =
    [ ( "--blocks"
      , Arg.String (fun s -> blocks := positive "--blocks" s)
      , "N blocks per workload (default 2)" )
    ; ( "--tlp"
      , Arg.String
          (fun s ->
             tlps := List.map (positive "--tlp") (String.split_on_char ',' s))
      , "T,T TLP limits to sweep (default 1,3)" )
    ]
  in
  Arg.parse spec (fun _ -> ()) "bench/statdump.exe [--blocks N] [--tlp T,T]";
  List.iter
    (fun app -> fingerprint ~blocks:!blocks ~tlps:!tlps app)
    Workloads.Suite.all
