(* Seeded input draws. The program under test receives only what these
   generate; the same seed gives the same draw.

   Draws are stratified: one app from each of a few cost-matched strata
   of the suite (costs measured per app on this tree), so two seeds give
   different apps but passes of comparable size. An app that dominates a
   pass is a stratum of its own, and the serve stream's apps are fixed
   with the seed choosing which points are hot. Otherwise which apps a
   seed happens to draw would dominate the seed-to-seed spread and hide
   the code's own. *)

module App = Workloads.App

let rng seed salt = Random.State.make [| seed; salt |]
let pick st l = List.nth l (Random.State.int st (List.length l))
let app = Workloads.Suite.find

(* Every app a workload can draw: set-up builds all of them, so set-up
   time does not depend on the seed. *)
let pool strata = List.sort_uniq compare (List.concat strata) |> List.map app

(* ---------- sweep: the paper's evaluation ---------- *)

(* (stratum, backend): a resource-sensitive app on the PTX backend, where
   CRAT's gain is largest, and an insensitive app on each backend. The
   sensitive app is fixed: it holds most of the pass's time and memory,
   and HST and BLK differ in peak memory by half. A sensitive app on
   the machine backend would double the pass. No app is drawn twice in
   one pass: the two backends of one app share engine work, which would
   make such a pass cheaper than its stratum-mates. *)
let sweep_strata =
  Machine.Backend.
    [ ([ "HST" ], Ptx)
    ; ([ "BAK"; "BFS"; "PTF"; "B+T"; "NEED"; "LUD" ], Ptx)
    ; ([ "BAK"; "LUD"; "PATH" ], Machine)
    ]

let sweep seed =
  let st = rng seed 1 in
  List.fold_left
    (fun drawn (abbrs, backend) ->
       let free = List.filter (fun a -> not (List.mem_assoc a drawn)) abbrs in
       (pick st free, backend) :: drawn)
    [] sweep_strata
  |> List.rev_map (fun (a, backend) -> (app a, backend))

(* ---------- check: the CI gate sweep ---------- *)

(* Strata of apps whose gate batteries cost about the same on this tree:
   mid (0.5 s) and three cheap tiers (0.28, 0.22 and 0.16 s). The
   sensitive app is fixed, as in [sweep_strata]: its battery is half the
   pass, and the other sensitive apps' batteries differ from it by a
   quarter. *)
let check_strata =
  [ [ "HST" ]
  ; [ "LBM"; "SRAD"; "MUM" ]
  ; [ "B+T"; "PTF"; "SGM" ]
  ; [ "BAK"; "BFS"; "PATH" ]
  ; [ "GAU"; "LUD"; "NEED" ]
  ]

let check seed =
  let st = rng seed 2 in
  List.map (fun abbrs -> app (pick st abbrs)) check_strata

(* ---------- serve: a Zipf request stream ---------- *)

(* The request mix is assumed: the repo holds no record of real daemon
   traffic. Where each part comes from:
   - apps: the subset `make serve-smoke` drives (bench/servebench.ml),
     less the two whose cold recording takes over 0.1 s on a 2-vCPU
     host (KMN 0.35-0.4 s, ESP 0.13 s; BFS, GAU, LUD and PATH take 20
     to 60 ms). Pruning by cost is a departure: the heavy launches that
     would set a real cold tail are left out, so that a run of a few
     tens of seconds holds several passes of a few hundred requests;
   - points: serve-smoke sends each app's default point; the stream adds
     three quarters of the register count, half and single-block TLP
     and both configurations (Wl_serve.candidates), so that hits,
     replays of a recorded launch and cold recordings all occur;
   - popularity: Zipf with exponent [zipf_s] = 1.1, a conventional value
     near 1, not a measured one;
   - volume: [serve_requests] = 240 per pass, sized so that a cold pass
     takes one to two seconds on a 2-vCPU host.
   The apps are fixed and the seed chooses which points are hot and the
   order of the requests: a pass's cost, which is mostly the cold
   recording of each launch, then does not depend on the seed. *)
let serve_apps = [ "BFS"; "GAU"; "LUD"; "PATH" ]

let serve_requests = 240
let zipf_s = 1.1

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Every candidate is requested at least once; the seed ranks them, and
   rank r is requested in proportion to 1 / r^s (about [serve_requests]
   in all), so a few hot points repeat and a long tail appears once. The
   requests are then sent in a seeded order. Fixing the multiplicities
   rather than sampling them keeps the number of distinct points, and
   so the pass's cost, the same for every seed. *)
let zipf_stream seed candidates =
  let st = rng seed 4 in
  let a = Array.of_list candidates in
  shuffle st a;
  let n = Array.length a in
  let w = Array.init n (fun r -> 1.0 /. (float_of_int (r + 1) ** zipf_s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let stream =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun r c ->
               let k = float_of_int serve_requests *. w.(r) /. total in
               Array.make (max 1 (int_of_float (Float.round k))) c)
            a))
  in
  shuffle st stream;
  Array.to_list stream
