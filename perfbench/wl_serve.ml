(* Workloads "serve_cold" and "serve_warm": a forked crat daemon with a
   persistent store in a private directory, loaded by a closed loop of
   at most nproc (and at most 2) client connections. Each connection
   sends one-point Simulate requests drawn Zipf-style over (app, regs,
   tlp, kepler) and sends its next request only when the previous one
   has answered. Hot points hit the stats store, new (config, TLP)
   points of a recorded launch replay its trace, the tail records cold.

   serve_cold: every pass starts a fresh daemon on an empty store.
   serve_warm: the store is filled by one untimed cold pass; every pass
   then restarts the daemon on that store and runs the same stream, so
   answers come from disk through Marshal, the store and the framing,
   with no functional execution. *)

module App = Workloads.App
module P = Serve.Protocol

let config kepler = if kepler then Gpusim.Config.kepler else Gpusim.Config.fermi

type cand =
  { app : App.t
  ; regs : int
  ; tlp : int
  ; kepler : bool
  ; kernel : Ptx.Kernel.t
  }

let proto c = P.point ~regs:(Some c.regs) ~tlp:(Some c.tlp) ~kepler:c.kepler c.app.App.abbr
let key c = (c.app.App.abbr, c.regs, c.tlp, c.kepler)

(* Candidate points: each stream app at its default register count and
   at three quarters of it, under both configurations, at full, half
   and single-block TLP. A register count the allocator cannot meet is
   left out. *)
let candidates () =
  let engine = Crat.Engine.create ~jobs:1 () in
  List.concat_map
    (fun (app : App.t) ->
       let res = List.map (fun k -> (k, Crat.Resource.analyze (config k) app)) [ false; true ] in
       List.concat_map
         (fun regs ->
            match Crat.Engine.allocate engine app ~reg_limit:regs with
            | exception Failure _ -> []
            | a ->
              List.concat_map
                (fun (kepler, r) ->
                   let cfg = config kepler in
                   let maxt =
                     max 1 (Gpusim.Occupancy.max_tlp cfg (Crat.Resource.usage_at r ~regs))
                   in
                   List.map
                     (fun tlp -> { app; regs; tlp; kepler; kernel = a.Regalloc.Allocator.kernel })
                     (List.sort_uniq compare [ maxt; max 1 (maxt / 2); 1 ]))
                res)
         (List.sort_uniq compare [ app.App.default_regs; app.App.default_regs * 3 / 4 ]))
    (List.map Draw.app Draw.serve_apps)

let direct c =
  Gpusim.Sm.run (config c.kepler)
    (App.launch c.app ~kernel:c.kernel ~tlp:c.tlp ~input:(App.default_input c.app) ())

let conns = max 1 (min 2 (Domain.recommended_domain_count ()))

type pass =
  { wall : float
  ; start_s : float  (** daemon spawn to first accepted connection *)
  ; lat_ms : float array
  ; answers : Gpusim.Stats.t option array
  ; rtt_ms : float list
  ; stats : P.server_stats option
  ; rss_mb : float
  }

(* One pass of the stream against a daemon started on [store]. *)
let run_pass tally ~dir ~store stream =
  let socket = Filename.concat dir "d.sock" in
  let n = Array.length stream in
  let answers = Array.make n None in
  let lat_ms = Array.make n 0.0 in
  let rtts = ref [] in
  let lock = Mutex.create () in
  let next = ref 0 in
  let t_spawn = Measure.now () in
  let d = Proc.start_daemon ~socket ~store () in
  Fun.protect ~finally:(fun () -> Proc.stop_daemon d) @@ fun () ->
  let start_s = Measure.now () -. t_spawn in
  let worker () =
    match Proc.connect ~socket 500 with
    | Error e -> Measure.check tally false "client connect: %s" e
    | Ok c ->
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let rec go () =
        let i = Mutex.protect lock (fun () -> let i = !next in incr next; i) in
        if i < n then begin
          let t0 = Measure.now () in
          let r =
            Span.with_ ~req:(i + 1) "serve:Client.simulate" (fun () ->
              Serve.Client.simulate c [ proto stream.(i) ])
          in
          lat_ms.(i) <- (Measure.now () -. t0) *. 1000.0;
          (match r with
           | Ok [| st |] -> answers.(i) <- Some st
           | Ok a -> Measure.check tally false "request %d: %d answers" i (Array.length a)
           | Error e -> Measure.check tally false "request %d: %s" i e);
          (* framing and queueing with no compute: a Stats round trip
             after every 8th request, in every pass, so traced and
             untraced passes send the same traffic *)
          if i mod 8 = 0 then begin
            let r, dt =
              Measure.time (fun () ->
                Span.with_ ~req:(i + 1) "serve:Client.server_stats" (fun () ->
                  Serve.Client.server_stats c))
            in
            Measure.check tally (Result.is_ok r) "stats request failed";
            Mutex.protect lock (fun () -> rtts := (dt *. 1000.0) :: !rtts)
          end;
          go ()
        end
      in
      go ()
  in
  let t0 = Measure.now () in
  let threads = List.init conns (fun _ -> Thread.create worker ()) in
  List.iter Thread.join threads;
  let wall = Measure.now () -. t0 in
  let stats =
    match Proc.connect ~socket 100 with
    | Error _ -> None
    | Ok c ->
      Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () ->
        Result.to_option (Serve.Client.server_stats c))
  in
  Measure.check tally (stats <> None) "daemon stats unavailable";
  { wall; start_s; lat_ms; answers; rtt_ms = !rtts; stats; rss_mb = Proc.daemon_rss_mb d }

let store_counters p =
  match p.stats with
  | None -> []
  | Some s ->
    Measure.
      [ count "store.entries" s.P.store_entries
      ; row ~det:true "store.bytes" "bytes" (float_of_int s.P.store_bytes)
      ]

let run ~warm tally ~seed ~seconds ~trace ~dir =
  let cands = candidates () in
  let stream = Array.of_list (Draw.zipf_stream seed cands) in
  let setup, build_s =
    Measure.setup_sampler (fun () ->
      Measure.build_inputs (List.map Draw.app Draw.serve_apps))
  in
  (* direct Sm.run of every distinct point in the stream *)
  let reference = Hashtbl.create 64 in
  Array.iter
    (fun c ->
       if not (Hashtbl.mem reference (key c)) then
         match Measure.attempt tally "direct Sm.run" (fun () -> direct c) with
         | Some st -> Hashtbl.add reference (key c) st
         | None -> ())
    stream;
  let check_answers ?cold p =
    Array.iteri
      (fun i a ->
         let c = stream.(i) in
         match a, Hashtbl.find_opt reference (key c) with
         | Some st, Some r ->
           Layers.check_stats tally ~expected:r st
             "%s regs=%d tlp=%d kepler=%b: served stats differ from a direct Sm.run"
             c.app.App.abbr c.regs c.tlp c.kepler;
           Option.iter
             (fun (cold : Gpusim.Stats.t option array) ->
                match cold.(i) with
                | Some cs ->
                  Layers.check_stats tally ~expected:cs st
                    "request %d: warm answer differs from the cold one" i
                | None -> Measure.check tally false "request %d: no cold answer" i)
             cold
         | _ -> Measure.check tally false "request %d unanswered" i)
      p.answers
  in
  let persistent = Filename.concat dir "store" in
  let cold_answers =
    if not warm then None
    else begin
      let p = run_pass tally ~dir ~store:persistent stream in
      check_answers p;
      Some p
    end
  in
  let first = ref (Option.map store_counters cold_answers) in
  let seq = ref 0 in
  let pass () =
    incr seq;
    let store =
      if warm then persistent else Filename.concat dir (Printf.sprintf "store-%d" !seq)
    in
    let p =
      Fun.protect
        ~finally:(fun () -> if not warm then Proc.rm_rf store)
        (fun () -> run_pass tally ~dir ~store stream)
    in
    check_answers ?cold:(Option.map (fun c -> c.answers) cold_answers) p;
    let c = store_counters p in
    (match !first with
     | None -> first := Some c
     | Some f -> Measure.check_repeat tally ~what:"serve" f c);
    p
  in
  let off, on = Measure.loop ~min:2 ~setup ~seconds ~traced:trace pass in
  let passes = off @ on in
  let walls l = List.map (fun p -> p.wall) l in
  let lats = List.concat_map (fun p -> Array.to_list p.lat_ms) off in
  let pct, tail_ms, nlat = Measure.tail lats in
  let rss =
    Measure.peak_rss_mb "self"
    +. List.fold_left (fun m p -> Float.max m p.rss_mb) 0.0 passes
  in
  let wall_s = Measure.median (walls off) in
  let wrows = Measure.wall_rows ~walls:(walls off) ~build_s:(build_s ()) in
  let e2e =
    Measure.
      [ row "setup_s" "s" (build_s () +. median (List.map (fun p -> p.start_s) passes))
      ; List.hd wrows
      ; row "peak_rss_mb" "MB" rss
      ]
  in
  let phase = if warm then "warm" else "cold" in
  let hit_rate =
    match (match cold_answers with Some c -> c | None -> List.hd passes).stats with
    | Some s -> P.hit_rate s
    | None -> nan
  in
  let report =
    List.tl wrows
    @ Measure.
      [ row (phase ^ "_p50_ms") "ms" (median lats)
      ; row (phase ^ "_tail_ms") "ms" tail_ms ~note:(Printf.sprintf "p%.1f of %d" pct nlat)
      ; row "points_per_s" "points/s" (float_of_int (Array.length stream) /. wall_s)
      ; row "hit_rate" "ratio" hit_rate ~note:"cold phase"
      ; count "requests_per_pass" (Array.length stream)
      ; count "distinct_points" (Hashtbl.length reference)
      ; row "passes" "count" (float_of_int (List.length passes))

      ]
    @ store_counters (List.hd passes)
  in
  let layers =
    if not trace then ([], [])
    else begin
      let last = List.hd (List.rev on) in
      let distinct = Layers.dedup key (Array.to_list stream) in
      let subjects =
        List.map
          (fun (app : App.t) ->
             { Layers.sapp = app
             ; backend = Machine.Backend.Ptx
             ; cfg_of = Gpusim.Config.fermi
             ; regs =
                 List.filter_map
                   (fun c -> if c.app.App.abbr = app.App.abbr then Some c.regs else None)
                   distinct
             })
          (Layers.dedup (fun (a : App.t) -> a.App.abbr) (List.map (fun c -> c.app) distinct))
      in
      let pts =
        List.map
          (fun c ->
             { Layers.app = c.app
             ; kernel = c.kernel
             ; cfg = config c.kepler
             ; tlp = c.tlp
             ; expected = Hashtbl.find_opt reference (key c)
             })
          distinct
      in
      let serve =
        { Layers.requests =
            (match last.stats with Some s -> s.P.requests | None -> 0)
        ; dedup_hits = (match last.stats with Some s -> s.P.dedup_hits | None -> 0)
        ; rtt_ms = last.rtt_ms
        }
      in
      let spans, rows = Layers.traced (fun () -> Layers.run tally ~serve ~dir subjects pts) in
      ( spans
      , Measure.row "trace.overhead" "ratio"
          (Measure.overhead ~off:(walls off) ~on:(walls on))
        :: rows )
    end
  in
  (e2e, report, layers)
