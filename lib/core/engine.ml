type report =
  { jobs : int
  ; sim_runs : int
  ; sim_hits : int
  ; trace_records : int
  ; trace_replays : int
  ; alloc_runs : int
  ; alloc_hits : int
  ; job_wall : float
  ; max_queue_depth : int
  ; batches : int
  ; dedup_waits : int
  }

type t =
  { n_jobs : int
  ; replay : bool
  ; lock : Mutex.t
  ; cond : Condition.t  (** broadcast whenever a batch drops its claims *)
  ; inflight : (string, unit) Hashtbl.t
      (** sim keys claimed by a running batch: computed once, waited on
          by every other batch that needs them *)
  ; recording : (string, unit) Hashtbl.t
      (** launch keys whose trace a running batch is recording *)
  ; disk : Store.t option
      (** persistent write-through layer under all three in-memory
          stores; answers are bit-identical (Marshal round-trips) *)
  ; sim_store : (string, Gpusim.Stats.t) Hashtbl.t
  ; traces : Gpusim.Replay.Store.t
  ; alloc_store : (string, Regalloc.Allocator.t) Hashtbl.t
  ; mutable kernel_digests : (Ptx.Kernel.t * string) list
      (** physical-identity memo: allocations are cached, so the same
          kernel value is digested many times across a sweep *)
  ; mutable launch_keys : (Gpusim.Launch.t * string) list
      (** physical-identity memo for {!launch_key}: sweep drivers reuse
          one launch record across many (config, tlp) points *)
  ; mutable sim_runs : int
  ; mutable sim_hits : int
  ; mutable trace_records : int
  ; mutable trace_replays : int
  ; mutable alloc_runs : int
  ; mutable alloc_hits : int
  ; mutable job_wall : float
  ; mutable max_queue_depth : int
  ; mutable batches : int
  ; mutable dedup_waits : int
  }

let create ?(jobs = 1) ?(replay = true) ?trace_budget ?store () =
  if jobs < 1 then invalid_arg "Engine.create: jobs must be >= 1";
  (* traces evicted from the in-memory event budget spill to the
     persistent store (put is a no-op when the key is already there) *)
  let on_evict =
    Option.map
      (fun d k tr ->
         Store.put d ~kind:"trace" ~key:k (Gpusim.Replay.to_bytes tr))
      store
  in
  { n_jobs = jobs
  ; replay
  ; lock = Mutex.create ()
  ; cond = Condition.create ()
  ; inflight = Hashtbl.create 16
  ; recording = Hashtbl.create 16
  ; disk = store
  ; sim_store = Hashtbl.create 256
  ; traces = Gpusim.Replay.Store.create ?max_events:trace_budget ?on_evict ()
  ; alloc_store = Hashtbl.create 64
  ; kernel_digests = []
  ; launch_keys = []
  ; sim_runs = 0
  ; sim_hits = 0
  ; trace_records = 0
  ; trace_replays = 0
  ; alloc_runs = 0
  ; alloc_hits = 0
  ; job_wall = 0.
  ; max_queue_depth = 0
  ; batches = 0
  ; dedup_waits = 0
  }

let jobs t = t.n_jobs
let replay_enabled t = t.replay
let store t = t.disk

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let now () = Unix.gettimeofday ()

(* ---------- content addressing ---------- *)

let digest s = Digest.to_hex (Digest.string s)

let kernel_digest t k =
  match locked t (fun () -> List.assq_opt k t.kernel_digests) with
  | Some d -> d
  | None ->
    let d = digest (Ptx.Printer.kernel_to_string k) in
    locked t (fun () ->
      (* bounded memo; dropping entries only costs a re-digest *)
      let kept =
        if List.length t.kernel_digests >= 512 then [] else t.kernel_digests
      in
      t.kernel_digests <- (k, d) :: kept);
    d

(* Config.t is a pure-data record (ints, strings, variants), so
   marshalling gives a stable structural fingerprint. *)
let data_digest v = digest (Marshal.to_string v [])

(* The launch's trace key: kernel image, geometry, params and canonical
   initial-memory digest — no Config.t, no TLP (see Replay.launch_key).
   Memoized on the physical launch record: the engine never mutates a
   submitted launch's memory (cold runs execute on a copy), so the key
   stays valid for the record's lifetime. *)
let launch_key t (l : Gpusim.Launch.t) =
  match locked t (fun () -> List.assq_opt l t.launch_keys) with
  | Some k -> k
  | None ->
    let kd = kernel_digest t l.Gpusim.Launch.kernel in
    let k = Gpusim.Replay.launch_key ~kernel_digest:kd l in
    locked t (fun () ->
      let kept = if List.length t.launch_keys >= 512 then [] else t.launch_keys in
      t.launch_keys <- (l, k) :: kept);
    k

let sim_key t (l : Gpusim.Launch.t) cfg ~tlp =
  digest
    (String.concat "|"
       [ launch_key t l; data_digest cfg; string_of_int tlp ])

let alloc_key t ~strategy ~backend ~shared_spare ~block_size ~reg_limit kernel =
  String.concat "|"
    [ kernel_digest t kernel
    ; (match (strategy : Regalloc.Allocator.strategy) with
       | Regalloc.Allocator.Chaitin_briggs -> "cb"
       | Regalloc.Allocator.Linear_scan -> "ls")
    ; Machine.Backend.to_string backend
    ; string_of_int shared_spare
    ; string_of_int block_size
    ; string_of_int reg_limit
    ]

(* ---------- persistent store plumbing ---------- *)

let disk_put_value t ~kind ~key v =
  match t.disk with
  | None -> ()
  | Some d -> Store.put_value d ~kind ~key v

let disk_get_stats t key : Gpusim.Stats.t option =
  match t.disk with
  | None -> None
  | Some d -> Store.get_value d ~kind:"stats" ~key

let disk_get_alloc t key : Regalloc.Allocator.t option =
  match t.disk with
  | None -> None
  | Some d -> Store.get_value d ~kind:"alloc" ~key

let disk_put_trace t key tr =
  match t.disk with
  | None -> ()
  | Some d -> Store.put d ~kind:"trace" ~key (Gpusim.Replay.to_bytes tr)

let disk_get_trace t key =
  match t.disk with
  | None -> None
  | Some d ->
    (match Store.get d ~kind:"trace" ~key with
     | None -> None
     | Some s -> Gpusim.Replay.of_bytes s)

let disk_mem_trace t key =
  match t.disk with
  | None -> false
  | Some d -> Store.mem d ~kind:"trace" ~key

(* ---------- domain pool ---------- *)

(* Set on worker domains (and on the main domain while it doubles as a
   worker): nested engine calls from inside a job run serially instead
   of spawning a second generation of domains. *)
let worker_key = Domain.DLS.new_key (fun () -> false)
let in_worker () = Domain.DLS.get worker_key

let as_worker f =
  let saved = Domain.DLS.get worker_key in
  Domain.DLS.set worker_key true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set worker_key saved) f

(* Parallel array map: an atomic cursor feeds items to [width] workers
   (the calling domain is one of them). Order of results is by index,
   so the output is deterministic whatever the interleaving. *)
let pmap t f arr =
  let n = Array.length arr in
  (* spawning more domains than cores buys nothing and costs every GC a
     wider synchronisation barrier, so the requested width is clamped to
     the runtime's recommendation; results are ordered by index, so the
     effective width never changes an answer *)
  let width =
    min (min t.n_jobs n) (max 1 (Domain.recommended_domain_count ()))
  in
  if width <= 1 || in_worker () then Array.map f arr
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let worker () =
      as_worker (fun () ->
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n && Atomic.get failure = None then begin
            (try results.(i) <- Some (f arr.(i))
             with e ->
               let bt = Printexc.get_raw_backtrace () in
               ignore (Atomic.compare_and_set failure None (Some (e, bt))));
            loop ()
          end
        in
        loop ())
    in
    let domains = List.init (width - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join domains;
    (match Atomic.get failure with
     | Some (e, bt) -> Printexc.raise_with_backtrace e bt
     | None -> ());
    Array.map
      (function
        | Some v -> v
        | None -> assert false)
      results
  end

let map t f xs = Array.to_list (pmap t f (Array.of_list xs))

(* ---------- allocation ---------- *)

let allocate t ?(strategy = Regalloc.Allocator.Chaitin_briggs)
    ?(backend = Machine.Backend.Ptx) ?(shared_spare = 0)
    (app : Workloads.App.t) ~reg_limit =
  let kernel = Workloads.App.kernel app in
  let block_size = app.Workloads.App.block_size in
  let key =
    alloc_key t ~strategy ~backend ~shared_spare ~block_size ~reg_limit kernel
  in
  (* the alloc key is a readable concat; the on-disk name is its digest *)
  let dkey = digest key in
  let memory_hit = locked t (fun () -> Hashtbl.find_opt t.alloc_store key) in
  (* with the gate armed, never answer allocations from disk: the gate's
     audits must run on every allocation this process hands out *)
  let disk_hit =
    match memory_hit with
    | Some _ -> None
    | None -> if Verify.Gate.enabled () then None else disk_get_alloc t dkey
  in
  match (memory_hit, disk_hit) with
  | Some a, _ ->
    locked t (fun () -> t.alloc_hits <- t.alloc_hits + 1);
    a
  | None, Some a ->
    locked t (fun () ->
      t.alloc_hits <- t.alloc_hits + 1;
      Hashtbl.replace t.alloc_store key a);
    a
  | None, None ->
    let shared_policy = if shared_spare > 0 then `Spare shared_spare else `Off in
    let scalar, scalar_limit =
      match backend with
      | Machine.Backend.Ptx -> ((fun _ -> false), 0)
      | Machine.Backend.Machine ->
        ( Machine.Scalarize.predicate ~block_size kernel
        , Machine.Backend.default_scalar_limit )
    in
    (* debug gate: verify the input kernel, then audit the allocation,
       translation-validate the allocation edge (original vs allocated
       modulo the recorded assignment and spills) and run the
       hybrid-sanitizer bounds proof over the spill code; all no-ops
       unless CRAT_VERIFY / Verify.Gate.set enables them *)
    Verify.Gate.run
      ~stage:(app.Workloads.App.abbr ^ ":pre-alloc")
      [ Verify.Gate.Kernel { block_size = Some block_size; kernel } ];
    let t0 = now () in
    let a =
      Regalloc.Allocator.allocate ~strategy ~shared_policy ~scalar
        ~scalar_limit ~block_size ~reg_limit kernel
    in
    Verify.Gate.run
      ~stage:(app.Workloads.App.abbr ^ ":post-alloc")
      [ Verify.Gate.Allocation a
      ; Verify.Gate.Equiv_alloc a
      ; Verify.Gate.Sanitize
          { block_size = Some block_size; kernel = a.Regalloc.Allocator.kernel }
      ];
    (* under the machine backend, also lower and run the V6xx audit
       (a no-op unless the gate is on) *)
    if backend = Machine.Backend.Machine && Verify.Gate.enabled () then begin
      let m = Machine.Lower.run a in
      Verify.Gate.run
        ~stage:(app.Workloads.App.abbr ^ ":post-lower")
        [ Verify.Gate.Machine m; Verify.Gate.Equiv_lower m ]
    end;
    let dt = now () -. t0 in
    locked t (fun () ->
      t.alloc_runs <- t.alloc_runs + 1;
      t.job_wall <- t.job_wall +. dt;
      Hashtbl.replace t.alloc_store key a);
    disk_put_value t ~kind:"alloc" ~key:dkey a;
    a

(* ---------- simulation ---------- *)

(* One deduplicated pending point of a batch. *)
type point =
  { launch : Gpusim.Launch.t
  ; cfg : Gpusim.Config.t
  ; tlp : int
  ; skey : string
  ; lkey : string
  ; record : bool  (** this point records the launch's trace (wave 1) *)
  }

(* One point: find the launch's trace — in memory, then on disk
   (re-resident for the rest of the sweep) — otherwise record one, then
   time it. Recording executes functionally, so it runs on a copy: the
   engine must not mutate a submitted launch, whose memory backs the
   content key. A point that records for the engine keeps the trace
   only after a successful run (a Cycle_limit abort must not leave a
   truncated trace behind), and the persistent store gets it too — that
   is what makes "record each launch once ever" hold across processes.
   Every other recorded trace is dropped. *)
let exec t p =
  let found =
    if t.replay && not p.record then
      match Gpusim.Replay.Store.find t.traces p.lkey with
      | Some _ as tr -> tr
      | None ->
        Option.map
          (fun tr ->
             Gpusim.Replay.Store.add t.traces p.lkey tr;
             tr)
          (disk_get_trace t p.lkey)
    else None
  in
  match found with
  | Some tr ->
    let st =
      Gpusim.Sm.run ~replay:tr p.cfg (Gpusim.Launch.with_tlp p.launch p.tlp)
    in
    locked t (fun () -> t.trace_replays <- t.trace_replays + 1);
    st
  | None ->
    let tr = Gpusim.Replay.create p.launch in
    let st =
      Gpusim.Sm.run ~record:tr p.cfg
        { p.launch with
          Gpusim.Launch.memory = Gpusim.Memory.copy p.launch.Gpusim.Launch.memory
        ; tlp_limit = p.tlp
        }
    in
    if p.record then begin
      Gpusim.Replay.finish tr;
      Gpusim.Replay.Store.add t.traces p.lkey tr;
      disk_put_trace t p.lkey tr;
      locked t (fun () -> t.trace_records <- t.trace_records + 1)
    end;
    st

(* Claim-or-wait: a batch claims each distinct key nobody has stored or
   claimed, computes its claims in two waves, publishes them and drops
   the claims under [Fun.protect]; only then does it wait for the keys
   other batches hold. Waiting after computing means no cycle of waits.
   A claimant that raises publishes nothing, so a woken waiter finds
   neither an answer nor a claim and computes the key itself. *)
let rec simulate_batch ?(cache = true) t items =
  let items = Array.of_list items in
  let keys =
    Array.map (fun (l, cfg, tlp) -> sim_key t l cfg ~tlp) items
  in
  let answers = Hashtbl.create 16 in
  let pending = ref [] and busy = ref [] in
  (* the sim and launch keys this batch claimed *)
  let claims = ref [] and records = ref [] in
  let release () =
    if !claims <> [] || !records <> [] then
      locked t (fun () ->
        List.iter (Hashtbl.remove t.inflight) !claims;
        List.iter (Hashtbl.remove t.recording) !records;
        Condition.broadcast t.cond)
  in
  let claim i k =
    let launch, cfg, tlp = items.(i) in
    let state =
      if not cache then `Claimed
      else
        locked t (fun () ->
          match Hashtbl.find_opt t.sim_store k with
          | Some st -> `Stored st
          | None when Hashtbl.mem t.inflight k -> `Busy
          | None ->
            Hashtbl.replace t.inflight k ();
            claims := k :: !claims;
            `Claimed)
    in
    match state with
    | `Stored st -> Hashtbl.replace answers k st
    | `Busy -> busy := i :: !busy
    | `Claimed ->
      (* persistent layer: statistics computed by an earlier process
         answer without any simulation at all *)
      (match if cache then disk_get_stats t k else None with
       | Some st ->
         locked t (fun () -> Hashtbl.replace t.sim_store k st);
         Hashtbl.replace answers k st
       | None ->
         let lkey = launch_key t launch in
         (* the first claimed point of a launch whose trace is absent
            from both stores, and that no other batch is recording,
            records it; every other point replays *)
         let record =
           cache && t.replay
           && (not (disk_mem_trace t lkey))
           && locked t (fun () ->
                let free =
                  not
                    (Hashtbl.mem t.recording lkey
                     || Gpusim.Replay.Store.mem t.traces lkey)
                in
                if free then begin
                  Hashtbl.replace t.recording lkey ();
                  records := lkey :: !records
                end;
                free)
         in
         pending := { launch; cfg; tlp; skey = k; lkey; record } :: !pending)
  in
  let computed =
    Fun.protect ~finally:release @@ fun () ->
    let seen = Hashtbl.create 16 in
    Array.iteri
      (fun i k ->
         if not (Hashtbl.mem seen k) then begin
           Hashtbl.add seen k ();
           claim i k
         end)
      keys;
    let pending = Array.of_list (List.rev !pending) in
    let depth = Array.length pending in
    locked t (fun () ->
      t.batches <- t.batches + 1;
      if depth > t.max_queue_depth then t.max_queue_depth <- depth);
    (* two waves: recorders first, so every other point of the same
       launch — possibly on another domain — replays rather than paying
       functional execution again *)
    let wave which =
      pmap t
        (fun p ->
           let t0 = now () in
           let st = exec t p in
           (p.skey, st, now () -. t0))
        (Array.of_seq
           (Seq.filter (fun p -> p.record = which) (Array.to_seq pending)))
    in
    (* the recording wave must fully finish before the replay wave starts
       (and argument evaluation order would run them backwards) *)
    let recorded = wave true in
    let replayed = wave false in
    let computed = Array.append recorded replayed in
    locked t (fun () ->
      Array.iter
        (fun (k, st, dt) ->
           t.sim_runs <- t.sim_runs + 1;
           t.job_wall <- t.job_wall +. dt;
           if cache then Hashtbl.replace t.sim_store k st)
        computed;
      t.sim_hits <-
        t.sim_hits + (Array.length items - depth - List.length !busy));
    computed
  in
  Array.iter
    (fun (k, st, _) ->
       Hashtbl.replace answers k st;
       if cache then disk_put_value t ~kind:"stats" ~key:k st)
    computed;
  List.iter
    (fun i ->
       let k = keys.(i) in
       let rec await () =
         match Hashtbl.find_opt t.sim_store k with
         | Some st ->
           t.dedup_waits <- t.dedup_waits + 1;
           Some st
         | None when Hashtbl.mem t.inflight k ->
           Condition.wait t.cond t.lock;
           await ()
         | None -> None
       in
       let st =
         match locked t await with
         | Some st -> st
         | None -> List.hd (simulate_batch ~cache t [ items.(i) ])
       in
       Hashtbl.replace answers k st)
    (List.rev !busy);
  Array.to_list (Array.map (Hashtbl.find answers) keys)

let find t l cfg ~tlp =
  let k = sim_key t l cfg ~tlp in
  locked t (fun () ->
    let found = Hashtbl.find_opt t.sim_store k in
    if Option.is_some found then t.sim_hits <- t.sim_hits + 1;
    found)

let simulate ?cache t l cfg ~tlp =
  match simulate_batch ?cache t [ (l, cfg, tlp) ] with
  | [ st ] -> st
  | _ -> assert false

let cycles ?cache t l cfg ~tlp =
  (simulate ?cache t l cfg ~tlp).Gpusim.Stats.cycles

(* ---------- observability ---------- *)

let report t =
  locked t (fun () ->
    { jobs = t.n_jobs
    ; sim_runs = t.sim_runs
    ; sim_hits = t.sim_hits
    ; trace_records = t.trace_records
    ; trace_replays = t.trace_replays
    ; alloc_runs = t.alloc_runs
    ; alloc_hits = t.alloc_hits
    ; job_wall = t.job_wall
    ; max_queue_depth = t.max_queue_depth
    ; batches = t.batches
    ; dedup_waits = t.dedup_waits
    })

let reset t =
  Gpusim.Replay.Store.clear t.traces;
  locked t (fun () ->
    Hashtbl.reset t.sim_store;
    Hashtbl.reset t.alloc_store;
    t.kernel_digests <- [];
    t.launch_keys <- [];
    t.sim_runs <- 0;
    t.sim_hits <- 0;
    t.trace_records <- 0;
    t.trace_replays <- 0;
    t.alloc_runs <- 0;
    t.alloc_hits <- 0;
    t.job_wall <- 0.;
    t.max_queue_depth <- 0;
    t.batches <- 0;
    t.dedup_waits <- 0)

let pp_report fmt r =
  Format.fprintf fmt
    "engine: jobs=%d, %d simulations (%d store hits, %d trace records, %d \
     trace replays), %d allocations (%d hits), %.1fs job wall-clock, %d \
     batches, max queue depth %d"
    r.jobs r.sim_runs r.sim_hits r.trace_records r.trace_replays r.alloc_runs
    r.alloc_hits r.job_wall r.batches r.max_queue_depth
