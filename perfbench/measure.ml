(* Timing, summary statistics, the check tally and the metric rows every
   workload reports. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted l = List.sort compare l

(* Linear-interpolated quantile of a non-empty sample, q in [0, 1]. *)
let quantile q l =
  match sorted l with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median l = quantile 0.5 l

(* The highest percentile that still has at least ten samples beyond it:
   returns (percentile, value, sample count). With fewer than eleven
   samples no such percentile exists and the maximum is reported with
   percentile 100. *)
let tail l =
  let a = Array.of_list (sorted l) in
  let n = Array.length a in
  if n = 0 then (100.0, nan, 0)
  else if n < 11 then (100.0, a.(n - 1), n)
  else
    let i = n - 11 in
    (100.0 *. float_of_int (i + 1) /. float_of_int n, a.(i), n)

let geomean = function
  | [] -> nan
  | l ->
    exp (List.fold_left (fun s x -> s +. log x) 0.0 l
         /. float_of_int (List.length l))

(* Peak resident set of a live process in MB (Linux /proc), 0 when the
   process is gone or /proc is unavailable. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | s ->
    String.split_on_char '\n' s
    |> List.find_map (fun line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] ->
        Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
          float_of_int kb /. 1024.0)
      | _ -> None)
    |> Option.value ~default:0.0

(* ---------- the check tally ---------- *)

(* Every operation and every output check counts as one attempt; a
   failed operation or a mismatching output counts as one failure. The
   first few failure messages are kept for the report. *)
type tally =
  { mutable attempted : int
  ; mutable failed : int
  ; mutable messages : string list
  ; lock : Mutex.t
  }

let tally () = { attempted = 0; failed = 0; messages = []; lock = Mutex.create () }

let record t ok what =
  Mutex.protect t.lock (fun () ->
    t.attempted <- t.attempted + 1;
    if not ok then begin
      t.failed <- t.failed + 1;
      if List.length t.messages < 20 then t.messages <- what () :: t.messages
    end)

let check t ok fmt = Printf.ksprintf (fun s -> record t ok (fun () -> s)) fmt

(* Run one operation; an exception counts as a failure and yields None. *)
let attempt t what f =
  match f () with
  | v -> Some v
  | exception e ->
    record t false (fun () -> what ^ ": " ^ Printexc.to_string e);
    None

let error_rate t =
  if t.attempted = 0 then 0.0
  else float_of_int t.failed /. float_of_int t.attempted

(* ---------- metric rows ---------- *)

(* [det] marks a deterministic counter: a pure function of the seed that
   must repeat exactly across runs. Wall-clock rows are trend data and
   carry the core count and compiler version in the report header. *)
type row =
  { name : string
  ; value : float
  ; unit_ : string
  ; det : bool
  ; note : string
  }

let row ?(det = false) ?(note = "") name unit_ value =
  { name; value; unit_; det; note }

let count name n = row ~det:true name "count" (float_of_int n)

let find rows name =
  match List.find_opt (fun r -> r.name = name) rows with
  | Some r -> r.value
  | None -> invalid_arg ("no metric " ^ name)

let deterministic rows = List.filter (fun r -> r.det) rows

(* ---------- the measurement loop ---------- *)

(* Set-up time is sampled ten times before every pass, so that its
   median spans the whole run rather than one instant of it. *)
let setup_sampler f =
  let samples = ref [] in
  let sample () =
    for _ = 1 to 10 do
      samples := snd (time f) :: !samples
    done
  in
  (sample, fun () -> median !samples)

(* Build the kernel and a launch of every app: the set-up shared by all
   workloads. *)
let build_inputs apps =
  List.iter
    (fun (app : Workloads.App.t) ->
       ignore (Workloads.App.launch app ~input:(Workloads.App.default_input app) ()))
    apps

(* Run [pass] until [seconds] have elapsed (and at least [min] times),
   calling [setup] before each pass, outside the pass's timing;
   with [traced], passes alternate between tracing off and on so the
   run also yields the tracing overhead. Returns the untraced and the
   traced results in order. *)
let loop ?(min = 1) ?setup ~seconds ~traced pass =
  let t0 = now () in
  let rec go i off on =
    let enough = List.length off + List.length on >= min in
    if enough && now () -. t0 >= seconds
       && ((not traced) || (off <> [] && on <> []))
    then (List.rev off, List.rev on)
    else begin
      Option.iter (fun f -> f ()) setup;
      let tr = traced && i mod 2 = 1 in
      Span.enable tr;
      let r = Fun.protect ~finally:(fun () -> Span.enable false) pass in
      (* collect the pass's garbage outside the timed region, so one
         pass's heap does not inflate the next one's peak *)
      Gc.full_major ();
      if tr then go (i + 1) off (r :: on) else go (i + 1) (r :: off) on
    end
  in
  go 0 [] []

(* Deterministic counters of a pass must repeat exactly on every pass of
   the same draw. *)
let check_repeat tally ~what first rows =
  let first = deterministic first and rows = deterministic rows in
  if List.length first <> List.length rows then
    check tally false "%s: %d deterministic counters on one pass, %d on another"
      what (List.length first) (List.length rows)
  else
    List.iter2
      (fun a b ->
         check tally (a.name = b.name && a.value = b.value)
           "%s: deterministic counter %s moved between passes (%g -> %g)" what
           a.name a.value b.value)
      first rows

let overhead ~off ~on =
  match off, on with
  | [], _ | _, [] -> nan
  | _ -> (median on /. median off) -. 1.0

let samples_note l =
  let shown = List.filteri (fun i _ -> i < 8) l in
  Printf.sprintf "median of %d: %s%s" (List.length l)
    (String.concat " " (List.map (Printf.sprintf "%.4g") shown))
    (if List.length l > 8 then " ..." else "")

(* The gated wall-clock figure: the median pass wall-clock over the
   median input-building time of the same run. On a 2-vCPU cloud VM the
   speed of the same code moved by up to 40% within seconds, and pass
   times moved with it; loops written for the purpose (integer mixing
   over a table, sorting, map building) did not follow those moves,
   building the workload's own kernels and launches, sampled before
   every pass, does in part.

   The divisor is the program's own code (Workloads kernel builders,
   Gpusim.Memory writes), which the pass runs too. So a slowdown that
   hits all code alike (build flags, a new check in Memory) cancels out
   of this figure, a slowdown confined to that shared code is partly
   hidden, and a faster input building makes this figure worse on every
   workload. All of these show in [setup_s], gated on its own: read the
   two together. *)
let wall_rows ~walls ~build_s =
  let wall_s = median walls in
  [ row "wall_per_setup" "ratio" (wall_s /. build_s)
  ; row "wall_s" "s" wall_s ~note:(samples_note walls)
  ]
