(* In-memory spans around the calls the benchmark makes into the
   library. Recording is off unless [enable] was called, and then costs
   one branch per call. A span's layer is the part of its name before
   the first ':' ("sm:Sm.run~replay" belongs to layer "sm").

   Spans are kept in memory and written out once, at the end, as
   Chrome trace-event JSON (loadable in ui.perfetto.dev). *)

type t =
  { id : int
  ; name : string
  ; start : float
  ; stop : float
  ; parent : int  (** 0 = root *)
  ; req : int  (** request id; spans of one request share it, 0 = none *)
  ; tid : int
  }

let on = ref false
let lock = Mutex.create ()
let spans : t list ref = ref []
let next = ref 0

(* per-thread stack of open span ids: the parent of a new span *)
let stacks : (int, int list) Hashtbl.t = Hashtbl.create 8

let enable b = on := b
let enabled () = !on

let layer name =
  match String.index_opt name ':' with
  | Some i -> String.sub name 0 i
  | None -> name

let with_ ?(req = 0) name f =
  if not !on then f ()
  else begin
    let tid = Thread.id (Thread.self ()) in
    let id, parent =
      Mutex.protect lock (fun () ->
        incr next;
        let st = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
        Hashtbl.replace stacks tid (!next :: st);
        (!next, match st with p :: _ -> p | [] -> 0))
    in
    let start = Unix.gettimeofday () in
    let finish () =
      let stop = Unix.gettimeofday () in
      Mutex.protect lock (fun () ->
        (match Hashtbl.find_opt stacks tid with
         | Some (_ :: rest) -> Hashtbl.replace stacks tid rest
         | _ -> ());
        spans := { id; name; start; stop; parent; req; tid } :: !spans)
    in
    Fun.protect ~finally:finish f
  end

(* Spans recorded so far, removed from the buffer (ids keep counting). *)
let take () =
  Mutex.protect lock (fun () ->
    let l = List.rev !spans in
    spans := [];
    l)

(* Length of the union of intervals. *)
let covered intervals =
  let rec go acc cur = function
    | [] -> (match cur with Some (a, b) -> acc +. (b -. a) | None -> acc)
    | (a, b) :: rest ->
      (match cur with
       | None -> go acc (Some (a, b)) rest
       | Some (ca, cb) ->
         if a <= cb then go acc (Some (ca, Float.max cb b)) rest
         else go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0.0 None (List.sort compare intervals)

(* Self time of every span: its duration minus the part of its interval
   covered by its child spans. *)
let self_times (l : t list) =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
       if s.parent <> 0 then
         Hashtbl.replace children s.parent
           ((s.start, s.stop)
            :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    l;
  List.map
    (fun s ->
       let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
       let clipped =
         List.map (fun (a, b) -> (Float.max a s.start, Float.min b s.stop)) kids
       in
       (s, Float.max 0.0 (s.stop -. s.start -. covered clipped)))
    l

(* Summed self time per span name, and per layer. *)
let self_by ~key l =
  let h = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
       let k = key s.name in
       Hashtbl.replace h k (self +. Option.value ~default:0.0 (Hashtbl.find_opt h k)))
    (self_times l);
  fun k -> Option.value ~default:0.0 (Hashtbl.find_opt h k)

let write_chrome path l =
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity l in
  Out_channel.with_open_text path (fun oc ->
    output_string oc "[";
    List.iteri
      (fun i s ->
         Printf.fprintf oc
           "%s\n{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.1f,\"dur\":%.1f,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}"
           (if i = 0 then "" else ",")
           s.name (layer s.name) s.tid
           ((s.start -. t0) *. 1e6)
           ((s.stop -. s.start) *. 1e6)
           s.id s.parent s.req)
      l;
    output_string oc "\n]\n")
