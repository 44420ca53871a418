(* Layering checks, on sources with comments and string literals
   stripped:
   - the reference interpreter stays out of production paths.
     {!Gpusim.Refinterp} is the semantic oracle for the fast
     interpreter; besides the tests, only translation validation's
     witness replay may run on it. Every OCaml source under lib/, bin/
     and bench/ is scanned for the identifier [Refinterp];
   - the timing layer times traces only: {!Gpusim.Sm} and {!Gpusim.Gpu}
     never name [Interp], so functional execution reaches them only
     through {!Gpusim.Emulator}'s recorded traces. *)

let roots = [ "lib"; "bin"; "bench" ]

let allowed =
  [ "lib/gpusim/refinterp.ml"; "lib/gpusim/refinterp.mli"; "lib/equiv/witness.ml" ]

(* The tests run in the build tree's test/ directory; the scanned
   directories are declared as dune deps, so they sit next to it. *)
let root_dir = ".."

let rec sources dir =
  Sys.readdir (Filename.concat root_dir dir)
  |> Array.to_list
  |> List.sort compare
  |> List.concat_map (fun name ->
    let rel = dir ^ "/" ^ name in
    if name.[0] = '.' then [] (* build-system object directories *)
    else if Sys.is_directory (Filename.concat root_dir rel) then sources rel
    else if Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"
    then [ rel ]
    else [])

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* OCaml source with comments (nested, and lexing the string literals
   inside them as the compiler does), string literals, quoted strings
   [{id|...|id}] and character literals blanked out. *)
let code_only src =
  let n = String.length src in
  let out = Buffer.create n in
  let rec skip_string i =
    if i >= n then i
    else if src.[i] = '\\' then skip_string (i + 2)
    else if src.[i] = '"' then i + 1
    else skip_string (i + 1)
  in
  (* the end of a quoted string opening at [i], if one opens there *)
  let quoted_end i =
    let rec id_end j =
      if j < n && (match src.[j] with 'a' .. 'z' | '_' -> true | _ -> false)
      then id_end (j + 1)
      else j
    in
    let j = if src.[i] = '{' then id_end (i + 1) else i in
    if j = i || j >= n || src.[j] <> '|' then None
    else
      let close = "|" ^ String.sub src (i + 1) (j - i - 1) ^ "}" in
      let c = String.length close in
      let rec find k =
        if k + c > n then n
        else if String.sub src k c = close then k + c
        else find (k + 1)
      in
      Some (find (j + 1))
  in
  let rec skip_comment depth i =
    if i >= n then i
    else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then
      skip_comment (depth + 1) (i + 2)
    else if i + 1 < n && src.[i] = '*' && src.[i + 1] = ')' then
      if depth = 1 then i + 2 else skip_comment (depth - 1) (i + 2)
    else if src.[i] = '"' then skip_comment depth (skip_string (i + 1))
    else
      match quoted_end i with
      | Some j -> skip_comment depth j
      | None -> skip_comment depth (i + 1)
  in
  let rec go i =
    if i < n then
      if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then begin
        Buffer.add_char out ' ';
        go (skip_comment 1 (i + 2))
      end
      else if src.[i] = '"' then begin
        Buffer.add_char out ' ';
        go (skip_string (i + 1))
      end
      else if src.[i] = '\'' && i + 2 < n && src.[i + 2] = '\'' then
        go (i + 3)
      else if src.[i] = '\'' && i + 1 < n && src.[i + 1] = '\\' then
        go (match String.index_from_opt src (i + 2) '\'' with
            | Some j -> j + 1
            | None -> n)
      else
        match quoted_end i with
        | Some j ->
          Buffer.add_char out ' ';
          go j
        | None ->
          Buffer.add_char out src.[i];
          go (i + 1)
  in
  go 0;
  Buffer.contents out

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

let mentions word code =
  let w = String.length word and n = String.length code in
  let rec from i =
    match String.index_from_opt code i word.[0] with
    | None -> false
    | Some j ->
      (j + w <= n
       && String.sub code j w = word
       && (j = 0 || not (is_ident_char code.[j - 1]))
       && (j + w = n || not (is_ident_char code.[j + w])))
      || from (j + 1)
  in
  n > 0 && from 0

let references ?(word = "Refinterp") file =
  mentions word (code_only (read_file (Filename.concat root_dir file)))

let test_scanner () =
  let check what expected src =
    Alcotest.(check bool) what expected (mentions "Refinterp" (code_only src))
  in
  check "qualified use" true "let f = Gpusim.Refinterp.run";
  check "open and bare use" true "open Gpusim\nlet f = Refinterp.step";
  check "comment" false "(* runs on {!Refinterp} *) let x = 1";
  check "nested comment" false "(* a (* b *) Refinterp *) let x = 1";
  check "string in comment" false "(* \"*)\" Refinterp *) let x = 1";
  check "string literal" false "let s = \"Refinterp: deadlock\"";
  check "quoted string" false "let s = {|\"a\" Refinterp|}";
  check "quoted string with id" false "let s = {js|\"|} Refinterp|js}";
  check "after a quoted string" true "let s = {|\"|} let f = Refinterp.pc";
  check "quoted string in comment" false "(* {|*)|} Refinterp *) let x = 1";
  check "record braces" true "let r = { x with f = Refinterp.pc }";
  check "longer identifier" false "let refinterp_s = Refinterp_like.x";
  check "char literals" true "let c = '\"' let d = '\\'' let f = Refinterp.pc"

let test_scope () =
  let files = List.concat_map sources roots in
  Alcotest.(check bool) "scanned the source tree" true (List.length files > 50);
  (* the scanner must see the legitimate code reference *)
  Alcotest.(check bool) "witness replay uses Refinterp" true
    (references "lib/equiv/witness.ml");
  let offenders =
    List.filter (fun f -> (not (List.mem f allowed)) && references f) files
  in
  Alcotest.(check (list string))
    "Refinterp referenced outside the oracle and witness replay" [] offenders

let timing_sources =
  [ "lib/gpusim/sm.ml"; "lib/gpusim/sm.mli"; "lib/gpusim/gpu.ml"; "lib/gpusim/gpu.mli" ]

let test_timing_times_traces () =
  (* the scanner must see the layer below, where the recording runs *)
  Alcotest.(check bool) "the emulator drives Interp" true
    (references ~word:"Interp" "lib/gpusim/emulator.ml");
  Alcotest.(check (list string))
    "Interp referenced from the timing layer" []
    (List.filter (references ~word:"Interp") timing_sources)

let () =
  Alcotest.run "layering"
    [ ( "refinterp"
      , [ Alcotest.test_case "scanner strips comments and strings" `Quick
            test_scanner
        ; Alcotest.test_case "only the oracle and witness replay" `Quick
            test_scope
        ] )
    ; ( "timing"
      , [ Alcotest.test_case "Sm and Gpu do not reference Interp" `Quick
            test_timing_times_traces
        ] )
    ]
