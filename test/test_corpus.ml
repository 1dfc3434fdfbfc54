(* Golden-code corpus: every file under corpus/ is a malformed .eva
   program or serving-protocol message whose filename carries the
   structured error code it must produce (e.g.
   e403-req-vector-length-huge.wire). The runner
   feeds each to the matching reader and checks that it raises a
   classified error with exactly that code — no bare Failure, no crash,
   no silent acceptance. *)

module Serialize = Eva_core.Serialize
module Wire = Eva_ckks.Wire
module Diag = Eva_diag.Diag

let corpus_dir = "corpus"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let expected_code name =
  (* "e403-req-..." -> 403 *)
  if String.length name < 5 || name.[0] <> 'e' then
    Alcotest.failf "corpus file %S: name must start with e<code>-" name;
  match int_of_string_opt (String.sub name 1 3) with
  | Some c -> c
  | None -> Alcotest.failf "corpus file %S: malformed code prefix" name

let feed name body =
  if Filename.check_suffix name ".eva" then ignore (Serialize.of_string body)
  else if Filename.check_suffix name ".wire" then begin
    let contains sub =
      let n = String.length sub in
      let rec go i = i + n <= String.length name && (String.sub name i n = sub || go (i + 1)) in
      go 0
    in
    let pos = ref 0 in
    if contains "-req-" then ignore (Wire.read_request body ~pos)
    else if contains "-resp-" then ignore (Wire.read_response body ~pos)
    else if contains "-stats-" then ignore (Wire.read_stats body ~pos)
    else Alcotest.failf "corpus file %S: unknown wire kind (want -req-/-resp-/-stats-)" name
  end
  else Alcotest.failf "corpus file %S: unknown extension" name

(* "ok-" corpus entries are the positive counterpart of the error
   goldens: well-formed scalar-shaped programs that must parse,
   validate, and compile cleanly — and, being scalar-shaped, must be
   picked up by the auto-vectorization pass (a recorded packing). *)
let feed_ok name body =
  let p = Eva_core.Serialize.of_string body in
  Eva_core.Validate.check_input_program p;
  let c = Eva_core.Compile.run p in
  if c.Eva_core.Compile.packing = None then
    Alcotest.failf "%s: auto-vectorization did not fire on a scalar-shaped program" name

let test_corpus () =
  let files = Sys.readdir corpus_dir in
  Array.sort compare files;
  Alcotest.(check bool) "corpus has at least 30 entries" true (Array.length files >= 30);
  Array.iter
    (fun name ->
      let body = read_file (Filename.concat corpus_dir name) in
      if String.length name >= 3 && String.sub name 0 3 = "ok-" then feed_ok name body
      else
      let want = expected_code name in
      match feed name body with
      | () -> Alcotest.failf "%s: accepted, expected EVA-E%03d" name want
      | exception e -> (
          match Diag.classify e with
          | Some d ->
              if d.Diag.code <> want then
                Alcotest.failf "%s: got EVA-E%03d (%s), expected EVA-E%03d" name d.Diag.code
                  d.Diag.message want
          | None -> Alcotest.failf "%s: unclassified exception %s" name (Printexc.to_string e)))
    files

(* Positions must be present and meaningful on wire errors: the huge
   vector length sits on line 2 of the request. *)
let test_wire_error_position () =
  match Wire.read_request "request 7 -1 1\nx 2097152 0x1p+0\n" ~pos:(ref 0) with
  | _ -> Alcotest.fail "accepted a 2^21-slot vector"
  | exception Diag.Error d -> (
      Alcotest.(check int) "code" Diag.wire_length d.Diag.code;
      match d.Diag.pos with
      | Some (line, _) -> Alcotest.(check int) "line of the offending token" 2 line
      | None -> Alcotest.fail "no position on a wire error")

(* A client's bytes cut short fail in the Wire layer wherever the cut
   falls: inside a request payload, or inside the body of the frame the
   daemon reads it from (EVA-E401). *)
let test_truncated_input () =
  let payload =
    Wire.to_string
      (fun buf () -> Wire.write_request buf ~id:7 [ ("x", Array.init 16 (fun i -> Float.sin (float_of_int i))) ])
      ()
  in
  let wire_layer what f =
    match f () with
    | _ -> Alcotest.failf "%s: truncated input accepted" what
    | exception Diag.Error d -> Alcotest.(check bool) (what ^ ": Wire layer") true (d.Diag.layer = Diag.Wire)
  in
  wire_layer "request" (fun () ->
      Wire.read_request (String.sub payload 0 (String.length payload / 2)) ~pos:(ref 0));
  let path = Filename.temp_file "corpus_frame" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Printf.fprintf oc "frame %d\n%s" (String.length payload)
            (String.sub payload 0 (String.length payload - 1)));
      In_channel.with_open_bin path (fun ic ->
          match Wire.read_frame ic with
          | _ -> Alcotest.fail "frame: truncated body accepted"
          | exception Diag.Error d -> Alcotest.(check int) "frame: E401" Diag.wire_truncated d.Diag.code))

(* Exit codes are part of the CLI contract: one per layer, disjoint from
   cmdliner's own 123-125 range. *)
let test_exit_codes_distinct () =
  let layers = [ Diag.Parse; Diag.Validate; Diag.Compile; Diag.Wire; Diag.Execute; Diag.Crypto ] in
  let codes = List.map Diag.exit_code layers in
  Alcotest.(check int) "distinct" (List.length codes) (List.length (List.sort_uniq compare codes));
  List.iter (fun c -> Alcotest.(check bool) "outside cmdliner range" true (c < 123)) codes

let () =
  Alcotest.run "corpus"
    [
      ( "malformed inputs",
        [
          Alcotest.test_case "golden error codes" `Quick test_corpus;
          Alcotest.test_case "wire errors carry positions" `Quick test_wire_error_position;
          Alcotest.test_case "exit codes distinct" `Quick test_exit_codes_distinct;
        ] );
      ("trust boundary", [ Alcotest.test_case "truncated input" `Quick test_truncated_input ]);
    ]
