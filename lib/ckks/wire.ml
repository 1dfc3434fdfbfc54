module Diag = Eva_diag.Diag

(* ------------------------------------------------------------------ *)
(* A tiny whitespace-separated token reader                            *)
(* ------------------------------------------------------------------ *)

(* Errors carry a line:column computed from the character offset only
   when a read actually fails — the happy path never pays for it. *)
let line_col s at =
  let stop = min at (String.length s) in
  let line = ref 1 and col = ref 1 in
  for i = 0 to stop - 1 do
    if s.[i] = '\n' then begin
      incr line;
      col := 1
    end
    else incr col
  done;
  (!line, !col)

let wire_error s ~at ~code fmt =
  Diag.error ~pos:(line_col s at) ~layer:Diag.Wire ~code fmt

let is_ws c = c = ' ' || c = '\n' || c = '\t' || c = '\r'

(* Returns the token and the offset it starts at, so a caller rejecting
   the token can point at it rather than at wherever [pos] ended up. *)
let read_token_at s ~pos =
  let n = String.length s in
  let i = ref !pos in
  while !i < n && is_ws s.[!i] do
    incr i
  done;
  if !i >= n then wire_error s ~at:n ~code:Diag.wire_truncated "unexpected end of input";
  let start = !i in
  while !i < n && not (is_ws s.[!i]) do
    incr i
  done;
  pos := !i;
  (String.sub s start (!i - start), start)

(* Every count, length and range field read from untrusted input goes
   through this bounded reader BEFORE it is used as an allocation size
   or an index, so a spliced "999999999999" length field is a structured
   EVA-E403, never a multi-gigabyte [Array.init] or an [Invalid_argument]. *)
let read_int_in s ~pos ~what ~lo ~hi =
  let t, at = read_token_at s ~pos in
  match int_of_string_opt t with
  | None -> wire_error s ~at ~code:Diag.wire_token "expected integer for %s, got %S" what t
  | Some v ->
      if v < lo || v > hi then
        wire_error s ~at ~code:Diag.wire_length "%s = %d outside [%d, %d]" what v lo hi;
      v

let read_float s ~pos =
  let t, at = read_token_at s ~pos in
  match float_of_string_opt t with
  | Some v -> v
  | None -> wire_error s ~at ~code:Diag.wire_token "expected float, got %S" t

let expect s ~pos tag =
  let t, at = read_token_at s ~pos in
  if t <> tag then wire_error s ~at ~code:Diag.wire_token "expected %S, got %S" tag t

let to_string write v =
  let buf = Buffer.create 4096 in
  write buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Serving protocol: framed requests and responses                     *)
(* ------------------------------------------------------------------ *)

(* A serve request binds named input vectors for one evaluation of the
   daemon's compiled program. Values travel as %h hex floats, so the
   round trip is bit-exact; every count and length is range-checked
   before allocation. *)

type request = { req_id : int; deadline_ms : int option; req_inputs : (string * float array) list }

type response = {
  resp_id : int;
  payload : ((string * float array) list, Eva_diag.Diag.t) result;
}

let write_floats buf a =
  Printf.bprintf buf "%d" (Array.length a);
  Array.iter (fun v -> Printf.bprintf buf " %h" v) a;
  Buffer.add_char buf '\n'

let max_request_inputs = 1024
let max_vector_len = 1 lsl 20
let max_deadline_ms = 86_400_000

let read_named_vectors s ~pos ~what ~max_names =
  let n = read_int_in s ~pos ~what ~lo:0 ~hi:max_names in
  List.init n (fun _ ->
      let name, at_name = read_token_at s ~pos in
      if String.length name > 256 then
        wire_error s ~at:at_name ~code:Diag.wire_length "name longer than 256 bytes";
      let len = read_int_in s ~pos ~what:"vector length" ~lo:1 ~hi:max_vector_len in
      let v =
        Array.init len (fun _ ->
            let t, at = read_token_at s ~pos in
            match float_of_string_opt t with
            | Some f when Float.is_finite f -> f
            | Some _ -> wire_error s ~at ~code:Diag.wire_length "non-finite slot value %S" t
            | None -> wire_error s ~at ~code:Diag.wire_token "expected slot value, got %S" t)
      in
      (name, v))

let write_request buf ~id ?deadline_ms inputs =
  Printf.bprintf buf "request %d %d %d\n" id (Option.value deadline_ms ~default:(-1))
    (List.length inputs);
  List.iter
    (fun (name, v) ->
      Printf.bprintf buf "%s " name;
      write_floats buf v)
    inputs

let read_request s ~pos =
  expect s ~pos "request";
  let id = read_int_in s ~pos ~what:"request id" ~lo:0 ~hi:max_int in
  let deadline = read_int_in s ~pos ~what:"deadline (ms)" ~lo:(-1) ~hi:max_deadline_ms in
  let req_inputs = read_named_vectors s ~pos ~what:"input count" ~max_names:max_request_inputs in
  { req_id = id; deadline_ms = (if deadline < 0 then None else Some deadline); req_inputs }

(* Error payloads carry the stable code plus the rendered message as a
   length-prefixed byte run (messages contain spaces), so the client can
   reconstruct a [Diag.t] with the right layer and code. Node/position
   anchors do not cross the wire — the client has no IR to anchor to. *)
let write_response buf r =
  match r.payload with
  | Ok outputs ->
      Printf.bprintf buf "response %d ok %d\n" r.resp_id (List.length outputs);
      List.iter
        (fun (name, v) ->
          Printf.bprintf buf "%s " name;
          write_floats buf v)
        outputs
  | Error d ->
      Printf.bprintf buf "response %d error %d %d\n" r.resp_id d.Diag.code
        (String.length d.Diag.message);
      Buffer.add_string buf d.Diag.message;
      Buffer.add_char buf '\n'

let read_response s ~pos =
  expect s ~pos "response";
  let id = read_int_in s ~pos ~what:"response id" ~lo:(-1) ~hi:max_int in
  let status, at_status = read_token_at s ~pos in
  match status with
  | "ok" ->
      let outputs = read_named_vectors s ~pos ~what:"output count" ~max_names:max_request_inputs in
      { resp_id = id; payload = Ok outputs }
  | "error" ->
      let code = read_int_in s ~pos ~what:"error code" ~lo:100 ~hi:699 in
      let len = read_int_in s ~pos ~what:"message length" ~lo:0 ~hi:65536 in
      (* The message starts one separator byte after the length token. *)
      if !pos + 1 + len > String.length s then
        wire_error s ~at:!pos ~code:Diag.wire_truncated "input ended inside an error message";
      let msg = String.sub s (!pos + 1) len in
      pos := !pos + 1 + len;
      { resp_id = id; payload = Error (Diag.make ~layer:(Diag.layer_of_code code) ~code msg) }
  | t -> wire_error s ~at:at_status ~code:Diag.wire_token "expected \"ok\" or \"error\", got %S" t

(* ------------------------------------------------------------------ *)
(* Live daemon stats: the health probe of the serving protocol         *)
(* ------------------------------------------------------------------ *)

(* A frame whose payload is exactly the probe token asks the daemon for
   its counters without shutting anything down; the reply is a [stats]
   frame. Latency quantiles travel as hex floats like every other float
   on this wire. *)

type daemon_stats = {
  st_served : int;
  st_failed : int;
  st_shed : int;
  st_retried : int;
  st_queue : int;
  st_p50_ms : float;
  st_p99_ms : float;
  st_executions : int;
  st_batch_histogram : int array;
  st_slots_occupied : int;
  st_slots_available : int;
  st_pt_hits : int;
  st_pt_misses : int;
}

let stats_probe = "stats?"

(* The widest batch any sane daemon reports; bounds the histogram a
   hostile peer can make us allocate. *)
let max_batch_histogram = 4096

let write_stats buf s =
  Printf.bprintf buf "stats %d %d %d %d %d %h %h %d %d %d %d %d %d" s.st_served s.st_failed
    s.st_shed s.st_retried s.st_queue s.st_p50_ms s.st_p99_ms s.st_executions s.st_slots_occupied
    s.st_slots_available s.st_pt_hits s.st_pt_misses
    (Array.length s.st_batch_histogram);
  Array.iter (fun n -> Printf.bprintf buf " %d" n) s.st_batch_histogram;
  Buffer.add_char buf '\n'

let read_stats s ~pos =
  expect s ~pos "stats";
  let count what = read_int_in s ~pos ~what ~lo:0 ~hi:max_int in
  let st_served = count "served count" in
  let st_failed = count "failed count" in
  let st_shed = count "shed count" in
  let st_retried = count "retry count" in
  let st_queue = count "queue depth" in
  let quantile what =
    let at = !pos in
    let v = read_float s ~pos in
    if not (Float.is_finite v && v >= 0.0) then
      wire_error s ~at ~code:Diag.wire_length "%s %h is not finite and non-negative" what v;
    v
  in
  let st_p50_ms = quantile "p50 latency" in
  let st_p99_ms = quantile "p99 latency" in
  let st_executions = count "execution count" in
  let st_slots_occupied = count "occupied slots" in
  let st_slots_available = count "available slots" in
  let st_pt_hits = count "plaintext-cache hits" in
  let st_pt_misses = count "plaintext-cache misses" in
  let buckets = read_int_in s ~pos ~what:"histogram length" ~lo:0 ~hi:max_batch_histogram in
  (* An explicit loop: Array.init's evaluation order is unspecified and
     every bucket read advances [pos]. *)
  let st_batch_histogram = Array.make buckets 0 in
  for i = 0 to buckets - 1 do
    st_batch_histogram.(i) <- count "histogram bucket"
  done;
  {
    st_served;
    st_failed;
    st_shed;
    st_retried;
    st_queue;
    st_p50_ms;
    st_p99_ms;
    st_executions;
    st_batch_histogram;
    st_slots_occupied;
    st_slots_available;
    st_pt_hits;
    st_pt_misses;
  }

(* ------------------------------------------------------------------ *)
(* Stream framing                                                      *)
(* ------------------------------------------------------------------ *)

(* Frames delimit wire payloads on a byte stream: one [frame N] header
   line, then exactly N payload bytes. The header is bounded before the
   body is allocated, so a corrupt length cannot balloon memory; a
   stream ending cleanly between frames reads as [None]. *)

let default_max_frame = 1 lsl 26

let write_frame oc payload =
  Printf.fprintf oc "frame %d\n" (String.length payload);
  output_string oc payload;
  flush oc

let read_frame ?(max_frame = default_max_frame) ic =
  match In_channel.input_line ic with
  | None -> None
  | Some header ->
      let fail code fmt = wire_error header ~at:0 ~code fmt in
      let n =
        match String.split_on_char ' ' (String.trim header) with
        | [ "frame"; n ] -> (
            match int_of_string_opt n with
            | Some n when n >= 0 && n <= max_frame -> n
            | Some n -> fail Diag.wire_length "frame length %d outside [0, %d]" n max_frame
            | None -> fail Diag.wire_token "expected frame length, got %S" n)
        | _ -> fail Diag.wire_token "expected \"frame N\" header, got %S" header
      in
      let body = really_input_string ic n in
      Some body

let read_frame ?max_frame ic =
  try read_frame ?max_frame ic
  with End_of_file ->
    Diag.error ~layer:Diag.Wire ~code:Diag.wire_truncated "stream ended inside a frame body"
