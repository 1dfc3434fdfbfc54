(* Serving-tier regression suite (lib/schedule/serve.ml): a pipelined
   daemon must answer exactly like a sequential replay (bit-exact, per
   request id), contain every classifiable failure to the one request it
   hit — injected worker death within the retry budget is invisible,
   beyond it becomes that request's EVA-E504 response, a stale deadline
   becomes EVA-E505, a malformed frame becomes an EVA-E4xx response —
   and the daemon itself survives all of them. *)

module B = Eva_core.Builder
module Ir = Eva_core.Ir
module Compile = Eva_core.Compile
module Reference = Eva_core.Reference
module Executor = Eva_core.Executor
module Serve = Eva_schedule.Serve
module Fault = Eva_schedule.Fault
module Wire = Eva_ckks.Wire
module Diag = Eva_diag.Diag

(* Rotations, a join and a squaring, as in test_fault: the compiled
   program exercises rotate/relinearize/rescale on every request. *)
let compiled () =
  let b = B.create ~vec_size:16 () in
  let x = B.input b ~scale:30 "x" in
  let s = B.add (B.rotate_left x 1) (B.rotate_left x 2) in
  B.output b "out" ~scale:30 (B.mul s s);
  Compile.run (B.program b)

let request_x id = Array.init 16 (fun i -> Float.sin (float_of_int ((7 * id) + i)) /. 4.0)
let request id = { Wire.req_id = id; deadline_ms = None; req_inputs = [ ("x", request_x id) ] }

let fresh_engine c =
  Executor.prepare ~seed:1 ~ignore_security:true ~log_n:10 c
    [ ("x", Reference.Vec (Array.make 16 0.0)) ]

(* Run [ids] through a daemon and return id -> payload. *)
let serve_all ?(config = Serve.default_config) ?fault_for c engine ids =
  let results = Hashtbl.create 16 in
  let lock = Mutex.create () in
  let respond (r : Wire.response) =
    Mutex.lock lock;
    Hashtbl.replace results r.Wire.resp_id r.Wire.payload;
    Mutex.unlock lock
  in
  let t = Serve.start ~config ?fault_for ~respond c engine in
  List.iter (fun id -> Serve.submit t (request id)) ids;
  let stats = Serve.drain t in
  (results, stats)

let outputs_of results id =
  match Hashtbl.find_opt results id with
  | Some (Ok outputs) -> outputs
  | Some (Error d) -> Alcotest.failf "request %d failed: %s" id (Diag.to_string d)
  | None -> Alcotest.failf "request %d never answered" id

let check_bit_exact what expected got =
  List.iter
    (fun (name, v) ->
      let w = List.assoc name got in
      Array.iteri
        (fun i xv -> if xv <> w.(i) then Alcotest.failf "%s: %s slot %d: %h vs %h" what name i xv w.(i))
        v)
    expected

(* A pipelined daemon, an inline (pipeline = 0) daemon and a bare
   sequential [rebind ~seed:(request_seed cfg id)] replay must produce
   bit-identical outputs for every request id: per-request encryption
   randomness is a pure function of the id, never of scheduling. *)
let test_pipelined_matches_sequential () =
  let c = compiled () in
  let ids = List.init 8 Fun.id in
  let cfg = Serve.default_config in
  let pipelined, _ =
    serve_all ~config:{ cfg with Serve.pipeline = 2; queue_depth = 3 } c (fresh_engine c) ids
  in
  let inline, _ = serve_all ~config:{ cfg with Serve.pipeline = 0 } c (fresh_engine c) ids in
  let replay_engine = fresh_engine c in
  List.iter
    (fun id ->
      let e =
        Executor.rebind
          ~seed:(Serve.request_seed cfg id)
          replay_engine c
          [ ("x", Reference.Vec (request_x id)) ]
      in
      let expected, _ = Executor.decode e (Executor.run_graph e c) in
      check_bit_exact (Printf.sprintf "request %d (pipeline 2)" id) expected (outputs_of pipelined id);
      check_bit_exact (Printf.sprintf "request %d (inline)" id) expected (outputs_of inline id))
    ids

(* A daemon's cache counters are its own: the engine's cache counts since
   keygen, but [Serve.stats] reports the delta since [start]. Two daemons
   in sequence on one engine serve the same requests on a program with
   plaintext constants; the second finds every constant warm (0 misses)
   and reports the same number of lookups as the first, not the sum. *)
let test_cache_counters_per_daemon () =
  let b = B.create ~vec_size:16 () in
  let x = B.input b ~scale:30 "x" in
  let m = B.const_vector b ~scale:30 (Array.init 16 (fun i -> if i land 1 = 0 then 1.0 else 0.5)) in
  B.output b "out" ~scale:30 (B.add (B.mul x m) (B.mul (B.rotate_left x 1) m));
  let c = Compile.run (B.program b) in
  let engine = fresh_engine c in
  let ids = List.init 4 Fun.id in
  let _, first = serve_all c engine ids in
  let _, second = serve_all c engine ids in
  let lookups s = s.Serve.pt_cache_hits + s.Serve.pt_cache_misses in
  Alcotest.(check bool) "first daemon misses" true (first.Serve.pt_cache_misses > 0);
  Alcotest.(check int) "second daemon misses" 0 second.Serve.pt_cache_misses;
  Alcotest.(check int) "same lookups per daemon" (lookups first) (lookups second)

(* One scripted worker death inside one request: the daemon retries that
   request, every answer is still bit-exact, and the retry is counted.
   Other requests never see the fault. *)
let test_worker_death_is_retried () =
  let c = compiled () in
  let target_node =
    (List.find
       (fun n -> match n.Ir.op with Ir.Input _ -> false | _ -> true)
       c.Compile.program.Ir.all_nodes)
      .Ir.id
  in
  let ids = List.init 6 Fun.id in
  let fault_for id = if id = 3 then Some (Fault.plan [ (target_node, [ Fault.Die ]) ]) else None in
  let baseline, _ = serve_all c (fresh_engine c) ids in
  let faulted, stats = serve_all ~fault_for c (fresh_engine c) ids in
  List.iter
    (fun id -> check_bit_exact (Printf.sprintf "request %d" id) (outputs_of baseline id) (outputs_of faulted id))
    ids;
  Alcotest.(check int) "all served" 6 stats.Serve.requests_served;
  Alcotest.(check int) "no failures" 0 stats.Serve.requests_failed;
  Alcotest.(check bool) "the death was retried" true (stats.Serve.faults_retried >= 1)

(* Worker death past the request's retry budget: that one request is
   answered with EVA-E504; the daemon and the requests around it
   survive. *)
let test_death_beyond_budget_fails_one_request () =
  let c = compiled () in
  let die_always =
    Fault.plan
      (List.filter_map
         (fun n ->
           match n.Ir.op with
           | Ir.Input _ -> None
           | _ -> Some (n.Ir.id, [ Fault.Die; Fault.Die; Fault.Die; Fault.Die ]))
         c.Compile.program.Ir.all_nodes)
  in
  let fault_for id = if id = 1 then Some die_always else None in
  let config = { Serve.default_config with Serve.max_request_retries = 2 } in
  let results, stats = serve_all ~config ~fault_for c (fresh_engine c) [ 0; 1; 2 ] in
  ignore (outputs_of results 0);
  ignore (outputs_of results 2);
  (match Hashtbl.find results 1 with
  | Error d ->
      Alcotest.(check int) "EVA-E504" Diag.exec_workers_died d.Diag.code;
      Alcotest.(check bool) "Execute layer" true (d.Diag.layer = Diag.Execute)
  | Ok _ -> Alcotest.fail "request 1 succeeded with every attempt dying");
  Alcotest.(check int) "two served" 2 stats.Serve.requests_served;
  Alcotest.(check int) "one failed" 1 stats.Serve.requests_failed;
  Alcotest.(check int) "budget consumed" config.Serve.max_request_retries stats.Serve.faults_retried

(* A request whose deadline lapsed in the admission queue is refused as
   EVA-E505 without being evaluated. *)
let test_expired_deadline_is_refused () =
  let c = compiled () in
  let engine = fresh_engine c in
  let results = Hashtbl.create 4 in
  let respond (r : Wire.response) = Hashtbl.replace results r.Wire.resp_id r.Wire.payload in
  let config = { Serve.default_config with Serve.pipeline = 0 } in
  let t = Serve.start ~config ~respond c engine in
  Serve.submit t { Wire.req_id = 0; deadline_ms = Some 1; req_inputs = [ ("x", request_x 0) ] };
  Serve.submit t { Wire.req_id = 1; deadline_ms = None; req_inputs = [ ("x", request_x 1) ] };
  Unix.sleepf 0.05;
  let stats = Serve.drain t in
  (match Hashtbl.find results 0 with
  | Error d -> Alcotest.(check int) "EVA-E505" Diag.exec_timeout d.Diag.code
  | Ok _ -> Alcotest.fail "expired request was evaluated");
  (match Hashtbl.find results 1 with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "deadline-free request failed: %s" (Diag.to_string d));
  Alcotest.(check int) "one failed" 1 stats.Serve.requests_failed

(* A slot value whose scaled encoding is not finite (1e300 at scale
   2^30), or reaches half the modulus (1e12 against one 60-bit element),
   is that request's EVA-E605: its neighbours are answered correctly and
   the daemon drains. *)
let test_out_of_range_value_is_e605 bad () =
  let b = B.create ~vec_size:8 () in
  let q = B.input b ~scale:30 "q" in
  B.output b "y" ~scale:30 (B.add q q);
  let c = Compile.run (B.program b) in
  let engine = Executor.keygen ~seed:1 ~ignore_security:true ~log_n:10 c in
  let results = Hashtbl.create 4 in
  let respond (r : Wire.response) = Hashtbl.replace results r.Wire.resp_id r.Wire.payload in
  let t = Serve.start ~config:{ Serve.default_config with Serve.pipeline = 0 } ~respond c engine in
  List.iteri
    (fun id x ->
      Serve.submit t { Wire.req_id = id; deadline_ms = None; req_inputs = [ ("q", Array.make 8 x) ] })
    [ 1.0; bad; 1.0 ];
  let stats = Serve.drain t in
  (match Hashtbl.find_opt results 1 with
  | Some (Error d) -> Alcotest.(check int) "EVA-E605" Diag.crypto_context d.Diag.code
  | Some (Ok _) -> Alcotest.failf "q = %g was answered" bad
  | None -> Alcotest.failf "q = %g never answered" bad);
  List.iter
    (fun id ->
      let y = List.assoc "y" (outputs_of results id) in
      Array.iter (fun v -> if Float.abs (v -. 2.0) > 1e-3 then Alcotest.failf "request %d: y = %g" id v) y)
    [ 0; 2 ];
  Alcotest.(check int) "one failed" 1 stats.Serve.requests_failed

(* --- the wire face ---------------------------------------------------- *)

(* Feed framed payloads (pre-rendered bytes) to run_channels through a
   pipe; collect the raw reply frames from the other pipe. *)
let run_wire_frames ?config raw_stream =
  let c = compiled () in
  let engine = fresh_engine c in
  let req_read, req_write = Unix.pipe () in
  let resp_read, resp_write = Unix.pipe () in
  let feeder = Unix.out_channel_of_descr req_write in
  output_string feeder raw_stream;
  close_out feeder;
  let ic = Unix.in_channel_of_descr req_read in
  let oc = Unix.out_channel_of_descr resp_write in
  let stats = Serve.run_channels ?config c engine ic oc in
  close_out oc;
  close_in ic;
  let ic2 = Unix.in_channel_of_descr resp_read in
  let rec read acc =
    match Wire.read_frame ic2 with None -> List.rev acc | Some payload -> read (payload :: acc)
  in
  let frames = read [] in
  close_in ic2;
  (stats, frames)

let run_wire ?config raw_stream =
  let stats, frames = run_wire_frames ?config raw_stream in
  (stats, List.map (fun payload -> Wire.read_response payload ~pos:(ref 0)) frames)

let frame payload = Printf.sprintf "frame %d\n%s" (String.length payload) payload
let framed_request id = frame (Wire.to_string (fun buf () -> Wire.write_request buf ~id (request id).Wire.req_inputs) ())

let find_response responses id =
  match List.find_opt (fun (r : Wire.response) -> r.Wire.resp_id = id) responses with
  | Some r -> r.Wire.payload
  | None -> Alcotest.failf "no response for id %d" id

(* A malformed request payload inside a well-formed frame yields an
   EVA-E4xx error response; the stream keeps serving. *)
let test_malformed_payload_is_answered_not_fatal () =
  let stream = framed_request 0 ^ frame "these are not the droids" ^ framed_request 2 in
  let stats, responses = run_wire stream in
  Alcotest.(check int) "three responses" 3 (List.length responses);
  (match find_response responses 0 with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "request 0 failed: %s" (Diag.to_string d));
  (match find_response responses 2 with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "request 2 failed: %s" (Diag.to_string d));
  (match find_response responses (-1) with
  | Error d ->
      Alcotest.(check bool) "Wire layer" true (d.Diag.layer = Diag.Wire);
      Alcotest.(check bool) "EVA-E4xx" true (d.Diag.code >= 400 && d.Diag.code < 500)
  | Ok _ -> Alcotest.fail "garbage payload produced outputs");
  Alcotest.(check int) "two served" 2 stats.Serve.requests_served;
  Alcotest.(check int) "one failed" 1 stats.Serve.requests_failed

(* A corrupt frame header has no boundary to resynchronize on: one final
   error response, then the daemon drains what it already admitted
   instead of crashing. *)
let test_corrupt_frame_header_ends_stream () =
  let stream = framed_request 0 ^ "frame not-a-length\n" ^ framed_request 2 in
  let stats, responses = run_wire stream in
  Alcotest.(check int) "two responses" 2 (List.length responses);
  (match find_response responses 0 with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "request 0 failed: %s" (Diag.to_string d));
  (match find_response responses (-1) with
  | Error d -> Alcotest.(check bool) "Wire layer" true (d.Diag.layer = Diag.Wire)
  | Ok _ -> Alcotest.fail "corrupt header produced outputs");
  Alcotest.(check int) "one served" 1 stats.Serve.requests_served

(* Request and response survive the wire bit-exactly: slot values travel
   as hex floats. *)
let test_wire_round_trip_bit_exact () =
  let inputs = [ ("x", Array.init 16 (fun i -> Float.ldexp (Float.sin (float_of_int i)) (-3))) ] in
  let payload = Wire.to_string (fun buf () -> Wire.write_request buf ~id:7 ~deadline_ms:250 inputs) () in
  let req = Wire.read_request payload ~pos:(ref 0) in
  Alcotest.(check int) "id" 7 req.Wire.req_id;
  Alcotest.(check (option int)) "deadline" (Some 250) req.Wire.deadline_ms;
  check_bit_exact "request inputs" inputs req.Wire.req_inputs;
  let resp = { Wire.resp_id = 7; payload = Ok inputs } in
  let back = Wire.read_response (Wire.to_string Wire.write_response resp) ~pos:(ref 0) in
  (match back.Wire.payload with
  | Ok outputs -> check_bit_exact "response outputs" inputs outputs
  | Error d -> Alcotest.failf "round trip failed: %s" (Diag.to_string d));
  let err = { Wire.resp_id = 9; payload = Error (Diag.make ~layer:Diag.Execute ~code:Diag.exec_timeout "too slow") } in
  match (Wire.read_response (Wire.to_string Wire.write_response err) ~pos:(ref 0)).Wire.payload with
  | Error d ->
      Alcotest.(check int) "code" Diag.exec_timeout d.Diag.code;
      Alcotest.(check bool) "layer" true (d.Diag.layer = Diag.Execute)
  | Ok _ -> Alcotest.fail "error response round-tripped to Ok"

(* --- graceful degradation --------------------------------------------- *)

let non_input_nodes c =
  List.filter
    (fun n -> match n.Ir.op with Ir.Input _ -> false | _ -> true)
    c.Compile.program.Ir.all_nodes

(* A deadline that expires mid-graph stops execution within one node:
   the token is checked before each node, so with every node slowed to
   [delay], at most [deadline / delay + 1] nodes ever evaluate, and the
   raise is the structured EVA-E505 anchored to the node that observed
   it. *)
let test_midgraph_cancel_stops_within_one_node () =
  let c = compiled () in
  let engine = fresh_engine c in
  let e =
    Executor.rebind ~seed:2 engine c [ ("x", Reference.Vec (request_x 0)) ]
  in
  let evaluated = ref 0 in
  let interpose _n eval =
    incr evaluated;
    Unix.sleepf 0.03;
    eval ()
  in
  let token = Eva_core.Cancel.make ~deadline_at:(Unix.gettimeofday () +. 0.04) () in
  match Executor.run_graph ~interpose ~cancel:token e c with
  | _ -> Alcotest.fail "deadline never tripped mid-graph"
  | exception Diag.Error d ->
      Alcotest.(check int) "EVA-E505" Diag.exec_timeout d.Diag.code;
      Alcotest.(check bool) "anchored to a node" true (d.Diag.node_id <> None);
      let total = List.length (non_input_nodes c) in
      Alcotest.(check bool)
        (Printf.sprintf "stopped early (%d of %d nodes)" !evaluated total)
        true
        (!evaluated < total)

(* The same property through the daemon: a slowed request with a
   deadline is answered EVA-E505 (cancelled at a node checkpoint inside
   Parallel.execute_on), while its neighbors stay bit-exact. *)
let test_daemon_cancels_slowed_request_midgraph () =
  let c = compiled () in
  let engine = fresh_engine c in
  let slow_everywhere =
    Fault.plan (List.map (fun n -> (n.Ir.id, [ Fault.Delay 0.06 ])) (non_input_nodes c))
  in
  let fault_for id = if id = 0 then Some slow_everywhere else None in
  let results = Hashtbl.create 4 in
  let respond (r : Wire.response) = Hashtbl.replace results r.Wire.resp_id r.Wire.payload in
  let config = { Serve.default_config with Serve.pipeline = 0 } in
  let t = Serve.start ~config ~fault_for ~respond c engine in
  (* Request 0 is picked up first: its 150ms deadline cannot cover the
     >= 240ms of injected per-node delay, so it is cancelled mid-graph;
     1 and 2 never see the fault plan. *)
  Serve.submit t { Wire.req_id = 0; deadline_ms = Some 150; req_inputs = [ ("x", request_x 0) ] };
  Serve.submit t (request 1);
  Serve.submit t (request 2);
  let stats = Serve.drain t in
  (match Hashtbl.find results 0 with
  | Error d -> Alcotest.(check int) "EVA-E505" Diag.exec_timeout d.Diag.code
  | Ok _ -> Alcotest.fail "slowed request beat an impossible deadline");
  let baseline, _ = serve_all c (fresh_engine c) [ 1; 2 ] in
  List.iter
    (fun id ->
      check_bit_exact (Printf.sprintf "request %d" id) (outputs_of baseline id) (outputs_of results id))
    [ 1; 2 ];
  Alcotest.(check int) "two served" 2 stats.Serve.requests_served;
  Alcotest.(check int) "one cancelled" 1 stats.Serve.requests_cancelled

(* Overload shedding refuses work before it costs anything: an
   unmeetable deadline is EVA-E509 at submit (never queued, never
   encrypted), and no-deadline traffic past the high watermark is shed
   until the queue falls back to the low one. *)
let test_overload_is_shed_with_e509 () =
  let c = compiled () in
  let engine = fresh_engine c in
  let results = Hashtbl.create 8 in
  let respond (r : Wire.response) = Hashtbl.replace results r.Wire.resp_id r.Wire.payload in
  let config =
    { Serve.default_config with Serve.pipeline = 0; shed = Serve.Watermarks { high = 2; low = 1 } }
  in
  let t = Serve.start ~config ~respond c engine in
  Serve.submit t { Wire.req_id = 9; deadline_ms = Some 0; req_inputs = [ ("x", request_x 9) ] };
  (match Hashtbl.find_opt results 9 with
  | Some (Error d) ->
      Alcotest.(check int) "EVA-E509" Diag.exec_overload d.Diag.code;
      Alcotest.(check bool) "Execute layer" true (d.Diag.layer = Diag.Execute)
  | Some (Ok _) -> Alcotest.fail "0ms deadline was admitted"
  | None -> Alcotest.fail "shed request must be answered synchronously");
  (* With no worker consuming the queue, ids 0 and 1 are admitted, 2
     trips the high watermark and 3 is still inside the shed window. *)
  List.iter (fun id -> Serve.submit t (request id)) [ 0; 1; 2; 3 ];
  List.iter
    (fun id ->
      match Hashtbl.find_opt results id with
      | Some (Error d) -> Alcotest.(check int) "EVA-E509" Diag.exec_overload d.Diag.code
      | Some (Ok _) -> Alcotest.failf "request %d should have been shed" id
      | None -> Alcotest.failf "request %d not answered before drain" id)
    [ 2; 3 ];
  let stats = Serve.drain t in
  Alcotest.(check int) "two served" 2 stats.Serve.requests_served;
  Alcotest.(check int) "three shed" 3 stats.Serve.requests_shed;
  Alcotest.(check int) "shed count failed too" 3 stats.Serve.requests_failed;
  ignore (outputs_of results 0);
  ignore (outputs_of results 1)

(* Decorrelated-jitter backoff is deterministic per seed: the schedule
   that paced a failing run can be replayed exactly. *)
let test_backoff_deterministic () =
  let module Backoff = Eva_schedule.Backoff in
  let seq t = List.init 32 (fun _ -> Backoff.next_ms t) in
  let a = Backoff.make ~base_ms:1.0 ~cap_ms:50.0 ~seed:7 () in
  let b = Backoff.make ~base_ms:1.0 ~cap_ms:50.0 ~seed:7 () in
  let sa = seq a in
  Alcotest.(check (list (float 0.0))) "same seed, same schedule" sa (seq b);
  List.iter
    (fun d -> Alcotest.(check bool) "within [base, cap]" true (d >= 1.0 && d <= 50.0))
    sa;
  Backoff.reset a;
  Alcotest.(check (list (float 0.0))) "reset replays the schedule" sa (seq a);
  let other = Backoff.make ~base_ms:1.0 ~cap_ms:50.0 ~seed:8 () in
  Alcotest.(check bool) "different seed, different schedule" true (sa <> seq other)

(* drain ~timeout_ms:0 arms the shutdown token immediately: every queued
   request is answered EVA-E505 at pickup without being evaluated, so a
   drain under a deadline completes within one node of it. *)
let test_drain_timeout_cancels_queued () =
  let c = compiled () in
  let engine = fresh_engine c in
  let results = Hashtbl.create 8 in
  let respond (r : Wire.response) = Hashtbl.replace results r.Wire.resp_id r.Wire.payload in
  let config = { Serve.default_config with Serve.pipeline = 0 } in
  let t = Serve.start ~config ~respond c engine in
  let ids = [ 0; 1; 2; 3 ] in
  List.iter (fun id -> Serve.submit t (request id)) ids;
  let stats = Serve.drain ~timeout_ms:0 t in
  Alcotest.(check int) "none served" 0 stats.Serve.requests_served;
  Alcotest.(check int) "all cancelled" (List.length ids) stats.Serve.requests_cancelled;
  List.iter
    (fun id ->
      match Hashtbl.find results id with
      | Error d -> Alcotest.(check int) "EVA-E505" Diag.exec_timeout d.Diag.code
      | Ok _ -> Alcotest.failf "request %d executed past the drain deadline" id)
    ids

(* The stats probe answers mid-stream without perturbing the request
   flow: value round trip, then through the daemon's wire face. *)
let test_stats_probe () =
  let s =
    {
      Wire.st_served = 5;
      st_failed = 2;
      st_shed = 1;
      st_retried = 3;
      st_queue = 4;
      st_p50_ms = 1.25;
      st_p99_ms = 9.5;
      st_executions = 3;
      st_batch_histogram = [| 1; 0; 0; 2 |];
      st_slots_occupied = 144;
      st_slots_available = 512;
      st_pt_hits = 7;
      st_pt_misses = 2;
    }
  in
  let back = Wire.read_stats (Wire.to_string Wire.write_stats s) ~pos:(ref 0) in
  Alcotest.(check bool) "stats round trip bit-exact" true (back = s);
  let stream = framed_request 0 ^ frame Wire.stats_probe ^ framed_request 2 in
  let config = { Serve.default_config with Serve.pipeline = 0 } in
  let stats, frames = run_wire_frames ~config stream in
  let is_stats p = String.length p >= 6 && String.sub p 0 6 = "stats " in
  (match List.filter is_stats frames with
  | [ p ] ->
      let live = Wire.read_stats p ~pos:(ref 0) in
      (* pipeline 0: when the probe is handled, request 0 is queued and
         nothing has been served yet. *)
      Alcotest.(check int) "queue depth at probe" 1 live.Wire.st_queue;
      Alcotest.(check int) "served at probe" 0 live.Wire.st_served
  | l -> Alcotest.failf "expected exactly one stats frame, got %d" (List.length l));
  let responses =
    List.filter_map
      (fun p -> if is_stats p then None else Some (Wire.read_response p ~pos:(ref 0)))
      frames
  in
  (match find_response responses 0 with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "request 0 failed: %s" (Diag.to_string d));
  (match find_response responses 2 with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "request 2 failed: %s" (Diag.to_string d));
  Alcotest.(check int) "two served" 2 stats.Serve.requests_served

(* With SERVE_FAULTS set (CI's fault-active test pass), every request
   runs under a seeded random fault plan and must still answer exactly
   like the clean baseline — faults within the budget are invisible. *)
let test_faults_under_env () =
  match Sys.getenv_opt "SERVE_FAULTS" with
  | None -> ()
  | Some _ ->
      let c = compiled () in
      let ids = List.init 12 Fun.id in
      let fault_for id =
        Some (Fault.random ~seed:(100 + id) ~death_p:0.08 ~fail_p:0.15 ~corrupt_p:0.0 ())
      in
      let config = { Serve.default_config with Serve.pipeline = 2; graph_workers = 2 } in
      let baseline, _ = serve_all ~config c (fresh_engine c) ids in
      let faulted, _ = serve_all ~config ~fault_for c (fresh_engine c) ids in
      List.iter
        (fun id ->
          check_bit_exact (Printf.sprintf "request %d" id) (outputs_of baseline id)
            (outputs_of faulted id))
        ids

(* --- chaos soak ------------------------------------------------------- *)

(* One daemon under a seeded storm of adversity: injected worker deaths
   and transient failures, per-node delays, impossible and merely tight
   deadlines, sustained overload with shedding on, then a wave of
   hostile wire sessions (malformed payloads, corrupt and truncated
   frames, clients that vanish before reading, live stats probes). The
   daemon never crashes; every request is answered exactly once, with
   outputs or the one EVA-Exxx error its adversity class allows;
   successes are within tolerance of the plaintext reference and the
   sampled ones bit-exact against a sequential replay; shed work fails
   fast, so p99 stays bounded. *)
let test_chaos_soak () =
  (* Writes onto vanished clients must surface as EPIPE/Sys_error (which
     the daemon contains), not as a fatal SIGPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let n_requests = 300 and n_sessions = 30 in
  let c = compiled () in
  let zero = [ ("x", Reference.Vec (Array.make 16 0.0)) ] in
  let engine = Executor.prepare ~seed:1 ~ignore_security:true ~log_n:8 c zero in
  let chaos_x id = Array.init 16 (fun i -> Float.sin (float_of_int ((3 * id) + i)) /. 4.0) in
  let within_tolerance id outputs =
    let want =
      List.assoc "out" (Reference.execute c.Compile.program [ ("x", Reference.Vec (chaos_x id)) ])
    in
    Array.for_all2
      (fun g w -> Float.abs (g -. w) < 1e-2 *. (1.0 +. Float.abs w))
      (List.assoc "out" outputs) want
  in
  let non_inputs = List.map (fun n -> n.Ir.id) (non_input_nodes c) in
  let st = Random.State.make [| 0xC4A05 |] in
  let pick_nodes k =
    List.filteri (fun i _ -> i < k) (List.sort (fun _ _ -> Random.State.int st 3 - 1) non_inputs)
  in
  (* Each request id draws one adversity class. The submission loop is
     itself a sustained overload burst against a bounded queue. *)
  let kind_of = Array.make n_requests `Clean and deadline_of = Array.make n_requests (Some 5000) in
  let plans = Hashtbl.create 64 in
  let plan id actions = Hashtbl.replace plans id (Fault.plan actions) in
  for id = 0 to n_requests - 1 do
    let r = Random.State.float st 1.0 in
    if r < 0.06 then begin
      kind_of.(id) <- `Death;
      plan id (List.map (fun n -> (n, [ Fault.Die ])) (pick_nodes 1))
    end
    else if r < 0.12 then begin
      kind_of.(id) <- `Flaky;
      plan id (List.map (fun n -> (n, [ Fault.Fail ])) (pick_nodes 2))
    end
    else if r < 0.18 then begin
      kind_of.(id) <- `Slowed;
      plan id (List.map (fun n -> (n, [ Fault.Delay (0.0005 +. Random.State.float st 0.002) ])) (pick_nodes 2))
    end
    else if r < 0.23 then begin
      (* Doomed: per-node delays no deadline can fit — cancelled
         mid-graph, or shed once service times are learned. *)
      kind_of.(id) <- `Doomed;
      deadline_of.(id) <- Some 25;
      plan id (List.map (fun n -> (n, [ Fault.Delay 0.02 ])) non_inputs)
    end
    else if r < 0.28 then begin
      (* Deadline storm: 0ms can never be met, so admission refuses it. *)
      kind_of.(id) <- `Storm;
      deadline_of.(id) <- Some 0
    end
  done;
  let config =
    {
      Serve.default_config with
      Serve.pipeline = max 1 (min 2 (Domain.recommended_domain_count () - 1));
      queue_depth = 8;
      retry_budget = max 4 (n_requests / 50);
      shed = Serve.Watermarks { high = 6; low = 3 };
    }
  in
  let results = Hashtbl.create n_requests and lock = Mutex.create () and answered = ref 0 in
  let respond (r : Wire.response) =
    Mutex.lock lock;
    incr answered;
    Hashtbl.replace results r.Wire.resp_id r.Wire.payload;
    Mutex.unlock lock
  in
  let daemon = Serve.start ~config ~fault_for:(Hashtbl.find_opt plans) ~respond c engine in
  for id = 0 to n_requests - 1 do
    Serve.submit daemon
      { Wire.req_id = id; deadline_ms = deadline_of.(id); req_inputs = [ ("x", chaos_x id) ] }
  done;
  ignore (Serve.drain daemon);
  Alcotest.(check int) "exactly one answer per request" n_requests !answered;
  (* The only legal degradations are the designed ones: clean, flaky and
     slowed requests succeed (retries absorb Fail; the deadline is
     generous); deaths succeed while the daemon-wide retry budget lasts,
     then fail fast as E504; doomed requests are cancelled (E505) or
     shed (E509); storms are always shed. *)
  let ok = ref 0 and shed = ref 0 in
  Array.iteri
    (fun id kind ->
      match (kind, Hashtbl.find_opt results id) with
      | _, None -> Alcotest.failf "request %d never answered" id
      | _, Some (Ok outputs) when not (within_tolerance id outputs) ->
          Alcotest.failf "request %d answered outside tolerance" id
      | (`Clean | `Flaky | `Slowed | `Death), Some (Ok _) -> incr ok
      | `Death, Some (Error { Diag.code = 504; layer = Diag.Execute; _ }) -> ()
      | `Doomed, Some (Error { Diag.code = 505; layer = Diag.Execute; _ }) -> ()
      | (`Doomed | `Storm), Some (Error { Diag.code = 509; layer = Diag.Execute; _ }) -> incr shed
      | _, Some (Ok _) -> Alcotest.failf "request %d beat an impossible deadline" id
      | _, Some (Error d) -> Alcotest.failf "request %d failed oddly: %s" id (Diag.to_string d))
    kind_of;
  Alcotest.(check bool) "some request shed with E509" true (!shed > 0);
  Alcotest.(check bool) "some request answered Ok" true (!ok > 0);
  (* Bit-exact spot check of every 37th id against a sequential replay. *)
  let replay_engine = Executor.prepare ~seed:1 ~ignore_security:true ~log_n:8 c zero in
  for id = 0 to n_requests - 1 do
    match Hashtbl.find results id with
    | Ok outputs when id mod 37 = 0 ->
        let e =
          Executor.rebind ~seed:(Serve.request_seed config id) replay_engine c
            [ ("x", Reference.Vec (chaos_x id)) ]
        in
        let expected, _ = Executor.decode e (Executor.run_graph e c) in
        check_bit_exact (Printf.sprintf "request %d" id) expected outputs
    | _ -> ()
  done;
  let lat = Serve.latencies_ms daemon in
  Array.sort compare lat;
  let n = Array.length lat in
  let p99 = if n = 0 then 0.0 else lat.(min (n - 1) (int_of_float (float_of_int n *. 0.99))) in
  Alcotest.(check bool) (Printf.sprintf "p99 %.1f ms < 750 ms" p99) true (p99 < 750.0);
  (* Hostile wire sessions against the same warm engine: valid requests,
     malformed payloads and stats probes, possibly ending in a corrupt
     header or a client that vanishes mid-frame. *)
  let survived = ref 0 in
  for session = 0 to n_sessions - 1 do
    let base = 1_000_000 + (session * 100) in
    let parts = Buffer.create 1024 and expect_ok = ref [] and terminal = ref false in
    for j = 0 to 1 + Random.State.int st 4 do
      if not !terminal then
        let r = Random.State.float st 1.0 in
        if r < 0.55 then begin
          let id = base + j in
          expect_ok := id :: !expect_ok;
          Buffer.add_string parts
            (frame (Wire.to_string (fun buf () -> Wire.write_request buf ~id [ ("x", chaos_x id) ]) ()))
        end
        else if r < 0.70 then Buffer.add_string parts (frame "these are not the droids")
        else if r < 0.80 then Buffer.add_string parts (frame Wire.stats_probe)
        else begin
          terminal := true;
          Buffer.add_string parts (if r < 0.90 then "frame not-a-length\n" else "frame 4096\ntruncated")
        end
    done;
    let vanish_reader = session mod 7 = 3 in
    let req_read, req_write = Unix.pipe () and resp_read, resp_write = Unix.pipe () in
    let feeder = Unix.out_channel_of_descr req_write in
    output_string feeder (Buffer.contents parts);
    close_out feeder;
    if vanish_reader then Unix.close resp_read;
    let ic = Unix.in_channel_of_descr req_read and oc = Unix.out_channel_of_descr resp_write in
    ignore (Serve.run_channels ~config:{ config with Serve.pipeline = 0 } c engine ic oc);
    incr survived;
    (try close_out oc with _ -> ());
    close_in ic;
    if not vanish_reader then begin
      let ic2 = Unix.in_channel_of_descr resp_read in
      let rec read acc = match Wire.read_frame ic2 with None -> List.rev acc | Some x -> read (x :: acc) in
      let frames = read [] in
      close_in ic2;
      let is_stats x = String.length x >= 6 && String.sub x 0 6 = "stats " in
      List.iter (fun x -> if is_stats x then ignore (Wire.read_stats x ~pos:(ref 0))) frames;
      let responses =
        List.filter_map
          (fun x -> if is_stats x then None else Some (Wire.read_response x ~pos:(ref 0)))
          frames
      in
      List.iter
        (fun id ->
          match find_response responses id with
          | Ok outputs when within_tolerance id outputs -> ()
          | Ok _ -> Alcotest.failf "wire request %d outside tolerance" id
          | Error d -> Alcotest.failf "wire request %d failed: %s" id (Diag.to_string d))
        !expect_ok
    end
  done;
  Alcotest.(check int) "every hostile session survived" n_sessions !survived

(* Keygen cuts each Galois key to the deepest level its program rotates
   at. A program that rotates by 1 only after cubing (and so after a
   rescale) gets that key one element shorter than a program that
   rotates by 1 at the top needs: missing_rotations reports the step
   with the depth it needs, and a daemon refuses to start on it instead
   of failing its first request with EVA-E607. *)
let test_start_checks_key_depth () =
  let program ~rotate_first =
    let b = B.create ~vec_size:16 () in
    let x = B.input b ~scale:30 "x" in
    let cube x' = B.mul (B.mul x' x) x in
    let y = if rotate_first then cube (B.rotate_left x 1) else B.rotate_left (cube x) 1 in
    B.output b "out" ~scale:30 y;
    Compile.run (B.program b)
  in
  let shallow = program ~rotate_first:false and deep = program ~rotate_first:true in
  let top = List.length deep.Compile.params.Eva_core.Params.context_data_bits in
  Alcotest.(check (list (pair int int))) "deep program rotates at the top" [ (1, top) ] (Compile.slot_rotation_depths deep);
  Alcotest.(check (list (pair int int))) "shallow program rotates below it" [ (1, top - 1) ]
    (Compile.slot_rotation_depths shallow);
  let engine = fresh_engine shallow in
  Alcotest.(check (list (pair int int))) "own program covered" [] (Executor.missing_rotations engine shallow);
  Alcotest.(check (list (pair int int))) "step 1 too shallow" [ (1, top) ] (Executor.missing_rotations engine deep);
  Alcotest.(check (list (pair int int))) "deeper key serves shallower use" []
    (Executor.missing_rotations (fresh_engine deep) shallow);
  match Serve.start ~respond:(fun _ -> ()) deep engine with
  | _ -> Alcotest.fail "started with a key shallower than the program uses it"
  | exception Invalid_argument msg ->
      let want = Printf.sprintf "1 at %d" top in
      let n = String.length want in
      let rec has i = i + n <= String.length msg && (String.sub msg i n = want || has (i + 1)) in
      if not (has 0) then Alcotest.failf "message does not name step and depth (%S): %s" want msg

let () =
  Alcotest.run "serve"
    [
      ( "daemon",
        [
          Alcotest.test_case "pipelined == sequential, bit-exact" `Quick test_pipelined_matches_sequential;
          Alcotest.test_case "cache counters per daemon" `Quick test_cache_counters_per_daemon;
          Alcotest.test_case "worker death retried within budget" `Quick test_worker_death_is_retried;
          Alcotest.test_case "death beyond budget fails one request" `Quick
            test_death_beyond_budget_fails_one_request;
          Alcotest.test_case "expired deadline refused as E505" `Quick test_expired_deadline_is_refused;
          Alcotest.test_case "non-finite encoding refused as E605" `Quick
            (test_out_of_range_value_is_e605 1e300);
          Alcotest.test_case "wrapping encoding refused as E605" `Quick
            (test_out_of_range_value_is_e605 1e12);
          Alcotest.test_case "start checks Galois key depth" `Quick test_start_checks_key_depth;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "mid-graph cancel stops within one node" `Quick
            test_midgraph_cancel_stops_within_one_node;
          Alcotest.test_case "daemon cancels slowed request mid-graph" `Quick
            test_daemon_cancels_slowed_request_midgraph;
          Alcotest.test_case "overload shed with E509 before queueing" `Quick
            test_overload_is_shed_with_e509;
          Alcotest.test_case "backoff schedule deterministic per seed" `Quick test_backoff_deterministic;
          Alcotest.test_case "drain timeout cancels queued as E505" `Quick
            test_drain_timeout_cancels_queued;
          Alcotest.test_case "faults under SERVE_FAULTS stay bit-exact" `Quick test_faults_under_env;
        ] );
      ( "wire",
        [
          Alcotest.test_case "malformed payload answered, not fatal" `Quick
            test_malformed_payload_is_answered_not_fatal;
          Alcotest.test_case "corrupt frame header ends stream" `Quick test_corrupt_frame_header_ends_stream;
          Alcotest.test_case "request/response round trip bit-exact" `Quick test_wire_round_trip_bit_exact;
          Alcotest.test_case "stats probe answered mid-stream" `Quick test_stats_probe;
        ] );
      ("chaos", [ Alcotest.test_case "soak: faults, storms and hostile clients" `Quick test_chaos_soak ]);
    ]
