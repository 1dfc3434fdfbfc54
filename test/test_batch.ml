(* Cross-request slot batching (Passes.batch / Compile.batch /
   Executor.rebind_batched / Serve max_batch): the correctness story is
   layered —

   1. the lane-local rewrite is EXACT: the batched program evaluated
      under the id-scheme reference semantics is bit-identical, lane by
      lane, to independent single runs (QCheck, widths 1/2/7/8, two
      multiplicative depths);
   2. the batched daemon is a pure function of (seed, members): an
      inline daemon's batched answers are bit-identical to a direct
      [rebind_batched] replay, so batching is reproducible end to end;
   3. encrypted batched answers agree with each member's own reference
      run to CKKS tolerance, for full, partial, short-vector and
      length-1 members — and a zero member next to a loud neighbour
      stays zero (no cross-request leak onto the wire);
   4. degradation stays per-request: a worker death mid-batch dissolves
      the batch into singles (counted), the faulted member retries on
      its own budget, and nobody else's answer changes. *)

module B = Eva_core.Builder
module Ir = Eva_core.Ir
module Passes = Eva_core.Passes
module Validate = Eva_core.Validate
module Compile = Eva_core.Compile
module Reference = Eva_core.Reference
module Executor = Eva_core.Executor
module Serve = Eva_schedule.Serve
module Fault = Eva_schedule.Fault
module Wire = Eva_ckks.Wire
module Diag = Eva_diag.Diag

let vs = 16

(* Depth 1: rotations, a join, one square. *)
let source_shallow () =
  let b = B.create ~vec_size:vs () in
  let x = B.input b ~scale:30 "x" in
  let s = B.add (B.rotate_left x 1) (B.rotate_left x 2) in
  B.output b "out" ~scale:30 (B.mul s s);
  B.program b

(* Depth 2: the square feeds another cipher multiply (second level). *)
let source_deep () =
  let b = B.create ~vec_size:vs () in
  let x = B.input b ~scale:30 "x" in
  let s = B.add (B.rotate_left x 1) (B.rotate_right x 3) in
  let sq = B.mul s s in
  B.output b "out" ~scale:30 (B.mul sq x);
  B.program b

let compiled () = Compile.run (source_shallow ())

let request_x id = Array.init vs (fun i -> Float.sin (float_of_int ((7 * id) + i)) /. 4.0)
let request id = { Wire.req_id = id; deadline_ms = None; req_inputs = [ ("x", request_x id) ] }

(* Engines for batched serving carry the extra Galois keys every batched
   variant needs; the base keyset draws are unchanged (pinned below by
   comparing against an engine prepared without extras). *)
let engine ?(max_lanes = 1) c =
  let extra_rotations = if max_lanes > 1 then Compile.batch_rotations c ~max_lanes else [] in
  Executor.prepare ~seed:1 ~ignore_security:true ~log_n:10 ~extra_rotations c
    [ ("x", Reference.Vec (Array.make vs 0.0)) ]

let serve_all ~config ?fault_for c engine requests =
  let results = Hashtbl.create 16 in
  let lock = Mutex.create () in
  let respond (r : Wire.response) =
    Mutex.lock lock;
    Hashtbl.replace results r.Wire.resp_id r.Wire.payload;
    Mutex.unlock lock
  in
  let t = Serve.start ~config ?fault_for ~respond c engine in
  List.iter (Serve.submit t) requests;
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
      if Array.length v <> Array.length w then
        Alcotest.failf "%s: %s length %d vs %d" what name (Array.length v) (Array.length w);
      Array.iteri
        (fun i xv ->
          if xv <> w.(i) then Alcotest.failf "%s: %s slot %d: %h vs %h" what name i xv w.(i))
        v)
    expected

let next_pow2 n =
  let rec go l = if l >= n then l else go (2 * l) in
  go 1

(* -------------------------------------------------------------------- *)
(* 1. The rewrite is exact (reference semantics, bit-identical)          *)
(* -------------------------------------------------------------------- *)

let prop_batched_reference_bit_identical =
  QCheck2.Test.make ~name:"batched reference = lanes of single references (B in 1/2/7/8, 2 depths)"
    ~count:15
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      List.iter
        (fun p ->
          List.iter
            (fun live ->
              let lanes = next_pow2 live in
              let members =
                Array.init lanes (fun b ->
                    if b < live then Array.init vs (fun _ -> Random.State.float st 2.0 -. 1.0)
                    else Array.make vs 0.0)
              in
              let pb = Passes.batch ~lanes p in
              Validate.check_batched ~lanes pb;
              let batched =
                Reference.execute pb [ ("x", Reference.Vec (Executor.interleave members)) ]
              in
              for b = 0 to live - 1 do
                let single = Reference.execute p [ ("x", Reference.Vec members.(b)) ] in
                List.iter
                  (fun (name, v) ->
                    let lane = Executor.extract_lane ~lanes ~lane:b (List.assoc name batched) in
                    Array.iteri
                      (fun i xv ->
                        if xv <> lane.(i) then
                          QCheck2.Test.fail_reportf
                            "lanes %d, live %d, lane %d, %s slot %d: %h vs %h" lanes live b name i
                            xv lane.(i))
                      v)
                  single
              done)
            [ 1; 2; 7; 8 ])
        [ source_shallow (); source_deep () ];
      true)

(* Widths, steps and constants that cannot be a lane-local batch are
   refused as EVA-E207 — and Passes.batch's own output always passes. *)
let test_check_batched_negative () =
  let p = source_shallow () in
  let expect_e207 f =
    match f () with
    | () -> Alcotest.fail "accepted a non-lane-local program"
    | exception Diag.Error d -> Alcotest.(check int) "EVA-E207" Diag.validate_batch d.Diag.code
  in
  (* Rotation step 1 is not a multiple of 4: the unbatched program is
     not itself a 4-lane batch. *)
  expect_e207 (fun () -> Validate.check_batched ~lanes:4 p);
  expect_e207 (fun () -> Validate.check_batched ~lanes:3 (Passes.batch ~lanes:4 p));
  Validate.check_batched ~lanes:4 (Passes.batch ~lanes:4 p);
  match Passes.batch ~lanes:3 p with
  | _ -> Alcotest.fail "Passes.batch accepted lanes = 3"
  | exception Diag.Error d ->
      Alcotest.(check bool) "compile-layer" true (d.Diag.layer = Diag.Compile)

(* -------------------------------------------------------------------- *)
(* 2. The batched daemon is a deterministic replay                       *)
(* -------------------------------------------------------------------- *)

(* An inline daemon at max_batch 8 forms one FIFO batch of all eight
   requests; its answers must be bit-identical to driving
   [rebind_batched] by hand with the same seeds on an identically
   prepared engine. *)
let direct_batched_answers cfg c ids =
  let lanes = next_pow2 (List.length ids) in
  let cb = Compile.batch c ~lanes in
  let e =
    Executor.rebind_batched
      ~seeds:(Array.of_list (List.map (Serve.request_seed cfg) ids))
      (engine ~max_lanes:8 c) cb
      (Array.of_list (List.map (fun id -> [ ("x", Reference.Vec (request_x id)) ]) ids))
  in
  let outputs, _ = Executor.decode e (Executor.run_graph e cb) in
  List.mapi
    (fun b id ->
      (id, List.map (fun (n, v) -> (n, Executor.extract_lane ~lanes ~lane:b v)) outputs))
    ids

let test_inline_batch_matches_direct_replay () =
  let c = compiled () in
  let ids = List.init 8 Fun.id in
  let cfg = { Serve.default_config with Serve.pipeline = 0; queue_depth = 8; max_batch = 8 } in
  let results, stats = serve_all ~config:cfg c (engine ~max_lanes:8 c) (List.map request ids) in
  List.iter
    (fun (id, expected) ->
      check_bit_exact (Printf.sprintf "request %d" id) expected (outputs_of results id))
    (direct_batched_answers cfg c ids);
  Alcotest.(check int) "eight served" 8 stats.Serve.requests_served;
  Alcotest.(check int) "one execution" 1 stats.Serve.executions;
  Alcotest.(check int) "one 8-wide batch" 1 stats.Serve.batch_histogram.(7);
  Alcotest.(check int) "no dissolution" 0 stats.Serve.batches_dissolved;
  Alcotest.(check (float 1e-9)) "slot utilization 8*16/512" 0.25 (Serve.slot_utilization stats)

(* Seven requests ride an 8-wide variant with one zeroed dead lane; the
   daemon still replays bit-identically and counts a 7-live batch. *)
let test_partial_batch_matches_direct_replay () =
  let c = compiled () in
  let ids = List.init 7 Fun.id in
  let cfg = { Serve.default_config with Serve.pipeline = 0; queue_depth = 8; max_batch = 8 } in
  let results, stats = serve_all ~config:cfg c (engine ~max_lanes:8 c) (List.map request ids) in
  List.iter
    (fun (id, expected) ->
      check_bit_exact (Printf.sprintf "request %d" id) expected (outputs_of results id))
    (direct_batched_answers cfg c ids);
  Alcotest.(check int) "one 7-live batch" 1 stats.Serve.batch_histogram.(6)

(* max_batch 1 (and a lone request under max_batch 8) is the unbatched
   daemon, bit for bit — including against an engine prepared WITHOUT
   extra rotations, pinning that extra Galois keys never perturb the
   base keyset or the per-request encryption draws. *)
let test_batch_of_one_is_unbatched () =
  let c = compiled () in
  let ids = [ 0; 1; 2 ] in
  let plain_cfg = { Serve.default_config with Serve.pipeline = 0 } in
  let baseline, _ = serve_all ~config:plain_cfg c (engine c) (List.map request ids) in
  let batched_cfg = { plain_cfg with Serve.max_batch = 8 } in
  let lone, _ = serve_all ~config:batched_cfg c (engine ~max_lanes:8 c) [ request 1 ] in
  check_bit_exact "lone request under max_batch 8" (outputs_of baseline 1) (outputs_of lone 1);
  let one_cfg = { plain_cfg with Serve.max_batch = 1 } in
  let one, _ = serve_all ~config:one_cfg c (engine ~max_lanes:8 c) (List.map request ids) in
  List.iter
    (fun id ->
      check_bit_exact (Printf.sprintf "max_batch 1 request %d" id) (outputs_of baseline id)
        (outputs_of one id))
    ids

(* -------------------------------------------------------------------- *)
(* 3. Encrypted accuracy, padding, and no cross-lane leakage             *)
(* -------------------------------------------------------------------- *)

let check_close what expected got =
  let err = Executor.max_abs_error got expected in
  if err > 1e-3 then Alcotest.failf "%s: max error %.3e" what err

(* A pipelined daemon with a linger forms whatever batches timing
   allows; every answer must still match its member's own reference run,
   and the batch histogram must account for every served request. *)
let test_pipelined_batching_accurate () =
  let c = compiled () in
  let p = source_shallow () in
  let ids = List.init 8 Fun.id in
  let cfg =
    {
      Serve.default_config with
      Serve.pipeline = 2;
      queue_depth = 8;
      max_batch = 4;
      batch_linger_ms = 10.0;
    }
  in
  let results, stats = serve_all ~config:cfg c (engine ~max_lanes:4 c) (List.map request ids) in
  List.iter
    (fun id ->
      let expected = Reference.execute p [ ("x", Reference.Vec (request_x id)) ] in
      check_close (Printf.sprintf "request %d" id) expected (outputs_of results id))
    ids;
  Alcotest.(check int) "all served" 8 stats.Serve.requests_served;
  let accounted =
    Array.to_list stats.Serve.batch_histogram
    |> List.mapi (fun i n -> (i + 1) * n)
    |> List.fold_left ( + ) 0
  in
  Alcotest.(check int) "histogram accounts for every served request" 8 accounted

(* Short request vectors (length 3) and scalar-like length-1 vectors
   batch next to full-width neighbours: each lane answers its own
   reference (length 1 broadcasts, non-dividing lengths zero-pad), and a
   zero member beside a loud one decodes to zero — lane garbage and
   neighbours never reach the wire. *)
let test_padding_and_isolation_in_batch () =
  let c = compiled () in
  let p = source_shallow () in
  let inputs =
    [
      (0, [| 0.9; -0.7; 0.42 |]);
      (1, [| 0.25 |]);
      (2, Array.make vs 0.0);
      (3, request_x 3);
    ]
  in
  let requests =
    List.map (fun (id, v) -> { Wire.req_id = id; deadline_ms = None; req_inputs = [ ("x", v) ] }) inputs
  in
  let cfg = { Serve.default_config with Serve.pipeline = 0; queue_depth = 4; max_batch = 4 } in
  let results, stats = serve_all ~config:cfg c (engine ~max_lanes:4 c) requests in
  List.iter
    (fun (id, v) ->
      let expected = Reference.execute p [ ("x", Reference.Vec v) ] in
      check_close (Printf.sprintf "member %d" id) expected (outputs_of results id))
    inputs;
  (* The zero member, batched between non-zero neighbours, stays zero. *)
  List.iter
    (fun (_, v) -> Array.iter (fun x -> Alcotest.(check bool) "zero lane stays zero" true (Float.abs x < 1e-3)) v)
    (outputs_of results 2);
  Alcotest.(check int) "one 4-live batch" 1 stats.Serve.batch_histogram.(3)

(* -------------------------------------------------------------------- *)
(* 4. Worker death mid-batch: dissolve, retry per request                *)
(* -------------------------------------------------------------------- *)

let test_worker_death_mid_batch_dissolves () =
  let c = compiled () in
  let target_node =
    (List.find
       (fun n -> match n.Ir.op with Ir.Input _ -> false | _ -> true)
       c.Compile.program.Ir.all_nodes)
      .Ir.id
  in
  let ids = List.init 4 Fun.id in
  (* A fresh one-shot Die plan per [fault_for] call: the batch execution
     dies (dissolving it), then member 2's individual re-run dies once
     more and succeeds on its request-level retry. *)
  let fault_for id = if id = 2 then Some (Fault.plan [ (target_node, [ Fault.Die ]) ]) else None in
  let plain_cfg = { Serve.default_config with Serve.pipeline = 0 } in
  let baseline, _ = serve_all ~config:plain_cfg c (engine c) (List.map request ids) in
  let cfg = { plain_cfg with Serve.queue_depth = 4; max_batch = 4 } in
  let faulted, stats = serve_all ~config:cfg ~fault_for c (engine ~max_lanes:4 c) (List.map request ids) in
  List.iter
    (fun id ->
      check_bit_exact (Printf.sprintf "request %d" id) (outputs_of baseline id)
        (outputs_of faulted id))
    ids;
  Alcotest.(check int) "all four served" 4 stats.Serve.requests_served;
  Alcotest.(check int) "no failures" 0 stats.Serve.requests_failed;
  Alcotest.(check int) "the batch dissolved once" 1 stats.Serve.batches_dissolved;
  Alcotest.(check bool) "member 2 retried on its own budget" true (stats.Serve.faults_retried >= 1);
  (* The dissolved members completed as four 1-wide executions. *)
  Alcotest.(check int) "four single executions" 4 stats.Serve.batch_histogram.(0)

(* A daemon whose engine lacks the batched Galois keys must refuse to
   start, not fail per batch at runtime. *)
let test_start_fails_fast_without_batch_keys () =
  let c = compiled () in
  let cfg = { Serve.default_config with Serve.max_batch = 8 } in
  match Serve.start ~config:cfg ~respond:(fun _ -> ()) c (engine c) with
  | _ -> Alcotest.fail "started without batched Galois keys"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "names the fix" true
        (String.length msg > 0
        &&
        let contains sub =
          let n = String.length sub in
          let rec go i = i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1)) in
          go 0
        in
        contains "batch_rotations")

(* [Compile.batch_rotations] scales the base program's steps instead of
   compiling every batched variant; this is the compiling definition it
   replaced, kept as the reference. *)
let batch_rotations_by_compiling c ~max_lanes =
  let rec go acc lanes =
    if lanes > max_lanes then acc
    else go (Compile.slot_rotations (Compile.batch c ~lanes) @ acc) (lanes * 2)
  in
  List.sort_uniq compare (go [] 2)

let test_batch_rotations_match_compiling () =
  let fan () =
    let b = B.create ~vec_size:vs () in
    let x = B.input b ~scale:30 "x" in
    let sum = List.fold_left (fun acc k -> B.add acc (B.rotate_left x k)) x [ 1; 2; 3; 5; 8 ] in
    B.output b "out" ~scale:30 sum;
    B.program b
  in
  (* Scalar-shaped: eight products and their sum, which the vectorizer
     packs into one vector and reduces by rotations. *)
  let scalar_dot () =
    let b = B.create ~vec_size:1 () in
    let x i = B.input b ~scale:30 (Printf.sprintf "x%d" i) in
    let y i = B.input b ~scale:30 (Printf.sprintf "y%d" i) in
    let prods = List.init 8 (fun i -> B.mul (x i) (y i)) in
    B.output b "dot" ~scale:30 (List.fold_left B.add (List.hd prods) (List.tl prods));
    B.program b
  in
  let vectorized = Compile.run (scalar_dot ()) in
  Alcotest.(check bool) "scalar dot vectorized" true (vectorized.Compile.packing <> None);
  List.iter
    (fun (what, c) ->
      if Compile.slot_rotations c = [] then Alcotest.failf "%s: no rotations to batch" what;
      List.iter
        (fun max_lanes ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s, max_lanes %d" what max_lanes)
            (batch_rotations_by_compiling c ~max_lanes)
            (Compile.batch_rotations c ~max_lanes))
        [ 1; 2; 8; 32 ])
    [
      ("fan", Compile.run (fan ()));
      ("right rotation", Compile.run (source_deep ()));
      ("vectorized", vectorized);
      ("already batched", Compile.run ~batch:2 (source_shallow ()));
    ]

let () =
  let qt t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "batch"
    [
      ( "rewrite exactness",
        [
          qt prop_batched_reference_bit_identical;
          Alcotest.test_case "non-lane-local programs refused E207" `Quick
            test_check_batched_negative;
          Alcotest.test_case "batch_rotations = compiling every width" `Quick
            test_batch_rotations_match_compiling;
        ] );
      ( "daemon determinism",
        [
          Alcotest.test_case "inline batch = direct replay (8 lanes)" `Quick
            test_inline_batch_matches_direct_replay;
          Alcotest.test_case "partial batch = direct replay (7 of 8)" `Quick
            test_partial_batch_matches_direct_replay;
          Alcotest.test_case "batch of one = unbatched, extras inert" `Quick
            test_batch_of_one_is_unbatched;
        ] );
      ( "accuracy & isolation",
        [
          Alcotest.test_case "pipelined batching accurate" `Quick test_pipelined_batching_accurate;
          Alcotest.test_case "padding, length-1, zero-lane isolation" `Quick
            test_padding_and_isolation_in_batch;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "worker death mid-batch dissolves" `Quick
            test_worker_death_mid_batch_dissolves;
          Alcotest.test_case "missing batch keys fail at start" `Quick
            test_start_fails_fast_without_batch_keys;
        ] );
    ]
