(* Fault-injection regression suite: under scripted worker death,
   transient failures, timeouts and corrupted intermediates, the
   executors either complete bit-exact or raise one structured
   Execute-class error — and never deadlock or regress the
   peak-live-value bound. *)

module B = Eva_core.Builder
module Ir = Eva_core.Ir
module Compile = Eva_core.Compile
module Reference = Eva_core.Reference
module Executor = Eva_core.Executor
module Parallel = Eva_schedule.Parallel
module Fault = Eva_schedule.Fault
module Diag = Eva_diag.Diag

let vec n f = Reference.Vec (Array.init n f)

(* A small mixed graph: rotations (parallel work), an add join and a
   squaring (so the compiled program has rescale/relinearize nodes). *)
let small_compiled () =
  let b = B.create ~vec_size:16 () in
  let x = B.input b ~scale:30 "x" in
  let r1 = B.rotate_left x 1 in
  let r2 = B.rotate_left x 2 in
  let s = B.add r1 r2 in
  B.output b "out" ~scale:30 (B.mul s s);
  Compile.run (B.program b)

let bindings = [ ("x", vec 16 (fun i -> Float.sin (float_of_int i) /. 4.0)) ]

let instructions c =
  List.filter
    (fun n -> match n.Ir.op with Ir.Input _ -> false | _ -> true)
    c.Compile.program.Ir.all_nodes

let check_outputs_equal what expected got =
  List.iter
    (fun (name, v) ->
      let w = List.assoc name got in
      Array.iteri
        (fun i xv -> if xv <> w.(i) then Alcotest.failf "%s: %s slot %d: %h vs %h" what name i xv w.(i))
        v)
    expected

(* Worker death at EVERY node index: with 2 workers, one death leaves a
   survivor that picks the requeued node back up; results stay
   bit-exact because parent values are only released on completion. *)
let test_worker_death_every_node () =
  let c = small_compiled () in
  let engine = Executor.prepare ~seed:7 ~ignore_security:true ~log_n:10 c bindings in
  let baseline = Parallel.execute_on ~workers:2 engine c in
  List.iter
    (fun n ->
      let fault = Fault.plan [ (n.Ir.id, [ Fault.Die ]) ] in
      let r = Parallel.execute_on ~fault ~workers:2 engine c in
      check_outputs_equal
        (Printf.sprintf "death at node %d" n.Ir.id)
        baseline.Parallel.outputs r.Parallel.outputs;
      Alcotest.(check int)
        (Printf.sprintf "one death injected at node %d" n.Ir.id)
        1 (Fault.counters fault).Fault.deaths)
    (instructions c)

(* Every worker ordered to die on its first claimed node: the run must
   end in a structured EVA-E504, not a deadlock. *)
let test_all_workers_die () =
  let c = small_compiled () in
  let engine = Executor.prepare ~seed:7 ~ignore_security:true ~log_n:10 c bindings in
  let fault = Fault.plan (List.map (fun n -> (n.Ir.id, [ Fault.Die; Fault.Die ])) (instructions c)) in
  match Parallel.execute_on ~fault ~workers:2 engine c with
  | _ -> Alcotest.fail "completed with every worker dead"
  | exception Diag.Error d ->
      Alcotest.(check int) "EVA-E504" Diag.exec_workers_died d.Diag.code;
      Alcotest.(check bool) "Execute layer" true (d.Diag.layer = Diag.Execute)

(* One transient failure per instruction, then success: idempotent
   re-execution must reproduce the fault-free run bit-exactly, on both
   executors. *)
let test_transient_retry_success () =
  let c = small_compiled () in
  let engine = Executor.prepare ~seed:7 ~ignore_security:true ~log_n:10 c bindings in
  let baseline = Parallel.execute_on ~workers:2 engine c in
  let mk_fault () = Fault.plan (List.map (fun n -> (n.Ir.id, [ Fault.Fail ])) (instructions c)) in
  let fault = mk_fault () in
  let r = Parallel.execute_on ~fault ~workers:2 engine c in
  check_outputs_equal "parallel retry" baseline.Parallel.outputs r.Parallel.outputs;
  Alcotest.(check int) "every node failed once" (List.length (instructions c))
    (Fault.counters fault).Fault.failures;
  Alcotest.(check int) "every node retried once" (List.length (instructions c))
    (Fault.counters fault).Fault.retries;
  (* Sequential path through the interpose hook. *)
  let fault = mk_fault () in
  let s = Executor.run_graph ~interpose:(Fault.interpose fault) engine c in
  let seq = List.map (fun (name, v) -> (name, Executor.read_output engine v)) s.Executor.raw_outputs in
  check_outputs_equal "sequential retry" baseline.Parallel.outputs seq

let test_retry_exhausted () =
  let c = small_compiled () in
  let engine = Executor.prepare ~seed:7 ~ignore_security:true ~log_n:10 c bindings in
  let target = (List.hd (instructions c)).Ir.id in
  let mk_fault () = Fault.plan ~max_retries:2 [ (target, [ Fault.Fail; Fault.Fail; Fault.Fail; Fault.Fail ]) ] in
  (match Parallel.execute_on ~fault:(mk_fault ()) ~workers:2 engine c with
  | _ -> Alcotest.fail "parallel: completed past an exhausted budget"
  | exception Diag.Error d -> Alcotest.(check int) "EVA-E506" Diag.exec_retry_exhausted d.Diag.code);
  match Executor.run_graph ~interpose:(Fault.interpose (mk_fault ())) engine c with
  | _ -> Alcotest.fail "sequential: completed past an exhausted budget"
  | exception Diag.Error d ->
      Alcotest.(check int) "EVA-E506" Diag.exec_retry_exhausted d.Diag.code;
      Alcotest.(check bool) "anchored to the node" true (d.Diag.node_id = Some target)

let test_timeout_paths () =
  let c = small_compiled () in
  let engine = Executor.prepare ~seed:7 ~ignore_security:true ~log_n:10 c bindings in
  let baseline = Parallel.execute_on ~workers:2 engine c in
  let target = (List.hd (instructions c)).Ir.id in
  (* One timeout, then success within the budget. *)
  let fault = Fault.plan [ (target, [ Fault.Timeout 0.005 ]) ] in
  let r = Parallel.execute_on ~fault ~workers:2 engine c in
  check_outputs_equal "timeout then success" baseline.Parallel.outputs r.Parallel.outputs;
  Alcotest.(check int) "one timeout" 1 (Fault.counters fault).Fault.timeouts;
  (* Timeouts beyond the budget become EVA-E505. *)
  let fault = Fault.plan ~max_retries:0 [ (target, [ Fault.Timeout 0.005; Fault.Timeout 0.005 ]) ] in
  match Parallel.execute_on ~fault ~workers:2 engine c with
  | _ -> Alcotest.fail "completed past an exhausted timeout budget"
  | exception Diag.Error d -> Alcotest.(check int) "EVA-E505" Diag.exec_timeout d.Diag.code

(* A delayed node changes nothing but wall time. *)
let test_delay_is_benign () =
  let c = small_compiled () in
  let engine = Executor.prepare ~seed:7 ~ignore_security:true ~log_n:10 c bindings in
  let baseline = Parallel.execute_on ~workers:2 engine c in
  let fault = Fault.plan [ ((List.hd (instructions c)).Ir.id, [ Fault.Delay 0.005 ]) ] in
  let r = Parallel.execute_on ~fault ~workers:2 engine c in
  check_outputs_equal "delayed node" baseline.Parallel.outputs r.Parallel.outputs

(* Scale-corrupting one operand of the add: the downstream scheme-layer
   guard refuses the mismatched scales and the run ends in a structured
   error anchored to the consuming node — silent wrong answers are the
   one forbidden outcome. *)
let test_corruption_detected_downstream () =
  let c = small_compiled () in
  let engine = Executor.prepare ~seed:7 ~ignore_security:true ~log_n:10 c bindings in
  let rot =
    List.find
      (fun n -> match n.Ir.op with Ir.Rotate_left _ -> true | _ -> false)
      c.Compile.program.Ir.all_nodes
  in
  let fault = Fault.plan [ (rot.Ir.id, [ Fault.Corrupt Fault.Wrong_scale ]) ] in
  match Parallel.execute_on ~fault ~workers:2 engine c with
  | _ -> Alcotest.fail "corrupted scale survived to the outputs"
  | exception Diag.Error d ->
      Alcotest.(check int) "scale guard fired" Diag.crypto_scale d.Diag.code;
      Alcotest.(check bool) "anchored to the consuming node" true (d.Diag.node_id <> None);
      Alcotest.(check int) "one corruption injected" 1 (Fault.counters fault).Fault.corruptions

(* The peak-live-value bound must hold while faults reorder execution:
   a 200-deep rotation chain with every node failing once still peaks at
   DAG width, not node count, on both executors. *)
let test_peak_live_holds_under_injection () =
  let b = B.create ~vec_size:16 () in
  let x = B.input b ~scale:30 "x" in
  let rec go e d = if d = 0 then e else go (B.rotate_left e 1) (d - 1) in
  B.output b "out" ~scale:30 (go x 200);
  let c = Compile.run (B.program b) in
  let chain_bindings = [ ("x", vec 16 float_of_int) ] in
  let engine = Executor.prepare ~ignore_security:true ~log_n:10 c chain_bindings in
  let baseline = Parallel.execute_on ~workers:4 engine c in
  let fail_every_node () =
    Fault.plan (List.map (fun n -> (n.Ir.id, [ Fault.Fail ])) (instructions c))
  in
  let r = Parallel.execute_on ~fault:(fail_every_node ()) ~workers:4 engine c in
  check_outputs_equal "chain under injection" baseline.Parallel.outputs r.Parallel.outputs;
  if r.Parallel.peak_live_values >= 16 then
    Alcotest.failf "parallel peak live %d regressed under injection" r.Parallel.peak_live_values;
  let s = Executor.run_graph ~interpose:(Fault.interpose (fail_every_node ())) engine c in
  if s.Executor.peak_live_values >= 16 then
    Alcotest.failf "sequential peak live %d regressed under injection" s.Executor.peak_live_values

(* An empty plan must be invisible: same results, zero counters. *)
let test_silent_plan_is_invisible () =
  let c = small_compiled () in
  let engine = Executor.prepare ~seed:7 ~ignore_security:true ~log_n:10 c bindings in
  let baseline = Parallel.execute_on ~workers:2 engine c in
  let fault = Fault.none () in
  let r = Parallel.execute_on ~fault ~workers:2 engine c in
  check_outputs_equal "silent plan" baseline.Parallel.outputs r.Parallel.outputs;
  let k = Fault.counters fault in
  Alcotest.(check int) "nothing injected" 0
    (k.Fault.deaths + k.Fault.failures + k.Fault.delays + k.Fault.timeouts + k.Fault.corruptions)

(* Seeded random plans: across several seeds, never a hang or an
   unclassified exception — completion without any corruption injected
   is additionally bit-exact. (A scale corruption that only ever feeds
   multiplies is undetectable by construction — multiply has no
   scale-equality precondition — so corrupted completions may be
   numerically wrong without an error; the harness exists to prove the
   executor never *crashes*, not that metadata tampering is always
   caught.) *)
let test_random_plans_never_crash () =
  let c = small_compiled () in
  let engine = Executor.prepare ~seed:7 ~ignore_security:true ~log_n:10 c bindings in
  let baseline = Parallel.execute_on ~workers:2 engine c in
  List.iter
    (fun seed ->
      let fault = Fault.random ~max_retries:5 ~seed ~death_p:0.05 ~fail_p:0.2 ~corrupt_p:0.05 () in
      match Parallel.execute_on ~fault ~workers:3 engine c with
      | r ->
          if (Fault.counters fault).Fault.corruptions = 0 then
            check_outputs_equal (Printf.sprintf "seed %d" seed) baseline.Parallel.outputs r.Parallel.outputs
      | exception Diag.Error _ -> ()
      | exception e ->
          Alcotest.failf "seed %d: unclassified exception %s" seed (Printexc.to_string e))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* RotateMany under worker death: a fan of 16 rotations of one source is
   executed as one hoist group on one worker. Death while holding the
   group requeues the leader, and the survivor re-runs the WHOLE group
   bit-exactly — whether the scripted death was drawn at the leader or
   at a satellite (satellites are never separately claimable, so their
   plans fire on the group claim). *)
let test_rotate_many_under_death () =
  let b = B.create ~vec_size:16 () in
  let x = B.input b ~scale:30 "x" in
  let rots = List.init 8 (fun i -> B.rotate_left x (i + 1)) in
  let s = List.fold_left B.add (List.hd rots) (List.tl rots) in
  B.output b "out" ~scale:30 (B.mul s s);
  let c = Compile.run (B.program b) in
  let groups = Eva_core.Optimize.rotation_groups c.Compile.program in
  Alcotest.(check int) "one hoist group" 1 (List.length groups);
  let members = (List.hd groups).Eva_core.Optimize.hoist_rotations in
  Alcotest.(check int) "eight rotations grouped" 8 (List.length members);
  let leader = List.hd members and satellite = List.nth members 3 in
  let engine = Executor.prepare ~seed:7 ~ignore_security:true ~log_n:10 c bindings in
  let baseline = Parallel.execute_on ~workers:2 engine c in
  (* Hoisting itself changes no output bits. *)
  let unhoisted = Parallel.execute_on ~hoist:false ~workers:2 engine c in
  check_outputs_equal "hoist on vs off" unhoisted.Parallel.outputs baseline.Parallel.outputs;
  List.iter
    (fun (what, target) ->
      let fault = Fault.plan [ (target.Ir.id, [ Fault.Die ]) ] in
      let r = Parallel.execute_on ~fault ~workers:2 engine c in
      check_outputs_equal (Printf.sprintf "death at %s" what) baseline.Parallel.outputs r.Parallel.outputs;
      Alcotest.(check int)
        (Printf.sprintf "one death at %s" what)
        1 (Fault.counters fault).Fault.deaths)
    [ ("group leader", leader); ("group satellite", satellite) ]

(* A transient-fault storm over a hoist group: the plan draws one action
   per member, so a lossy plan fails some member on nearly every group
   run (1 - 0.6^8 ≈ 98% here). Each failed member retries in place
   within its own node's budget, the group stays whole, and outputs
   stay bit-exact. Single worker keeps the claim order (and so the rng
   draw sequence) deterministic per seed. *)
let test_fault_storm_retries_group_in_place () =
  let b = B.create ~vec_size:16 () in
  let x = B.input b ~scale:30 "x" in
  let rots = List.init 8 (fun i -> B.rotate_left x (i + 1)) in
  let s = List.fold_left B.add (List.hd rots) (List.tl rots) in
  B.output b "out" ~scale:30 (B.mul s s);
  let c = Compile.run (B.program b) in
  Alcotest.(check int)
    "eight rotations grouped" 8
    (List.length (List.hd (Eva_core.Optimize.rotation_groups c.Compile.program)).Eva_core.Optimize.hoist_rotations);
  let engine = Executor.prepare ~seed:7 ~ignore_security:true ~log_n:10 c bindings in
  let baseline = Parallel.execute_on ~workers:1 engine c in
  let stormed = ref 0 in
  List.iter
    (fun seed ->
      let fault =
        Fault.random ~max_retries:6
          ~backoff:(Eva_schedule.Backoff.make ~base_ms:0.01 ~cap_ms:0.1 ~seed:0 ())
          ~seed ~death_p:0.0 ~fail_p:0.4 ~corrupt_p:0.0 ()
      in
      let r = Parallel.execute_on ~fault ~workers:1 engine c in
      check_outputs_equal (Printf.sprintf "storm seed %d" seed) baseline.Parallel.outputs r.Parallel.outputs;
      if (Fault.counters fault).Fault.failures > 0 then incr stormed)
    [ 0; 1; 2; 3; 4 ];
  if !stormed = 0 then Alcotest.fail "no transient failure fired across any seed"

let () =
  Alcotest.run "fault"
    [
      ( "injection",
        [
          Alcotest.test_case "worker death at every node" `Quick test_worker_death_every_node;
          Alcotest.test_case "all workers die -> E504" `Quick test_all_workers_die;
          Alcotest.test_case "transient failure retries bit-exact" `Quick test_transient_retry_success;
          Alcotest.test_case "retry budget exhausted -> E506" `Quick test_retry_exhausted;
          Alcotest.test_case "timeout retry and E505" `Quick test_timeout_paths;
          Alcotest.test_case "delay is benign" `Quick test_delay_is_benign;
          Alcotest.test_case "corruption detected downstream" `Quick test_corruption_detected_downstream;
          Alcotest.test_case "peak live holds under injection" `Quick test_peak_live_holds_under_injection;
          Alcotest.test_case "silent plan invisible" `Quick test_silent_plan_is_invisible;
          Alcotest.test_case "random plans never crash" `Quick test_random_plans_never_crash;
          Alcotest.test_case "RotateMany group under death" `Quick test_rotate_many_under_death;
          Alcotest.test_case "fault storm retries hoist group in place" `Quick
            test_fault_storm_retries_group_in_place;
        ] );
    ]
