module B = Eva_core.Builder
module Ir = Eva_core.Ir
module Compile = Eva_core.Compile
module Reference = Eva_core.Reference
module Executor = Eva_core.Executor
module Cost = Eva_schedule.Cost
module Makespan = Eva_schedule.Makespan
module Parallel = Eva_schedule.Parallel
module Fault = Eva_schedule.Fault

(* A wide program: k independent multiply chains summed at the end. *)
let wide_program k depth =
  let b = B.create ~vec_size:16 () in
  let x = B.input b ~scale:30 "x" in
  let chains =
    List.init k (fun i ->
        let rec go e d = if d = 0 then e else go (B.mul e (B.const_scalar b ~scale:10 (1.0 +. (0.01 *. float_of_int i)))) (d - 1) in
        go (B.rotate_left x (i + 1)) depth)
  in
  B.output b "out" ~scale:30 (List.fold_left B.add (List.hd chains) (List.tl chains));
  B.program b

let unit_cost n = match n.Ir.op with Ir.Input _ | Ir.Constant _ | Ir.Output _ -> 0.0 | _ -> 1.0

let test_makespan_bounds () =
  let p = (Compile.run (wide_program 8 3)).Compile.program in
  let work_stats = Makespan.simulate p ~cost:unit_cost ~workers:1 in
  Alcotest.(check (float 1e-9)) "one worker = total work" work_stats.Makespan.work work_stats.Makespan.makespan;
  let s4 = Makespan.simulate p ~cost:unit_cost ~workers:4 in
  Alcotest.(check bool) "lower bound" true
    (s4.Makespan.makespan +. 1e-9 >= Float.max s4.Makespan.critical_path (s4.Makespan.work /. 4.0));
  Alcotest.(check bool) "upper bound" true (s4.Makespan.makespan <= s4.Makespan.work +. 1e-9);
  Alcotest.(check bool) "parallelism helps" true (s4.Makespan.makespan < work_stats.Makespan.makespan)

let test_makespan_monotone_in_workers () =
  let p = (Compile.run (wide_program 6 4)).Compile.program in
  let prev = ref Float.infinity in
  List.iter
    (fun w ->
      let s = Makespan.simulate p ~cost:unit_cost ~workers:w in
      Alcotest.(check bool) (Printf.sprintf "workers %d no slower" w) true (s.Makespan.makespan <= !prev +. 1e-9);
      prev := s.Makespan.makespan)
    [ 1; 2; 4; 8; 16 ]

let test_makespan_saturates_at_critical_path () =
  let p = (Compile.run (wide_program 4 5)).Compile.program in
  let s = Makespan.simulate p ~cost:unit_cost ~workers:1000 in
  Alcotest.(check (float 1e-9)) "saturates" s.Makespan.critical_path s.Makespan.makespan

let test_bulk_synchronous_never_faster () =
  let p = (Compile.run (wide_program 6 3)).Compile.program in
  (* Group by rough depth: a legal (topology-respecting) kernel split. *)
  let depth_tbl = Hashtbl.create 64 in
  List.iter
    (fun n ->
      let d = Array.fold_left (fun acc m -> max acc (Hashtbl.find depth_tbl m.Ir.id + 1)) 0 n.Ir.parms in
      Hashtbl.replace depth_tbl n.Ir.id d)
    (Ir.topological p);
  let group n = Hashtbl.find depth_tbl n.Ir.id in
  List.iter
    (fun w ->
      let dyn = Makespan.simulate p ~cost:unit_cost ~workers:w in
      let bulk = Makespan.simulate_bulk_synchronous p ~cost:unit_cost ~workers:w ~group in
      Alcotest.(check bool)
        (Printf.sprintf "bulk >= dynamic at %d workers" w)
        true
        (bulk.Makespan.makespan +. 1e-9 >= dyn.Makespan.makespan))
    [ 1; 2; 4; 8 ]

let test_bulk_rejects_bad_groups () =
  let p = (Compile.run (wide_program 2 1)).Compile.program in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Makespan.simulate_bulk_synchronous p ~cost:unit_cost ~workers:2 ~group:(fun n -> -n.Ir.id));
       false
     with Invalid_argument _ -> true)

(* Hoist-group regression: one source fanned into 16 rotations. The
   grouping pass must find exactly one 16-member group; the hoisted cost
   model must price satellites strictly below the leader (apply-only vs
   decompose + apply); and the clustered makespan — the whole group
   serial on one worker, members priced hoisted — must beat the
   ungrouped naive schedule at one worker, matching the single-core
   ordering measured for hoisted rotations (EXPERIMENTS.md). *)
let test_hoist_group_makespan () =
  let b = B.create ~vec_size:64 () in
  let x = B.input b ~scale:30 "x" in
  let rots = List.init 16 (fun i -> B.rotate_left x (i + 1)) in
  B.output b "out" ~scale:30 (List.fold_left B.add (List.hd rots) (List.tl rots));
  let c = Compile.run (B.program b) in
  let groups = Eva_core.Optimize.rotation_groups c.Compile.program in
  Alcotest.(check int) "one group" 1 (List.length groups);
  let members = (List.hd groups).Eva_core.Optimize.hoist_rotations in
  Alcotest.(check int) "sixteen members" 16 (List.length members);
  let coeffs = Cost.default_coefficients in
  let hoisted = Cost.program_costs coeffs c
  and naive = Cost.program_costs ~hoist:false coeffs c in
  let leader = List.hd members and sat = List.nth members 5 in
  let cost_in tbl n = Hashtbl.find tbl n.Ir.id in
  Alcotest.(check bool) "satellite priced below leader" true
    (cost_in hoisted sat < cost_in hoisted leader);
  Alcotest.(check (float 1e-12)) "leader priced as full switch" (cost_in naive leader)
    (cost_in hoisted leader);
  let clusters = Makespan.hoist_clusters groups in
  let ms tbl ?clusters () =
    let cost n = Option.value (Hashtbl.find_opt tbl n.Ir.id) ~default:0.0 in
    (Makespan.simulate ?clusters c.Compile.program ~cost ~workers:1).Makespan.makespan
  in
  let grouped = ms hoisted ~clusters () and ungrouped = ms naive () in
  Alcotest.(check bool)
    (Printf.sprintf "grouped %.4fs beats ungrouped %.4fs at 1 worker" grouped ungrouped)
    true (grouped < ungrouped)

let test_cost_model_orders_ops () =
  let c = Compile.run (wide_program 2 2) in
  let costs = Cost.program_costs Cost.default_coefficients c in
  let cost_of pred =
    List.filter_map
      (fun n -> if pred n.Ir.op then Hashtbl.find_opt costs n.Ir.id else None)
      c.Compile.program.Ir.all_nodes
  in
  let adds = cost_of (function Ir.Add -> true | _ -> false) in
  let rots = cost_of (function Ir.Rotate_left _ -> true | _ -> false) in
  Alcotest.(check bool) "has adds and rotations" true (adds <> [] && rots <> []);
  (* Key switching dominates additions by orders of magnitude. *)
  Alcotest.(check bool) "rotate >> add" true (List.hd rots > 10.0 *. List.hd adds)

let test_cost_model_grows_with_n () =
  let c = Compile.run (wide_program 2 2) in
  let small = Cost.program_costs ~log_n:12 Cost.default_coefficients c in
  let large = Cost.program_costs ~log_n:15 Cost.default_coefficients c in
  let total t = Hashtbl.fold (fun _ v acc -> acc +. v) t 0.0 in
  (* Plaintext vector work is degree-independent; ciphertext work grows. *)
  Hashtbl.iter
    (fun id v -> Alcotest.(check bool) "no op gets cheaper" true (Hashtbl.find large id >= v))
    small;
  Alcotest.(check bool) "total cost grows" true (total large > total small)

(* Cost prices a level by the machine primes Context realizes it with:
   on a chain mixing one-prime (<= 30-bit) and two-prime (> 30-bit)
   elements, the two agree at every level. *)
let test_cost_primes_match_context () =
  let data_bits = [ 60; 30; 24; 45; 31; 28; 40 ] in
  let ctx = Eva_ckks.Context.make ~ignore_security:true ~n:256 ~data_bits ~special_bits:[ 60 ] () in
  let cost_primes = Cost.primes_of_level data_bits in
  List.iteri
    (fun i _ ->
      let level = i + 1 in
      Alcotest.(check int)
        (Printf.sprintf "primes at level %d" level)
        (Eva_ckks.Context.prime_count_for_level ctx level)
        (cost_primes level))
    data_bits

let test_calibration_positive () =
  let co = Cost.calibrate ~log_n:10 () in
  List.iter
    (fun (name, v) -> Alcotest.(check bool) name true (v > 0.0 && v < 1e-3))
    [ ("c_linear", co.Cost.c_linear); ("c_mul", co.Cost.c_mul); ("c_ntt", co.Cost.c_ntt); ("c_encode", co.Cost.c_encode) ]

let test_parallel_matches_sequential () =
  let p = wide_program 4 2 in
  let c = Compile.run p in
  let bindings = [ ("x", Reference.Vec (Array.init 16 (fun i -> Float.sin (float_of_int i) /. 2.0))) ] in
  let seq = Executor.execute ~seed:3 ~ignore_security:true ~log_n:10 c bindings in
  List.iter
    (fun workers ->
      (* Inputs encrypted on [workers] domains too: ciphertexts must not
         depend on the encrypt worker count. *)
      let engine =
        Executor.prepare ~seed:3 ~ignore_security:true ~log_n:10 ~encrypt_workers:workers c bindings
      in
      let par = Parallel.execute_on ~workers engine c in
      List.iter
        (fun (name, v) ->
          let w = List.assoc name par.Parallel.outputs in
          Array.iteri
            (fun i x ->
              if x <> w.(i) then Alcotest.failf "workers=%d %s slot %d: %h vs %h" workers name i x w.(i))
            v)
        seq.Executor.outputs)
    [ 1; 2; 4 ]

(* Random DAGs x workers: the parallel executor must agree with the
   sequential one bit for bit — same prepared inputs, same per-node
   float arithmetic, only the schedule differs. Rotation steps are drawn
   from {1,2,3,5} so sources fan out into hoist groups (at least one
   seed must form one), and the schedules must also agree on op counts
   and evaluate every instruction exactly once. Every worker count
   reruns under a plan that fails each node once: in-place retries keep
   the outputs bit-exact. *)
let test_parallel_random_dags_match_sequential () =
  let grouped = ref 0 in
  List.iter
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let b = B.create ~vec_size:16 () in
      let x = B.input b ~scale:30 "x" in
      let pool = ref [ x ] in
      for _ = 1 to 25 do
        let pick () = List.nth !pool (Random.State.int st (List.length !pool)) in
        let e =
          match Random.State.int st 4 with
          | 0 -> B.add (pick ()) (pick ())
          | 1 -> B.sub (pick ()) (pick ())
          | 2 -> B.mul (pick ()) (B.const_scalar b ~scale:10 0.5)
          | _ -> B.rotate_left (pick ()) (List.nth [ 1; 2; 3; 5 ] (Random.State.int st 4))
        in
        pool := e :: !pool
      done;
      B.output b "o" ~scale:30 (List.hd !pool);
      let c = Compile.run (B.program b) in
      if Eva_core.Optimize.rotation_groups c.Compile.program <> [] then incr grouped;
      let instructions =
        List.filter_map
          (fun n -> match n.Ir.op with Ir.Input _ -> None | _ -> Some n.Ir.id)
          c.Compile.program.Ir.all_nodes
      in
      let covered (t : Executor.timings) =
        List.map (fun (id, _, _) -> id) t.Executor.per_node |> List.sort compare
      in
      let bindings = [ ("x", Reference.Vec (Array.init 16 (fun i -> Float.sin (float_of_int i) /. 4.0))) ] in
      let seq = Executor.execute ~seed:7 ~ignore_security:true ~log_n:10 c bindings in
      let prepare workers =
        Executor.prepare ~seed:7 ~ignore_security:true ~log_n:10 ~encrypt_workers:workers c bindings
      in
      Alcotest.(check (list int))
        (Printf.sprintf "seed=%d sequential covers every instruction once" seed)
        (List.sort compare instructions) (covered seq.Executor.timings);
      let check_outputs what (par : Parallel.result) =
        List.iter
          (fun (name, v) ->
            let w = List.assoc name par.Parallel.outputs in
            Array.iteri
              (fun i xv ->
                if xv <> w.(i) then
                  Alcotest.failf "seed=%d %s %s slot %d: %h vs %h" seed what name i xv w.(i))
              v)
          seq.Executor.outputs
      in
      List.iter
        (fun workers ->
          let par = Parallel.execute_on ~workers (prepare workers) c in
          check_outputs (Printf.sprintf "workers=%d" workers) par;
          Alcotest.(check bool)
            (Printf.sprintf "seed=%d workers=%d op counts" seed workers)
            true
            (seq.Executor.timings.Executor.op_counts = par.Parallel.timings.Executor.op_counts);
          Alcotest.(check (list int))
            (Printf.sprintf "seed=%d workers=%d per-node coverage" seed workers)
            (covered seq.Executor.timings) (covered par.Parallel.timings);
          let fault =
            Fault.plan
              ~backoff:(Eva_schedule.Backoff.make ~base_ms:0.01 ~cap_ms:0.1 ~seed:0 ())
              (List.map (fun id -> (id, [ Fault.Fail ])) instructions)
          in
          let faulted = Parallel.execute_on ~fault ~workers (prepare workers) c in
          check_outputs (Printf.sprintf "workers=%d, every node failed once" workers) faulted;
          Alcotest.(check int)
            (Printf.sprintf "seed=%d workers=%d every node retried once" seed workers)
            (List.length instructions) (Fault.counters fault).Fault.retries)
        [ 1; 2; 3; 8 ])
    [ 11; 42; 167 ];
  if !grouped = 0 then Alcotest.fail "no seed formed a hoist group"

(* Regression for the value-release leak: on a 200-deep sequential
   chain, peak simultaneously-live values must track DAG width (a small
   constant), not the node count, on both executors. *)
let test_release_keeps_peak_live_small () =
  let b = B.create ~vec_size:16 () in
  let x = B.input b ~scale:30 "x" in
  let rec go e d = if d = 0 then e else go (B.rotate_left e 1) (d - 1) in
  B.output b "out" ~scale:30 (go x 200);
  let c = Compile.run (B.program b) in
  let nodes = List.length c.Compile.program.Ir.all_nodes in
  Alcotest.(check bool) "chain is deep" true (nodes > 200);
  let bindings = [ ("x", Reference.Vec (Array.init 16 float_of_int)) ] in
  let e = Executor.prepare ~ignore_security:true ~log_n:10 c bindings in
  List.iter
    (fun workers ->
      let r = Parallel.execute_on ~workers e c in
      if not (r.Parallel.peak_live_values < 16) then
        Alcotest.failf "workers=%d: peak live %d should be O(width), nodes=%d" workers
          r.Parallel.peak_live_values nodes;
      Alcotest.(check int)
        (Printf.sprintf "per-node timings cover every instruction (workers=%d)" workers)
        (nodes - 1) (* all nodes except the single input *)
        (List.length r.Parallel.timings.Executor.per_node))
    [ 1; 4 ];
  let s = Executor.run_graph e c in
  Alcotest.(check bool) "sequential peak live O(width)" true (s.Executor.peak_live_values < 16)

let test_parallel_propagates_failure () =
  (* A hand-built invalid program (scale mismatch) must raise, not hang. *)
  let p = Ir.create_program ~vec_size:16 () in
  let x = Ir.add_node ~decl_scale:30 p (Ir.Input (Ir.Cipher, "x")) [] in
  let y = Ir.add_node ~decl_scale:40 p (Ir.Input (Ir.Cipher, "y")) [] in
  let s = Ir.add_node p Ir.Add [ x; y ] in
  ignore (Ir.add_node ~decl_scale:30 p (Ir.Output "o") [ s ]);
  (* Bypass the compiler: build a fake compiled record. *)
  let params = Eva_core.Params.select p in
  let compiled = { Compile.program = p; params; policy = Eva_core.Passes.Eva; s_f = 60; lanes = 1; packing = None } in
  let bindings = [ ("x", Reference.Vec [| 0.5 |]); ("y", Reference.Vec [| 0.5 |]) ] in
  Alcotest.(check bool) "raises" true
    (try
       let engine =
         Executor.prepare ~ignore_security:true ~log_n:10 ~encrypt_workers:2 compiled bindings
       in
       ignore (Parallel.execute_on ~workers:2 engine compiled);
       false
     with Eva_diag.Diag.Error d -> d.Eva_diag.Diag.code = Eva_diag.Diag.crypto_scale)

(* A failure in the middle of the graph — with healthy work scheduled
   both before and after it — must propagate out of every worker
   without deadlocking the rest. *)
let test_parallel_midgraph_failure_no_deadlock () =
  let p = Ir.create_program ~vec_size:16 () in
  let x = Ir.add_node ~decl_scale:30 p (Ir.Input (Ir.Cipher, "x")) [] in
  let y = Ir.add_node ~decl_scale:40 p (Ir.Input (Ir.Cipher, "y")) [] in
  let rots = List.init 6 (fun i -> Ir.add_node p (Ir.Rotate_left (i + 1)) [ x ]) in
  let bad = Ir.add_node p Ir.Add [ x; y ] in
  (* scale mismatch: raises at eval *)
  let after = Ir.add_node p Ir.Add [ bad; bad ] in
  let tail = List.fold_left (fun acc r -> Ir.add_node p Ir.Add [ acc; r ]) (List.hd rots) (List.tl rots) in
  ignore (Ir.add_node ~decl_scale:30 p (Ir.Output "good") [ tail ]);
  ignore (Ir.add_node ~decl_scale:30 p (Ir.Output "poisoned") [ after ]);
  let params = Eva_core.Params.select p in
  let compiled = { Compile.program = p; params; policy = Eva_core.Passes.Eva; s_f = 60; lanes = 1; packing = None } in
  let bindings = [ ("x", Reference.Vec [| 0.5 |]); ("y", Reference.Vec [| 0.5 |]) ] in
  Alcotest.(check bool) "raises without deadlock" true
    (try
       let engine =
         Executor.prepare ~ignore_security:true ~log_n:10 ~encrypt_workers:4 compiled bindings
       in
       ignore (Parallel.execute_on ~workers:4 engine compiled);
       false
     with Eva_diag.Diag.Error d ->
       (* the scheme-layer mismatch, anchored to the failing node *)
       d.Eva_diag.Diag.code = Eva_diag.Diag.crypto_scale && d.Eva_diag.Diag.node_id <> None)

(* Mini-LeNet end to end at log N 10 under the default cost-model
   priority: 2 workers decrypt bit-identically to 1 — the schedule is
   the only thing the worker count may change. *)
let test_mini_lenet_workers_bit_identical () =
  let module N = Eva_tensor.Network in
  let net = Eva_tensor.Networks.mini_lenet in
  let weights = N.random_weights net ~seed:1 in
  let lowered = N.lower ~mode:`Eva ~scales:(Eva_tensor.Networks.scales_for net) net weights in
  let compiled = Compile.run ~policy:Eva_core.Passes.Eva lowered.N.program in
  let size = net.N.input_channels * net.N.input_height * net.N.input_width in
  let image = Array.init size (fun i -> Float.sin (float_of_int i)) in
  let engine = Executor.prepare ~ignore_security:true ~log_n:10 compiled (N.bindings lowered image) in
  let run workers = (Parallel.execute_on ~workers engine compiled).Parallel.outputs in
  Alcotest.(check bool) "2 workers = 1 worker" true (run 2 = run 1)

let prop_makespan_bounds_random =
  QCheck2.Test.make ~name:"makespan bounds on random DAGs" ~count:40 QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let b = B.create ~vec_size:16 () in
      let x = B.input b ~scale:30 "x" in
      let pool = ref [ x ] in
      for _ = 1 to 20 do
        let pick () = List.nth !pool (Random.State.int st (List.length !pool)) in
        let e = match Random.State.int st 3 with
          | 0 -> B.add (pick ()) (pick ())
          | 1 -> B.mul (pick ()) (B.const_scalar b ~scale:10 0.5)
          | _ -> B.rotate_left (pick ()) 1
        in
        pool := e :: !pool
      done;
      B.output b "o" ~scale:30 (List.hd !pool);
      let p = (Compile.run (B.program b)).Compile.program in
      let workers = 1 + Random.State.int st 7 in
      let s = Makespan.simulate p ~cost:unit_cost ~workers in
      s.Makespan.makespan +. 1e-9 >= Float.max s.Makespan.critical_path (s.Makespan.work /. float_of_int workers)
      && s.Makespan.makespan <= s.Makespan.work +. 1e-9)

let () =
  let qt t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "schedule"
    [
      ( "makespan",
        [
          Alcotest.test_case "bounds" `Quick test_makespan_bounds;
          Alcotest.test_case "monotone in workers" `Quick test_makespan_monotone_in_workers;
          Alcotest.test_case "saturates at critical path" `Quick test_makespan_saturates_at_critical_path;
          Alcotest.test_case "bulk-sync never faster" `Quick test_bulk_synchronous_never_faster;
          Alcotest.test_case "bulk rejects bad groups" `Quick test_bulk_rejects_bad_groups;
        ] );
      ( "cost model",
        [
          Alcotest.test_case "op ordering" `Quick test_cost_model_orders_ops;
          Alcotest.test_case "hoist group beats naive at 1 worker" `Quick test_hoist_group_makespan;
          Alcotest.test_case "grows with N" `Quick test_cost_model_grows_with_n;
          Alcotest.test_case "calibration" `Quick test_calibration_positive;
          Alcotest.test_case "prime count per level matches Context" `Quick test_cost_primes_match_context;
        ] );
      ( "parallel executor",
        [
          Alcotest.test_case "matches sequential" `Quick test_parallel_matches_sequential;
          Alcotest.test_case "random DAGs match exactly" `Quick test_parallel_random_dags_match_sequential;
          Alcotest.test_case "release keeps peak live small" `Quick test_release_keeps_peak_live_small;
          Alcotest.test_case "propagates failure" `Quick test_parallel_propagates_failure;
          Alcotest.test_case "mid-graph failure no deadlock" `Quick test_parallel_midgraph_failure_no_deadlock;
          Alcotest.test_case "mini-LeNet 1 vs 2 workers bit-identical" `Quick
            test_mini_lenet_workers_bit_identical;
        ] );
      ("property", [ qt prop_makespan_bounds_random ]);
    ]
