(* Pool regression suite: the shared domain pool must be invisible in
   the results — every parallelized kernel is residue-exact across pool
   sizes {0,1,2,4} — and must compose with the graph executor's own
   worker domains and fault injection without deadlock. *)

module Pool = Eva_pool.Pool
module Rv = Eva_rns.Rowvec
module P = Eva_rns.Primes
module Ntt = Eva_rns.Ntt
module Rp = Eva_poly.Rns_poly
module Ctx = Eva_ckks.Context
module Keys = Eva_ckks.Keys
module B = Eva_core.Builder
module Ir = Eva_core.Ir
module Compile = Eva_core.Compile
module Reference = Eva_core.Reference
module Executor = Eva_core.Executor
module Parallel = Eva_schedule.Parallel
module Fault = Eva_schedule.Fault

let pool_sizes = [ 0; 1; 2; 4 ]

(* Restore whatever pool the harness was started with (POOL_WORKERS),
   so suite order never changes other suites' behavior. *)
let with_pool_sizes f =
  let before = Pool.workers () in
  Fun.protect
    ~finally:(fun () -> Pool.set_workers before)
    (fun () ->
      List.iter
        (fun w ->
          Pool.set_workers w;
          f w)
        pool_sizes)

let snapshot p = Array.map Rv.to_array (Rp.rows p)

let check_rows what w expected got =
  Array.iteri
    (fun i row ->
      if row <> got.(i) then
        Alcotest.failf "%s: pool size %d diverges from sequential on residue row %d" what w i)
    expected

(* {2 The pool primitive itself} *)

(* Every index of [lo, hi) is visited exactly once, at every pool size
   and chunk, including empty and single-chunk ranges. *)
let prop_parallel_for_covers =
  QCheck2.Test.make ~name:"parallel_for covers each index exactly once" ~count:100
    QCheck2.Gen.(triple (int_range 0 40) (int_range 0 300) (int_range 1 64))
    (fun (lo, len, chunk) ->
      let hi = lo + len in
      List.for_all
        (fun w ->
          Pool.set_workers w;
          let hits = Array.make (max 1 hi) 0 in
          Pool.parallel_for ~chunk ~lo ~hi (fun sub_lo sub_hi ->
              for i = sub_lo to sub_hi - 1 do
                (* Each chunk owns a disjoint range, so unsynchronized
                   increments are safe — that is the pool's contract. *)
                hits.(i) <- hits.(i) + 1
              done);
          let ok = ref true in
          for i = 0 to max 1 hi - 1 do
            let want = if i >= lo && i < hi then 1 else 0 in
            if hits.(i) <> want then ok := false
          done;
          !ok)
        pool_sizes)

(* A chunk exception reaches the caller at every pool size, and the
   pool survives to run the next loop. *)
let test_exception_propagates () =
  with_pool_sizes (fun w ->
      (match
         Pool.parallel_for ~lo:0 ~hi:64 (fun sub_lo sub_hi ->
             if sub_lo <= 32 && 32 < sub_hi then failwith "chunk boom")
       with
      | () -> Alcotest.failf "pool size %d swallowed a chunk exception" w
      | exception Failure m -> Alcotest.(check string) "original exception" "chunk boom" m);
      let acc = Array.make 64 0 in
      Pool.parallel_for ~lo:0 ~hi:64 (fun sub_lo sub_hi ->
          for i = sub_lo to sub_hi - 1 do
            acc.(i) <- i
          done);
      Alcotest.(check int) "pool alive after exception" (63 * 64 / 2) (Array.fold_left ( + ) 0 acc))

(* A parallel_for issued from inside a pool worker runs inline (no
   nested fan-out), and still covers its range. *)
let test_nested_runs_inline () =
  with_pool_sizes (fun _ ->
      let outer = 8 and inner = 16 in
      let hits = Array.make (outer * inner) 0 in
      let nested_chunked = ref false in
      Pool.parallel_for ~lo:0 ~hi:outer (fun sub_lo sub_hi ->
          for o = sub_lo to sub_hi - 1 do
            let inside = Pool.in_worker () in
            Pool.parallel_for ~lo:0 ~hi:inner (fun ilo ihi ->
                if inside && not (Pool.in_worker ()) then nested_chunked := true;
                for i = ilo to ihi - 1 do
                  hits.((o * inner) + i) <- hits.((o * inner) + i) + 1
                done)
          done);
      Alcotest.(check bool) "nested loop stays on its worker" false !nested_chunked;
      Array.iteri (fun i h -> if h <> 1 then Alcotest.failf "index %d visited %d times" i h) hits)

(* {2 Residue-exactness of the parallelized kernels}

   For each kernel, the pool-size-0 run is the reference; every other
   pool size must reproduce it bit-for-bit on every residue row. *)

let make_tables ~n bit_sizes =
  let primes = P.gen_chain ~bit_sizes ~two_n:(2 * n) in
  Array.of_list (List.map (fun p -> Ntt.make ~n p) primes)

let random_poly st ~tables = Rp.sample_uniform st ~tables

let kernel_cases =
  [
    ( "ntt round trip",
      fun st tables ->
        let p = random_poly st ~tables in
        Rp.to_coeff p;
        Rp.to_ntt p;
        Rp.to_coeff p;
        snapshot p );
    ( "pointwise mul",
      fun st tables ->
        let a = random_poly st ~tables and b = random_poly st ~tables in
        snapshot (Rp.mul a b) );
    ( "mul_acc",
      fun st tables ->
        let acc = random_poly st ~tables in
        let a = random_poly st ~tables and b = random_poly st ~tables in
        Rp.mul_acc acc a b;
        snapshot acc );
    ( "rescale",
      fun st tables ->
        let p = random_poly st ~tables in
        snapshot (Rp.rescale_many p 1) );
    ( "galois",
      fun st tables ->
        let p = random_poly st ~tables in
        snapshot (Rp.galois p 5) );
  ]

let prop_kernels_pool_invariant =
  QCheck2.Test.make ~name:"kernels residue-exact across pool sizes" ~count:15
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let tables = make_tables ~n:64 [ 28; 28; 27 ] in
      List.iter
        (fun (what, kernel) ->
          let run w =
            Pool.set_workers w;
            kernel (Random.State.make [| seed |]) tables
          in
          let before = Pool.workers () in
          Fun.protect
            ~finally:(fun () -> Pool.set_workers before)
            (fun () ->
              let expected = run 0 in
              List.iter (fun w -> check_rows what w expected (run w)) pool_sizes))
        kernel_cases;
      true)

(* Key switching end to end: decompose + apply span the digit loops,
   the Galois digit permutation and the modulus-down correction. *)
let test_key_switch_pool_invariant () =
  let ctx = Ctx.make ~ignore_security:true ~n:512 ~data_bits:[ 60; 40; 40 ] ~special_bits:[ 60 ] () in
  let secret_rng () = Random.State.make [| 41 |] in
  let _secret, keys = Keys.generate ctx (secret_rng ()) ~galois_elts:[ 5 ] in
  let galois_key = match Keys.find_galois keys 5 with Some k -> k | None -> assert false in
  let level = Ctx.chain_length ctx in
  let c = Rp.sample_uniform (Random.State.make [| 42 |]) ~tables:(Ctx.tables_for_level ctx level) in
  let run w =
    Pool.set_workers w;
    let d0, d1 = Keys.switch ctx keys.Keys.relin ~level c in
    let d = Keys.decompose ctx ~level c in
    let g0, g1 = Keys.apply_decomposed ~galois:5 ctx galois_key d in
    (snapshot d0, snapshot d1, snapshot g0, snapshot g1)
  in
  let before = Pool.workers () in
  Fun.protect
    ~finally:(fun () -> Pool.set_workers before)
    (fun () ->
      let e0, e1, eg0, eg1 = run 0 in
      List.iter
        (fun w ->
          let d0, d1, g0, g1 = run w in
          check_rows "switch d0" w e0 d0;
          check_rows "switch d1" w e1 d1;
          check_rows "hoisted galois d0" w eg0 g0;
          check_rows "hoisted galois d1" w eg1 g1)
        pool_sizes)

(* {2 Allocation budgets}

   Residue rows live off the OCaml heap (Bigarray), so the GC-visible
   words of one call stay bounded by the remaining scratch: the Garner
   digit buffer (n words per decompose) plus fixed-size bookkeeping. A
   re-boxing regression (per-element or per-row OCaml arrays back in
   the hot path) blows through these at once. Measured on the ambient
   pool (POOL_WORKERS) over one call after one warm-up call;
   [Gc.allocated_bytes] counts minor and major allocation, so rows
   above the minor-heap cutoff are seen. *)
let words_of_one_call f =
  f ();
  let b0 = Gc.allocated_bytes () in
  f ();
  (Gc.allocated_bytes () -. b0) /. 8.0

let test_allocation_budgets () =
  List.iter
    (fun log_n ->
      let n = 1 lsl log_n in
      let ctx = Ctx.make ~ignore_security:true ~n ~data_bits:[ 60; 60; 60 ] ~special_bits:[ 60 ] () in
      let rng = Random.State.make [| 23; log_n |] in
      let _, keys = Keys.generate ctx rng ~galois_elts:[] in
      let level = Ctx.chain_length ctx in
      let c = Rp.sample_uniform rng ~tables:(Ctx.tables_for_level ctx level) in
      let tables = make_tables ~n [ 30; 30; 30 ] in
      let a = random_poly rng ~tables and b = random_poly rng ~tables in
      let check what budget f =
        let words = words_of_one_call f in
        if words > budget then
          Alcotest.failf "%s at N=2^%d: %.0f words/op exceeds budget %.0f" what log_n words budget
      in
      check "key switch" (float_of_int (8 * n) +. 65536.0) (fun () ->
          ignore (Keys.switch ctx keys.Keys.relin ~level c));
      check "pointwise multiply" 4096.0 (fun () -> ignore (Rp.mul a b)))
    [ 8; 12 ]

(* {2 Composition with the graph executor}

   The executor's worker domains submit their kernel loops to the same
   pool. With the pool active, fault-injected worker death must still
   retry to a bit-exact result and never deadlock (caller-runs means a
   dead graph worker cannot strand a pool job, and pool workers never
   hold graph-scheduler locks). *)

let test_executor_faults_compose_with_pool () =
  let b = B.create ~vec_size:16 () in
  let x = B.input b ~scale:30 "x" in
  let r1 = B.rotate_left x 1 in
  let r2 = B.rotate_left x 2 in
  let s = B.add r1 r2 in
  B.output b "out" ~scale:30 (B.mul s s);
  let c = Compile.run (B.program b) in
  let bindings = [ ("x", Reference.Vec (Array.init 16 (fun i -> Float.sin (float_of_int i) /. 4.0))) ] in
  let engine = Executor.prepare ~seed:7 ~ignore_security:true ~log_n:10 c bindings in
  let instructions =
    List.filter (fun n -> match n.Ir.op with Ir.Input _ -> false | _ -> true) c.Compile.program.Ir.all_nodes
  in
  let before = Pool.workers () in
  Fun.protect
    ~finally:(fun () -> Pool.set_workers before)
    (fun () ->
      Pool.set_workers 0;
      let baseline = Parallel.execute_on ~workers:2 engine c in
      List.iter
        (fun w ->
          Pool.set_workers w;
          (* Fault-free first: graph workers over an active pool. *)
          let r = Parallel.execute_on ~workers:2 engine c in
          (* Then a scripted death at every instruction in turn. *)
          let faulted =
            List.map
              (fun n ->
                let fault = Fault.plan [ (n.Ir.id, [ Fault.Die ]) ] in
                let fr = Parallel.execute_on ~fault ~workers:2 engine c in
                Alcotest.(check int)
                  (Printf.sprintf "pool %d: death injected at node %d" w n.Ir.id)
                  1 (Fault.counters fault).Fault.deaths;
                fr)
              instructions
          in
          List.iter
            (fun (name, v) ->
              let check_against what got =
                let gv = List.assoc name got.Parallel.outputs in
                Array.iteri
                  (fun i xv ->
                    if xv <> gv.(i) then
                      Alcotest.failf "pool %d: %s: output %s slot %d differs" w what name i)
                  v
              in
              check_against "fault-free" r;
              List.iteri (fun k fr -> check_against (Printf.sprintf "death #%d" k) fr) faulted)
            baseline.Parallel.outputs)
        pool_sizes)

(* {2 Instrumentation} *)

let test_stats_and_efficiency () =
  let before = Pool.workers () in
  Fun.protect
    ~finally:(fun () -> Pool.set_workers before)
    (fun () ->
      Pool.set_workers 2;
      Pool.reset_stats ();
      let s0 = Pool.stats () in
      Alcotest.(check int) "reset chunked" 0 s0.Pool.chunked_calls;
      Alcotest.(check int) "reset inline" 0 s0.Pool.inline_calls;
      Alcotest.(check (float 0.0)) "efficiency with no calls" 1.0 (Pool.efficiency ~lanes:2 s0);
      let sink = Array.make 4096 0 in
      Pool.parallel_for ~chunk:64 ~lo:0 ~hi:4096 (fun lo hi ->
          for i = lo to hi - 1 do
            sink.(i) <- i * i
          done);
      Pool.parallel_for ~lo:0 ~hi:1 (fun _ _ -> ());
      let s = Pool.stats () in
      Alcotest.(check int) "one chunked call" 1 s.Pool.chunked_calls;
      Alcotest.(check int) "one inline call" 1 s.Pool.inline_calls;
      Alcotest.(check bool) "wall time measured" true (s.Pool.wall_seconds > 0.0);
      Alcotest.(check bool) "busy time measured" true (s.Pool.busy_seconds > 0.0);
      let e = Pool.efficiency ~lanes:2 s in
      Alcotest.(check bool) "efficiency in (0, 1]" true (e > 0.0 && e <= 1.0))

let () =
  let qt t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "pool"
    [
      ( "primitive",
        [
          qt prop_parallel_for_covers;
          Alcotest.test_case "chunk exception propagates" `Quick test_exception_propagates;
          Alcotest.test_case "nested loops run inline" `Quick test_nested_runs_inline;
          Alcotest.test_case "stats and efficiency" `Quick test_stats_and_efficiency;
        ] );
      ( "kernels",
        [
          qt prop_kernels_pool_invariant;
          Alcotest.test_case "key switch pool-invariant" `Quick test_key_switch_pool_invariant;
          Alcotest.test_case "words/op within allocation budgets" `Quick test_allocation_budgets;
        ] );
      ( "composition",
        [
          Alcotest.test_case "executor faults compose with pool" `Quick test_executor_faults_compose_with_pool;
        ] );
    ]
