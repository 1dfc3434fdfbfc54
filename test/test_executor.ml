(* End-to-end: compile with EVA, execute on the RNS-CKKS scheme, compare
   against the reference (id-scheme) semantics. This is the paper's core
   correctness claim: generated programs never trip a scheme-level
   exception and compute the same function. *)

module B = Eva_core.Builder
module Ir = Eva_core.Ir
module Compile = Eva_core.Compile
module Reference = Eva_core.Reference
module Executor = Eva_core.Executor
module Passes = Eva_core.Passes

let check_close ~eps msg expect actual =
  List.iter
    (fun (name, ve) ->
      let va = List.assoc name actual in
      Array.iteri
        (fun i e ->
          if Float.abs (e -. va.(i)) > eps then
            Alcotest.failf "%s/%s: slot %d: expected %.6f got %.6f" msg name i e va.(i))
        ve)
    expect

let run_both ?waterline ?policy ~log_n p bindings =
  let c = Compile.run ?waterline ?policy p in
  let expect = Reference.execute p bindings in
  let r = Executor.execute ~ignore_security:true ~log_n c bindings in
  (expect, r)

let vec n f = Reference.Vec (Array.init n f)

let test_x2_plus_x () =
  let b = B.create ~vec_size:64 () in
  let x = B.input b ~scale:30 "x" in
  let open B.Infix in
  B.output b "out" ~scale:30 ((x * x) + x);
  let bindings = [ ("x", vec 64 (fun i -> (float_of_int i /. 64.0) -. 0.5)) ] in
  let expect, r = run_both ~log_n:10 (B.program b) bindings in
  check_close ~eps:1e-4 "x^2+x" expect r.Executor.outputs

let test_x2y3_deep () =
  let b = B.create ~vec_size:32 () in
  let x = B.input b ~scale:60 "x" in
  let y = B.input b ~scale:30 "y" in
  let open B.Infix in
  B.output b "out" ~scale:30 (x * x * (y * y * y));
  let bindings =
    [ ("x", vec 32 (fun i -> Float.sin (float_of_int i) /. 2.0)); ("y", vec 32 (fun i -> Float.cos (float_of_int i))) ]
  in
  let expect, r = run_both ~waterline:30 ~log_n:10 (B.program b) bindings in
  check_close ~eps:1e-3 "x2y3" expect r.Executor.outputs

let test_rotations_and_constants () =
  let b = B.create ~vec_size:32 () in
  let x = B.input b ~scale:30 "x" in
  let w = B.const_vector b ~scale:20 (Array.init 32 (fun i -> 0.1 *. float_of_int (i mod 4))) in
  let open B.Infix in
  B.output b "out" ~scale:30 (((x << 3) * w) + (x >> 2));
  let bindings = [ ("x", vec 32 (fun i -> float_of_int (i mod 8) /. 8.0)) ] in
  let expect, r = run_both ~log_n:10 (B.program b) bindings in
  check_close ~eps:1e-3 "rot" expect r.Executor.outputs

let test_tiled_input_rotation () =
  (* vec_size 16 but slots 2^9: inputs are tiled; right-rotation must wrap
     at the slot count, not vec_size. *)
  let b = B.create ~vec_size:16 () in
  let x = B.input b ~scale:30 "x" in
  let open B.Infix in
  B.output b "l" ~scale:30 (x << 5);
  B.output b "r" ~scale:30 (x >> 3);
  let bindings = [ ("x", vec 16 float_of_int) ] in
  let expect, r = run_both ~log_n:10 (B.program b) bindings in
  check_close ~eps:1e-3 "tiled rotation" expect r.Executor.outputs

let test_plain_mixed_graph () =
  (* Plaintext subgraphs (vector-vector arithmetic) mixed with cipher. *)
  let b = B.create ~vec_size:32 () in
  let x = B.input b ~scale:30 "x" in
  let v = B.vector_input b ~scale:20 "v" in
  let s = B.scalar_input b ~scale:10 "s" in
  let open B.Infix in
  let plain = (v * s) + v in
  B.output b "out" ~scale:30 ((x * plain) + v);
  let bindings =
    [
      ("x", vec 32 (fun i -> 0.5 -. (float_of_int (i mod 5) /. 10.0)));
      ("v", vec 32 (fun i -> float_of_int (i mod 3) /. 3.0));
      ("s", Reference.Scal 0.25);
    ]
  in
  let expect, r = run_both ~log_n:10 (B.program b) bindings in
  check_close ~eps:1e-3 "mixed" expect r.Executor.outputs

let test_match_scale_executes () =
  (* Figure 3: the match-scale constant multiply must execute cleanly. *)
  let b = B.create ~vec_size:32 () in
  let x = B.input b ~scale:30 "x" in
  let y = B.input b ~scale:25 "y" in
  let open B.Infix in
  B.output b "out" ~scale:30 ((x * x) + y);
  let bindings =
    [ ("x", vec 32 (fun i -> float_of_int (i mod 7) /. 7.0)); ("y", vec 32 (fun i -> 0.3 -. (float_of_int (i mod 2) /. 5.0))) ]
  in
  let expect, r = run_both ~log_n:10 (B.program b) bindings in
  check_close ~eps:1e-3 "match scale" expect r.Executor.outputs

let test_modswitch_paths () =
  (* x^2*y + x forces a modswitch on the x tail under the eager policy. *)
  let bindings =
    [
      ("x", vec 32 (fun i -> Float.sin (float_of_int (3 * i)) /. 2.0));
      ("y", vec 32 (fun i -> Float.cos (float_of_int i) /. 2.0));
    ]
  in
  let b = B.create ~vec_size:32 () in
  let x = B.input b ~scale:40 "x" in
  let y = B.input b ~scale:40 "y" in
  let open B.Infix in
  B.output b "out" ~scale:30 ((x * x * y) + x);
  (* Eager and lazy policies must both execute correctly. *)
  List.iter
    (fun policy ->
      let expect, r = run_both ~policy ~log_n:10 (B.program b) bindings in
      check_close ~eps:1e-3 "modswitch" expect r.Executor.outputs)
    [ Passes.Eva; Passes.Lazy_insertion ]

let test_deep_chain () =
  (* Depth 5: x^32 at scale 40 with waterline rescaling throughout. *)
  let b = B.create ~vec_size:16 () in
  let x = B.input b ~scale:40 "x" in
  B.output b "out" ~scale:30 (B.power x 32);
  let bindings = [ ("x", vec 16 (fun i -> 0.8 +. (float_of_int (i mod 4) /. 50.0))) ] in
  let expect, r = run_both ~log_n:11 (B.program b) bindings in
  check_close ~eps:2e-2 "x^32" expect r.Executor.outputs

let test_determinism () =
  let b = B.create ~vec_size:16 () in
  let x = B.input b ~scale:30 "x" in
  let open B.Infix in
  B.output b "out" ~scale:30 (x * x) ;
  let c = Compile.run (B.program b) in
  let bindings = [ ("x", vec 16 (fun i -> float_of_int i /. 16.0)) ] in
  let r1 = Executor.execute ~seed:7 ~ignore_security:true ~log_n:10 c bindings in
  let r2 = Executor.execute ~seed:7 ~ignore_security:true ~log_n:10 c bindings in
  Alcotest.(check (array (float 0.0))) "same seed, same ciphertext noise"
    (List.assoc "out" r1.Executor.outputs) (List.assoc "out" r2.Executor.outputs)

let test_missing_input () =
  let b = B.create ~vec_size:16 () in
  let x = B.input b ~scale:30 "x" in
  B.output b "out" ~scale:30 x;
  let c = Compile.run (B.program b) in
  Alcotest.(check bool) "missing reported as EVA-E501" true
    (try
       ignore (Executor.execute ~ignore_security:true ~log_n:10 c []);
       false
     with Eva_diag.Diag.Error d ->
       d.Eva_diag.Diag.code = Eva_diag.Diag.exec_missing_inputs
       && d.Eva_diag.Diag.layer = Eva_diag.Diag.Execute)

(* A [keygen] engine binds nothing: running it reports every unbound
   input as EVA-E501 at any worker count, and once bound it computes
   exactly what a [prepare]d engine does (keys depend on the seed only). *)
let test_keygen_engine () =
  let b = B.create ~vec_size:16 () in
  let x = B.input b ~scale:30 "x" and y = B.input b ~scale:30 "y" in
  B.output b "out" ~scale:30 (B.add (B.mul x y) x);
  let c = Compile.run (B.program b) in
  let e = Executor.keygen ~seed:3 ~ignore_security:true ~log_n:10 c in
  List.iter
    (fun workers ->
      match Executor.run_graph ~workers e c with
      | _ -> Alcotest.failf "unbound engine ran at %d worker(s)" workers
      | exception Eva_diag.Diag.Error d ->
          Alcotest.(check int) "EVA-E501" Eva_diag.Diag.exec_missing_inputs d.Eva_diag.Diag.code;
          Alcotest.(check string) "every unbound input named" "no bound value for inputs \"x\", \"y\""
            d.Eva_diag.Diag.message)
    [ 1; 2 ];
  let bindings = [ ("x", vec 16 (fun i -> float_of_int i /. 16.0)); ("y", vec 16 (fun _ -> 0.5)) ] in
  let run e =
    let e = Executor.rebind ~seed:9 e c bindings in
    List.assoc "out" (fst (Executor.decode e (Executor.run_graph e c)))
  in
  let prepared = Executor.prepare ~seed:3 ~ignore_security:true ~log_n:10 c bindings in
  Alcotest.(check (array (float 0.0))) "keygen + rebind = prepare + rebind" (run prepared) (run e)

(* A scheme-layer failure on the one-worker path is anchored to the node
   that raised it, as at every worker count: the scale-mismatched add
   (node 2) surfaces as EVA-E602 carrying its id, never as a raw scheme
   exception. *)
let test_failure_anchored_to_node () =
  let p = Ir.create_program ~vec_size:16 () in
  let x = Ir.add_node ~decl_scale:30 p (Ir.Input (Ir.Cipher, "x")) [] in
  let y = Ir.add_node ~decl_scale:40 p (Ir.Input (Ir.Cipher, "y")) [] in
  let s = Ir.add_node p Ir.Add [ x; y ] in
  ignore (Ir.add_node ~decl_scale:30 p (Ir.Output "o") [ s ]);
  let params = Eva_core.Params.select p in
  let c = { Compile.program = p; params; policy = Passes.Eva; s_f = 60; lanes = 1; packing = None } in
  let bindings = [ ("x", Reference.Vec [| 0.5 |]); ("y", Reference.Vec [| 0.5 |]) ] in
  match Executor.execute ~ignore_security:true ~log_n:10 c bindings with
  | _ -> Alcotest.fail "scale mismatch executed"
  | exception Eva_diag.Diag.Error d ->
      Alcotest.(check int) "EVA-E602" Eva_diag.Diag.crypto_scale d.Eva_diag.Diag.code;
      Alcotest.(check (option int)) "anchored to the add" (Some 2) d.Eva_diag.Diag.node_id

let test_timings_recorded () =
  let b = B.create ~vec_size:16 () in
  let x = B.input b ~scale:30 "x" in
  B.output b "out" ~scale:30 (B.add (B.mul x x) x);
  let c = Compile.run (B.program b) in
  let r = Executor.execute ~ignore_security:true ~log_n:10 c [ ("x", vec 16 (fun _ -> 0.5)) ] in
  let t = r.Executor.timings in
  Alcotest.(check bool) "per-node entries" true (List.length t.Executor.per_node >= Ir.node_count c.Compile.program - 1);
  Alcotest.(check bool) "execute time positive" true (t.Executor.execute_seconds >= 0.0)

let test_op_counts () =
  (* The per-op counters in timings must agree with the compiled graph:
     one count per FHE op that actually produced a ciphertext. *)
  let b = B.create ~vec_size:16 () in
  let x = B.input b ~scale:30 "x" in
  let y = B.input b ~scale:30 "y" in
  let open B.Infix in
  B.output b "out" ~scale:30 (((x * y) << 1) + (x >> 2));
  let c = Compile.run (B.program b) in
  let static op = List.length (List.filter (fun n -> n.Ir.op = op) c.Compile.program.Ir.all_nodes) in
  let r = Executor.execute ~ignore_security:true ~log_n:10 c
      [ ("x", vec 16 (fun i -> float_of_int i /. 16.0)); ("y", vec 16 (fun _ -> 0.5)) ]
  in
  let ops = r.Executor.timings.Executor.op_counts in
  Alcotest.(check int) "multiplies" (static Ir.Multiply) ops.Executor.multiplies;
  Alcotest.(check int) "relinearizations" (static Ir.Relinearize) ops.Executor.relinearizations;
  Alcotest.(check int) "one relin for the one ct x ct product" 1 ops.Executor.relinearizations;
  Alcotest.(check int) "rotations" 2 ops.Executor.rotations;
  Alcotest.(check int) "rescales"
    (List.length
       (List.filter
          (fun n -> match n.Ir.op with Ir.Rescale _ -> true | _ -> false)
          c.Compile.program.Ir.all_nodes))
    ops.Executor.rescales

let test_plain_operand_passthrough () =
  (* FHE-specific instructions are no-ops on plaintext operands. The
     compiler never emits them on plain paths, so inject them after
     compilation: the executor must pass the value through (uniformly,
     for relinearize and modswitch alike) rather than fault. *)
  let b = B.create ~vec_size:16 () in
  let x = B.input b ~scale:30 "x" in
  let v = B.vector_input b ~scale:20 "v" in
  B.output b "out" ~scale:30 (B.mul x v);
  let c = Compile.run (B.program b) in
  let p = c.Compile.program in
  let vn =
    List.find
      (fun n -> match n.Ir.op with Ir.Input (t, "v") -> t <> Ir.Cipher | _ -> false)
      p.Ir.all_nodes
  in
  let r1 = Ir.insert_between p vn Ir.Relinearize [] in
  ignore (Ir.insert_between p r1 Ir.Mod_switch []);
  let bind = [ ("x", vec 16 (fun i -> 0.5 -. (float_of_int i /. 32.0))); ("v", vec 16 (fun i -> float_of_int (i mod 3))) ] in
  let expect = Reference.execute p bind in
  let r = Executor.execute ~ignore_security:true ~log_n:10 c bind in
  Alcotest.(check bool) "plain passthrough matches reference" true
    (Executor.max_abs_error r.Executor.outputs expect < 1e-3);
  (* Passthroughs are not ciphertext work: the counters see none of it. *)
  Alcotest.(check int) "no relin counted" 0 r.Executor.timings.Executor.op_counts.Executor.relinearizations

(* The content-keyed plaintext cache: two runs on one engine encode each
   distinct (values, level, scale) plaintext once, so the second run is
   all hits and the miss count does not grow. The cache is engine state
   from keygen on: runs on a [rebind] engine (fresh inputs, no seed) and
   on a [rebind_batched] engine stay warm, and the counters keep counting
   since keygen. *)
let test_pt_cache_counters () =
  let b = B.create ~vec_size:16 () in
  let x = B.input b ~scale:30 "x" in
  let m = B.const_vector b ~scale:30 (Array.init 16 (fun i -> if i land 1 = 0 then 1.0 else 0.0)) in
  B.output b "out" ~scale:30 (B.add (B.mul x m) (B.mul (B.rotate_left x 1) m));
  let c = Compile.run (B.program b) in
  let e = Executor.prepare ~ignore_security:true ~log_n:10 c [ ("x", vec 16 (fun _ -> 0.5)) ] in
  ignore (Executor.run_graph e c);
  let h1, m1 = Executor.pt_cache_counters e in
  Alcotest.(check bool) "first run misses" true (m1 > 0);
  ignore (Executor.run_graph e c);
  let h2, m2 = Executor.pt_cache_counters e in
  Alcotest.(check int) "second run adds no misses" m1 m2;
  Alcotest.(check bool) "second run hits" true (h2 > h1);
  let lookups = h2 - h1 in
  let warm_run what e' ~before =
    ignore (Executor.run_graph e' c);
    let h, m = Executor.pt_cache_counters e' in
    Alcotest.(check (pair int int)) what (before + lookups, m2) (h, m);
    h
  in
  let e_rebound = Executor.rebind e c [ ("x", vec 16 (fun i -> float_of_int i /. 16.0)) ] in
  let h3 = warm_run "rebind run is all hits" e_rebound ~before:h2 in
  let e_batched =
    Executor.rebind_batched ~seeds:[| 7 |] e c [| [ ("x", vec 16 (fun i -> 1.0 -. (float_of_int i /. 16.0))) ] |]
  in
  ignore (warm_run "rebind_batched run is all hits" e_batched ~before:h3)

(* Two domains encode overlapping contents at once. Every result must
   equal a sequential [Eval.encode] bit for bit, every lookup counts
   exactly once, and a sequential pass afterwards is all hits. *)
let test_pt_cache_concurrent_encode () =
  let b = B.create ~vec_size:16 () in
  let x = B.input b ~scale:30 "x" in
  B.output b "out" ~scale:30 (B.mul x x);
  let c = Compile.run (B.program b) in
  let e = Executor.keygen ~ignore_security:true ~log_n:10 c in
  let params = c.Compile.params in
  let ctx =
    Eva_ckks.Context.make ~ignore_security:true ~n:1024 ~data_bits:params.Eva_core.Params.context_data_bits
      ~special_bits:params.Eva_core.Params.special_bits ()
  in
  let contents = Array.init 24 (fun k -> Array.init 16 (fun i -> float_of_int ((k * 16) + i) /. 512.0)) in
  let scale = Float.ldexp 1.0 30 in
  let expected = Array.map (Eva_ckks.Eval.encode ctx ~level:1 ~scale) contents in
  let same p q =
    let open Eva_ckks.Eval in
    let module P = Eva_poly.Rns_poly in
    p.pt_level = q.pt_level
    && Int64.bits_of_float p.pt_scale = Int64.bits_of_float q.pt_scale
    && P.is_ntt p.poly = P.is_ntt q.poly
    && Array.for_all2 Eva_rns.Rowvec.equal (P.rows p.poly) (P.rows q.poly)
  in
  (* Domain 0 walks the contents forwards, domain 1 backwards: they
     overlap on every content, twice over. *)
  let n = Array.length contents in
  let order d = List.init (2 * n) (fun i -> if d = 0 then i mod n else n - 1 - (i mod n)) in
  let work d () =
    List.map (fun k -> (k, Executor.encode_cached e contents.(k) ~level:1 ~scale)) (order d)
  in
  let other = Domain.spawn (work 1) in
  let mine = work 0 () in
  let results = mine @ Domain.join other in
  List.iter
    (fun (k, pt) ->
      if not (same pt expected.(k)) then Alcotest.failf "content %d: cached encoding differs from Eval.encode" k)
    results;
  let h1, m1 = Executor.pt_cache_counters e in
  Alcotest.(check int) "one hit or miss per lookup" (List.length results) (h1 + m1);
  Array.iter (fun v -> ignore (Executor.encode_cached e v ~level:1 ~scale)) contents;
  let h2, m2 = Executor.pt_cache_counters e in
  Alcotest.(check (pair int int)) "sequential pass is all hits" (h1 + n, m1) (h2, m2)

(* Eviction under churn: a serving workload re-encodes a few hot model
   plaintexts on every request while a trickle of one-off vectors flows
   past. Second-chance eviction must keep the referenced hot entries
   resident even as the one-offs overflow the capacity several times
   over; the old wipe-at-capacity behaviour cold-restarted the cache
   periodically and re-missed the hot set after every wipe. *)
let test_pt_cache_survives_churn () =
  let b = B.create ~vec_size:16 () in
  let x = B.input b ~scale:30 "x" in
  B.output b "out" ~scale:30 (B.mul x x);
  let c = Compile.run (B.program b) in
  let e = Executor.prepare ~ignore_security:true ~log_n:10 c [ ("x", vec 16 (fun _ -> 0.5)) ] in
  let h0, m0 = Executor.pt_cache_counters e in
  let hot = Array.init 4 (fun k -> Array.init 16 (fun i -> float_of_int ((16 * k) + i) /. 64.0)) in
  let rounds = Executor.pt_cache_capacity + 200 in
  for round = 0 to rounds - 1 do
    Array.iter (fun v -> ignore (Executor.encode_cached e v ~level:1 ~scale:30.0)) hot;
    let cold = Array.init 16 (fun i -> float_of_int ((16 * round) + i) /. 16384.0) in
    ignore (Executor.encode_cached e cold ~level:1 ~scale:30.0)
  done;
  let h1, m1 = Executor.pt_cache_counters e in
  (* Every hot encode after round 0 must hit: 4 first-time misses, then
     4 * (rounds - 1) hits. The cold one-offs all miss. *)
  Alcotest.(check int) "hot set stays resident" (4 * (rounds - 1)) (h1 - h0);
  Alcotest.(check int) "only first-touch misses" (4 + rounds) (m1 - m0)

(* A plaintext that fails to encode (EVA-E605: too large for the level's
   modulus) raises to its caller and leaves the cache usable: the
   failure must not leave the cache lock held. *)
let test_pt_cache_survives_failed_encode () =
  let b = B.create ~vec_size:16 () in
  let x = B.input b ~scale:30 "x" in
  B.output b "out" ~scale:30 (B.mul x x);
  let c = Compile.run (B.program b) in
  let e = Executor.keygen ~ignore_security:true ~log_n:10 c in
  let scale = Float.ldexp 1.0 30 in
  (match Executor.encode_cached e (Array.make 16 1e300) ~level:1 ~scale with
  | _ -> Alcotest.fail "1e300 encoded"
  | exception Eva_diag.Diag.Error d -> Alcotest.(check int) "E605" 605 d.Eva_diag.Diag.code);
  let v = Array.init 16 (fun i -> float_of_int i /. 16.0) in
  ignore (Executor.encode_cached e v ~level:1 ~scale);
  ignore (Executor.encode_cached e v ~level:1 ~scale);
  Alcotest.(check (pair int int)) "counters after the failure" (1, 2) (Executor.pt_cache_counters e)

let test_rebind_reuses_keys () =
  (* One keygen, many inputs: rebind must give the same results as fresh
     prepare for each image. *)
  let b = B.create ~vec_size:16 () in
  let x = B.input b ~scale:30 "x" in
  let open B.Infix in
  B.output b "out" ~scale:30 ((x * x) + x);
  let c = Compile.run (B.program b) in
  let input1 = [ ("x", vec 16 (fun i -> float_of_int i /. 16.0)) ] in
  let input2 = [ ("x", vec 16 (fun i -> 1.0 -. (float_of_int i /. 8.0))) ] in
  let e1 = Executor.prepare ~ignore_security:true ~log_n:10 c input1 in
  let out1, _ = Executor.decode e1 (Executor.run_graph e1 c) in
  let e2 = Executor.rebind e1 c input2 in
  let out2, _ = Executor.decode e2 (Executor.run_graph e2 c) in
  let expect2 = Reference.execute (c.Compile.program) input2 in
  Alcotest.(check bool) "second input correct" true (Executor.max_abs_error out2 expect2 < 1e-3);
  let expect1 = Reference.execute (c.Compile.program) input1 in
  Alcotest.(check bool) "first input correct" true (Executor.max_abs_error out1 expect1 < 1e-3)

(* [rebind] re-aims the engine at the program it is given: an engine
   prepared for a width-8 program, rebound to the same shape at width
   16, must answer all 16 slots and match the reference. *)
let test_rebind_reaims_engine () =
  let shifted_product vs =
    let b = B.create ~vec_size:vs () in
    let x = B.input b ~scale:30 "x" in
    B.output b "out" ~scale:30 (B.rotate_left (B.mul x (B.const_scalar b ~scale:30 0.5)) 1);
    Compile.run (B.program b)
  in
  let ca = shifted_product 8 and cb = shifted_product 16 in
  let e =
    Executor.prepare ~ignore_security:true ~log_n:10 ~extra_rotations:[ 1 ] ca
      [ ("x", vec 8 (fun i -> float_of_int i /. 8.0)) ]
  in
  let input = [ ("x", vec 16 (fun i -> 1.0 -. (float_of_int i /. 16.0))) ] in
  let e = Executor.rebind ~seed:3 e cb input in
  let out, _ = Executor.decode e (Executor.run_graph e cb) in
  Alcotest.(check int) "all 16 slots" 16 (Array.length (List.assoc "out" out));
  let expect = Reference.execute cb.Compile.program input in
  Alcotest.(check bool) "matches reference" true (Executor.max_abs_error out expect < 1e-3)

let prop_random_end_to_end =
  QCheck2.Test.make ~name:"random programs: CKKS matches reference" ~count:15
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let b = B.create ~vec_size:16 () in
      let x = B.input b ~scale:30 "x" in
      let y = B.input b ~scale:30 "y" in
      let pool = ref [ x; y ] in
      for _ = 1 to 6 do
        let pick () = List.nth !pool (Random.State.int st (List.length !pool)) in
        let a = pick () in
        let e =
          match Random.State.int st 5 with
          | 0 -> B.add a (pick ())
          | 1 -> B.sub a (pick ())
          | 2 -> B.mul a (B.const_scalar b ~scale:15 0.5)
          | 3 -> B.rotate_left a (1 + Random.State.int st 15)
          | _ -> B.neg a
        in
        pool := e :: !pool
      done;
      (* One ciphertext multiply to exercise relinearization. *)
      let top = B.mul (List.hd !pool) (List.nth !pool 1) in
      B.output b "out" ~scale:30 top;
      let p = B.program b in
      let bindings =
        [
          ("x", vec 16 (fun _ -> Random.State.float st 1.0 -. 0.5));
          ("y", vec 16 (fun _ -> Random.State.float st 1.0 -. 0.5));
        ]
      in
      let expect, r = run_both ~log_n:10 p bindings in
      Executor.max_abs_error r.Executor.outputs expect < 1e-2)

let () =
  let qt t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "executor"
    [
      ( "end to end",
        [
          Alcotest.test_case "x^2+x" `Quick test_x2_plus_x;
          Alcotest.test_case "x^2 y^3" `Quick test_x2y3_deep;
          Alcotest.test_case "rotations & constants" `Quick test_rotations_and_constants;
          Alcotest.test_case "tiled rotation" `Quick test_tiled_input_rotation;
          Alcotest.test_case "mixed plain/cipher" `Quick test_plain_mixed_graph;
          Alcotest.test_case "match scale" `Quick test_match_scale_executes;
          Alcotest.test_case "modswitch paths" `Quick test_modswitch_paths;
          Alcotest.test_case "deep chain x^32" `Quick test_deep_chain;
        ] );
      ( "infrastructure",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "rebind reuses keys" `Quick test_rebind_reuses_keys;
          Alcotest.test_case "rebind re-aims the engine" `Quick test_rebind_reaims_engine;
          Alcotest.test_case "missing input" `Quick test_missing_input;
          Alcotest.test_case "keygen engine binds nothing" `Quick test_keygen_engine;
          Alcotest.test_case "failure anchored to its node" `Quick test_failure_anchored_to_node;
          Alcotest.test_case "timings" `Quick test_timings_recorded;
          Alcotest.test_case "op counts" `Quick test_op_counts;
          Alcotest.test_case "plain operand passthrough" `Quick test_plain_operand_passthrough;
          Alcotest.test_case "pt cache counters" `Quick test_pt_cache_counters;
          Alcotest.test_case "pt cache survives churn" `Quick test_pt_cache_survives_churn;
          Alcotest.test_case "pt cache concurrent encode" `Quick test_pt_cache_concurrent_encode;
          Alcotest.test_case "pt cache survives failed encode" `Quick test_pt_cache_survives_failed_encode;
        ] );
      ("property", [ qt prop_random_end_to_end ]);
    ]
