(* Compiler tests built around the paper's worked examples:
   Figure 2 (x^2 y^3), Figure 3 (x^2 + x), Figure 5 (x^2 + x + x). *)

module B = Eva_core.Builder
module Ir = Eva_core.Ir
module Passes = Eva_core.Passes
module Analysis = Eva_core.Analysis
module Validate = Eva_core.Validate
module Compile = Eva_core.Compile
module Params = Eva_core.Params
module Reference = Eva_core.Reference

let count_op p pred = List.length (List.filter (fun n -> pred n.Ir.op) p.Ir.all_nodes)
let rescales p = count_op p (function Ir.Rescale _ -> true | _ -> false)
let modswitches p = count_op p (function Ir.Mod_switch -> true | _ -> false)
let relins p = count_op p (function Ir.Relinearize -> true | _ -> false)

(* Figure 2(a): x^2 y^3 with x at 2^60 and y at 2^30. *)
let fig2_input () =
  let b = B.create ~name:"x2y3" ~vec_size:8 () in
  let x = B.input b ~scale:60 "x" in
  let y = B.input b ~scale:30 "y" in
  let open B.Infix in
  let x2 = x * x in
  let y3 = y * y * y in
  B.output b "out" ~scale:30 (x2 * y3);
  B.program b

(* Figure 3(a): x^2 + x at 2^30. *)
let fig3_input () =
  let b = B.create ~name:"x2px" ~vec_size:8 () in
  let x = B.input b ~scale:30 "x" in
  let open B.Infix in
  B.output b "out" ~scale:30 ((x * x) + x);
  B.program b

(* Figure 5: x^2 + x + x at 2^60. *)
let fig5_input () =
  let b = B.create ~name:"x2pxpx" ~vec_size:8 () in
  let x = B.input b ~scale:60 "x" in
  let open B.Infix in
  B.output b "out" ~scale:30 ((x * x) + x + x);
  B.program b

let test_fig2_waterline () =
  (* With s_w = 2^30 (the paper's assumption), waterline rescale places
     rescales after x*x, y^2*y and the final multiply, and constraint 1
     holds without any modswitch: Figure 2(d). *)
  let p = Ir.copy (fig2_input ()) in
  ignore (Passes.waterline_rescale ~waterline:30 p);
  Alcotest.(check int) "rescales" 3 (rescales p);
  ignore (Passes.eager_modswitch p);
  Alcotest.(check int) "no modswitch needed" 0 (modswitches p);
  ignore (Passes.match_scale p);
  ignore (Passes.relinearize p);
  Validate.check_transformed p;
  (* Output chain [60; 60], output scale 2^30. *)
  let chains = Analysis.chains p in
  let out = List.hd (Ir.outputs p) in
  Alcotest.(check (list (option int))) "chain" [ Some 60; Some 60 ] (Hashtbl.find chains out.Ir.id);
  let scales = Analysis.scales p in
  Alcotest.(check int) "output scale" 30 (Hashtbl.find scales out.Ir.id)

let test_fig2_always_rescale_needs_modswitch () =
  (* Figure 2(b): always-rescale leaves non-conforming chains. Level
     matching alone cannot repair them when the rescale values differ
     across paths (2^60 on the x path, 2^30 on the y path at the same
     position) — the paper omits the multi-pass modswitch rule this would
     need, which is why the production pipeline fixes the divisor at s_f. *)
  let p = Ir.copy (fig2_input ()) in
  ignore (Passes.always_rescale p);
  Alcotest.(check int) "rescale after every multiply" 4 (rescales p);
  let non_conforming q =
    try
      ignore (Analysis.chains q);
      false
    with Analysis.Analysis_error _ -> true
  in
  Alcotest.(check bool) "chains do not conform" true (non_conforming p);
  ignore (Passes.lazy_modswitch p);
  Alcotest.(check bool) "level matching alone cannot repair them" true (non_conforming p)

let test_fig2_compile_params () =
  (* End-to-end Algorithm 1 on Figure 2 with the paper's waterline. *)
  let c = Compile.run ~waterline:30 (fig2_input ()) in
  (* bit sizes: special 60, chain 60,60, then factors of 2^(30+30). *)
  Alcotest.(check (list int)) "bit sizes" [ 60; 60; 60; 60 ] c.Compile.params.Params.bit_sizes;
  Alcotest.(check int) "log Q" 240 c.Compile.params.Params.log_q;
  Alcotest.(check int) "log N from security table" 14 c.Compile.params.Params.log_n

let test_fig3_match_scale () =
  let c = Compile.run (fig3_input ()) in
  let p = c.Compile.program in
  (* Figure 3(c): no rescale, no modswitch, one scale-matching multiply by
     a constant 1 at 2^30. *)
  Alcotest.(check int) "no rescale" 0 (rescales p);
  Alcotest.(check int) "no modswitch" 0 (modswitches p);
  Alcotest.(check int) "one relinearize" 1 (relins p);
  let match_consts =
    List.filter
      (fun n -> match n.Ir.op with Ir.Constant (Ir.Const_scalar 1.0) -> true | _ -> false)
      p.Ir.all_nodes
  in
  Alcotest.(check int) "one matching constant" 1 (List.length match_consts);
  Alcotest.(check int) "at the difference scale" 30 (List.hd match_consts).Ir.decl_scale;
  (* q = {2^60, s_o}: bit sizes special + factors of 2^(60+30). *)
  Alcotest.(check (list int)) "bit sizes" [ 60; 60; 30 ] c.Compile.params.Params.bit_sizes

let test_fig5_eager_vs_lazy () =
  (* Eager shares one modswitch (Figure 5(c)); lazy inserts two (5(b)). *)
  let eager = Ir.copy (fig5_input ()) in
  ignore (Passes.waterline_rescale eager);
  ignore (Passes.eager_modswitch eager);
  Alcotest.(check int) "eager: one shared modswitch" 1 (modswitches eager);
  let lazy_p = Ir.copy (fig5_input ()) in
  ignore (Passes.waterline_rescale lazy_p);
  ignore (Passes.lazy_modswitch lazy_p);
  Alcotest.(check int) "lazy: one modswitch per add" 2 (modswitches lazy_p);
  (* Both validate after completing the pipeline. *)
  List.iter
    (fun p ->
      ignore (Passes.match_scale p);
      ignore (Passes.relinearize p);
      Validate.check_transformed p)
    [ eager; lazy_p ]

let test_reference_semantics () =
  let p = fig2_input () in
  let x = [| 0.5; -0.25; 1.0; 2.0; 0.1; -1.5; 0.0; 0.75 |] in
  let y = [| 1.0; 2.0; -1.0; 0.5; 0.25; -0.5; 3.0; 1.5 |] in
  let out = Reference.execute p [ ("x", Reference.Vec x); ("y", Reference.Vec y) ] in
  let expect = Array.init 8 (fun i -> x.(i) ** 2.0 *. (y.(i) ** 3.0)) in
  Alcotest.(check (array (float 1e-12))) "x^2 y^3" expect (List.assoc "out" out)

let test_reference_matches_compiled_reference () =
  (* FHE-specific instructions are identities under reference semantics,
     so compiling must not change reference results. *)
  let p = fig2_input () in
  let c = Compile.run ~waterline:30 p in
  let bind = [ ("x", Reference.Vec [| 0.5; 1.0 |]); ("y", Reference.Vec [| 2.0; -1.0 |]) ] in
  let a = Reference.execute p bind in
  let b = Reference.execute c.Compile.program bind in
  Alcotest.(check (array (float 1e-12))) "agree" (List.assoc "out" a) (List.assoc "out" b)

let test_rotation_steps () =
  let b = B.create ~vec_size:16 () in
  let x = B.input b ~scale:30 "x" in
  let open B.Infix in
  B.output b "o" ~scale:30 ((x << 3) + (x >> 2) + (x << 3));
  let steps = Analysis.rotation_steps (B.program b) in
  Alcotest.(check (list int)) "signed dedup" [ -2; 3 ] steps

let test_rotations_on_plain_need_no_keys () =
  let b = B.create ~vec_size:16 () in
  let x = B.input b ~scale:30 "x" in
  let v = B.vector_input b ~scale:30 "v" in
  let open B.Infix in
  B.output b "o" ~scale:30 (x + (v << 5));
  Alcotest.(check (list int)) "no keys" [] (Analysis.rotation_steps (B.program b))

let test_validate_rejects_fhe_ops_in_input () =
  let p = fig3_input () in
  let x = List.hd (Ir.inputs p) in
  ignore (Ir.insert_between p x Ir.Mod_switch []);
  Alcotest.(check bool) "raises" true
    (try
       Compile.run p |> ignore;
       false
     with Eva_diag.Diag.Error d -> d.Eva_diag.Diag.layer = Eva_diag.Diag.Validate)

let test_validate_catches_scale_mismatch () =
  (* Hand-build an invalid transformed program: add of operands at
     different scales, no match-scale fix. *)
  let p = Ir.create_program ~vec_size:8 () in
  let x = Ir.add_node ~decl_scale:30 p (Ir.Input (Ir.Cipher, "x")) [] in
  let y = Ir.add_node ~decl_scale:40 p (Ir.Input (Ir.Cipher, "y")) [] in
  let s = Ir.add_node p Ir.Add [ x; y ] in
  ignore (Ir.add_node ~decl_scale:30 p (Ir.Output "o") [ s ]);
  Alcotest.(check bool) "constraint 2" true
    (try
       Validate.check_transformed p;
       false
     with Eva_diag.Diag.Error d ->
       d.Eva_diag.Diag.code = Eva_diag.Diag.validate_scale
       && String.sub d.Eva_diag.Diag.message 0 12 = "constraint 2")

let test_validate_catches_unrelinearized () =
  let p = Ir.create_program ~vec_size:8 () in
  let x = Ir.add_node ~decl_scale:30 p (Ir.Input (Ir.Cipher, "x")) [] in
  let sq = Ir.add_node p Ir.Multiply [ x; x ] in
  let quad = Ir.add_node p Ir.Multiply [ sq; sq ] in
  ignore (Ir.add_node ~decl_scale:30 p (Ir.Output "o") [ quad ]);
  Alcotest.(check bool) "constraint 3" true
    (try
       Validate.check_transformed p;
       false
     with Eva_diag.Diag.Error d ->
       d.Eva_diag.Diag.code = Eva_diag.Diag.validate_poly_count
       && String.sub d.Eva_diag.Diag.message 0 12 = "constraint 3")

let test_validate_catches_big_rescale () =
  let p = Ir.create_program ~vec_size:8 () in
  let x = Ir.add_node ~decl_scale:70 p (Ir.Input (Ir.Cipher, "x")) [] in
  let r = Ir.add_node p (Ir.Rescale 65) [ x ] in
  ignore (Ir.add_node ~decl_scale:30 p (Ir.Output "o") [ r ]);
  Alcotest.(check bool) "constraint 4" true
    (try
       Validate.check_transformed p;
       false
     with Eva_diag.Diag.Error d ->
       d.Eva_diag.Diag.code = Eva_diag.Diag.validate_rescale
       && String.sub d.Eva_diag.Diag.message 0 12 = "constraint 4")

(* k-term encrypted dot product: k cipher-cipher multiplies feeding one
   accumulation tree — the shape lazy relinearization collapses to a
   single key switch at the root. *)
let dot_input k =
  let b = B.create ~name:"dot" ~vec_size:16 () in
  let term i =
    B.mul (B.input b ~scale:30 (Printf.sprintf "x%d" i)) (B.input b ~scale:30 (Printf.sprintf "y%d" i))
  in
  let sum = List.fold_left B.add (term 0) (List.init (k - 1) (fun i -> term (i + 1))) in
  B.output b "out" ~scale:30 sum;
  B.program b

let test_lazy_relin_dot () =
  let k = 16 in
  (* The relin-count assertions are about the naive accumulation tree;
     auto-vectorization would rewrite it into one packed multiply. *)
  let lazy_c = Compile.run ~vectorize:false (dot_input k) in
  let eager_c = Compile.run ~eager_relin:true ~vectorize:false (dot_input k) in
  Alcotest.(check int) "lazy: one relin at the root" 1 (relins lazy_c.Compile.program);
  Alcotest.(check int) "eager: one relin per multiply" k (relins eager_c.Compile.program);
  Validate.check_transformed lazy_c.Compile.program;
  Validate.check_transformed eager_c.Compile.program

(* Conv layer with encrypted weights, 2 -> 2 channels, 8x8 image, 3x3
   taps: eager placement pays one relin per cipher x cipher product
   (36), lazy one per output ciphertext, and both decrypt alike. *)
let test_lazy_relin_conv_cipher () =
  let module K = Eva_tensor.Kernels in
  let module Executor = Eva_core.Executor in
  let channels = 2 and h = 8 and w = 8 and kk = 3 and vs = 64 in
  let b = B.create ~name:"convc" ~vec_size:vs () in
  let kctx = K.make_ctx ~mode:`Eva ~weight_scale:30 ~cipher_scale:30 b in
  let img = K.input_image kctx ~scale:30 ~name:"img" ~channels ~height:h ~width:w in
  let taps = List.concat_map (fun o -> List.init channels (fun c -> (o, c))) (List.init channels Fun.id) in
  let taps = List.concat_map (fun (o, c) -> List.init (kk * kk) (fun t -> (o, c, t / kk, t mod kk))) taps in
  let wname (o, c, di, dj) = Printf.sprintf "w_%d_%d_%d_%d" o c di dj in
  let weights =
    Array.init channels (fun o ->
        Array.init channels (fun c ->
            Array.init kk (fun di -> Array.init kk (fun dj -> B.input b ~scale:30 (wname (o, c, di, dj))))))
  in
  let out = K.conv2d_cipher kctx img ~weights in
  K.output_image kctx ~scale:30 ~name:"out" out;
  let p = B.program b in
  let st = Random.State.make [| 47 |] in
  let bindings =
    K.image_bindings ~vs ~layout:img.K.layout ~name:"img"
      (Array.init (channels * h * w) (fun _ -> Random.State.float st 2.0 -. 1.0))
    @ List.map (fun t -> (wname t, Reference.Scal (Random.State.float st 1.0 -. 0.5))) taps
  in
  let expect = Reference.execute p bindings in
  let check ~eager_relin want =
    let c = Compile.run ~eager_relin ~vectorize:false p in
    Alcotest.(check int) (Printf.sprintf "relins (eager %b)" eager_relin) want (relins c.Compile.program);
    let engine = Executor.prepare ~seed:11 ~ignore_security:true ~log_n:8 c bindings in
    let outputs, _ = Executor.decode engine (Executor.run_graph engine c) in
    let err = Executor.max_abs_error outputs expect in
    Alcotest.(check bool) (Printf.sprintf "max err %.1e < 0.05" err) true (err < 0.05)
  in
  check ~eager_relin:true 36;
  check ~eager_relin:false (K.num_cts out.K.layout)

let test_lazy_relin_stops_at_rotate () =
  (* A rotation demands the canonical size, so the relin cannot sink
     past it — it lands between the product and the rotate. *)
  let b = B.create ~vec_size:16 () in
  let x = B.input b ~scale:30 "x" in
  let y = B.input b ~scale:30 "y" in
  let open B.Infix in
  B.output b "out" ~scale:30 ((x * y) << 2);
  let c = Compile.run (B.program b) in
  let p = c.Compile.program in
  Alcotest.(check int) "one relin" 1 (relins p);
  let relin_node =
    List.find (fun n -> n.Ir.op = Ir.Relinearize) p.Ir.all_nodes
  in
  Alcotest.(check bool) "feeds the rotate" true
    (List.exists
       (fun u -> match u.Ir.op with Ir.Rotate_left _ -> true | _ -> false)
       relin_node.Ir.uses);
  Validate.check_transformed p

let test_lazy_relin_idempotent () =
  let p = Ir.copy (dot_input 8) in
  ignore (Passes.waterline_rescale p);
  ignore (Passes.eager_modswitch p);
  ignore (Passes.match_scale p);
  Alcotest.(check bool) "first run places relins" true (Passes.lazy_relinearize p);
  let n = Ir.node_count p in
  Alcotest.(check bool) "second run is a no-op" false (Passes.lazy_relinearize p);
  Alcotest.(check int) "no nodes added" n (Ir.node_count p);
  Validate.check_transformed p

let test_validate_size3_into_rotate () =
  (* EVA-E206: a size-3 product reaching a rotation without an
     intervening relinearize. *)
  let p = Ir.create_program ~vec_size:8 () in
  let x = Ir.add_node ~decl_scale:30 p (Ir.Input (Ir.Cipher, "x")) [] in
  let sq = Ir.add_node p Ir.Multiply [ x; x ] in
  let rot = Ir.add_node p (Ir.Rotate_left 1) [ sq ] in
  ignore (Ir.add_node ~decl_scale:30 p (Ir.Output "o") [ rot ]);
  Alcotest.(check bool) "EVA-E206 on rotate" true
    (try
       Validate.check_transformed p;
       false
     with Eva_diag.Diag.Error d -> d.Eva_diag.Diag.code = Eva_diag.Diag.validate_relin_placement)

let test_validate_size3_into_output () =
  let p = Ir.create_program ~vec_size:8 () in
  let x = Ir.add_node ~decl_scale:30 p (Ir.Input (Ir.Cipher, "x")) [] in
  let sq = Ir.add_node p Ir.Multiply [ x; x ] in
  ignore (Ir.add_node ~decl_scale:30 p (Ir.Output "o") [ sq ]);
  Alcotest.(check bool) "EVA-E206 on output" true
    (try
       Validate.check_transformed p;
       false
     with Eva_diag.Diag.Error d -> d.Eva_diag.Diag.code = Eva_diag.Diag.validate_relin_placement)

let test_compile_is_nondestructive () =
  let p = fig2_input () in
  let before = Ir.node_count p in
  ignore (Compile.run ~waterline:30 p);
  Alcotest.(check int) "input untouched" before (Ir.node_count p)

let test_power_and_sum_slots () =
  let b = B.create ~vec_size:8 () in
  let x = B.input b ~scale:30 "x" in
  B.output b "p5" ~scale:30 (B.power x 5);
  B.output b "s" ~scale:30 (B.sum_slots b ~span:4 x);
  let v = [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0 |] in
  let out = Reference.execute (B.program b) [ ("x", Reference.Vec v) ] in
  Alcotest.(check (array (float 1e-9))) "x^5" (Array.map (fun z -> z ** 5.0) v) (List.assoc "p5" out);
  Alcotest.(check (float 1e-9)) "slot sum" 10.0 (List.assoc "s" out).(0)

let test_polynomial_builder () =
  let b = B.create ~vec_size:8 () in
  let x = B.input b ~scale:30 "x" in
  B.output b "y" ~scale:30 (B.polynomial b ~scale:30 [ 1.0; 0.0; 2.0; -0.5 ] x);
  let v = Array.make 8 0.5 in
  let out = Reference.execute (B.program b) [ ("x", Reference.Vec v) ] in
  let expect = 1.0 +. (2.0 *. 0.25) -. (0.5 *. 0.125) in
  Alcotest.(check (float 1e-9)) "poly" expect (List.assoc "y" out).(0)

(* Random-program property: compiled programs preserve reference
   semantics and always validate. *)
let random_program seed =
  let st = Random.State.make [| seed |] in
  let b = B.create ~vec_size:16 () in
  let x = B.input b ~scale:30 "x" in
  let y = B.input b ~scale:25 "y" in
  let consts = [ B.const_scalar b ~scale:20 0.5; B.const_vector b ~scale:20 (Array.init 16 (fun i -> 0.1 *. float_of_int i)) ] in
  let pool = ref [ x; y ] in
  for _ = 1 to 12 do
    let pick lst = List.nth lst (Random.State.int st (List.length lst)) in
    let a = pick !pool in
    let e =
      match Random.State.int st 6 with
      | 0 -> B.add a (pick !pool)
      | 1 -> B.sub a (pick !pool)
      | 2 -> B.mul a (pick !pool)
      | 3 -> B.mul a (pick consts)
      | 4 -> B.rotate_left a (1 + Random.State.int st 15)
      | _ -> B.neg a
    in
    pool := e :: !pool
  done;
  B.output b "out" ~scale:30 (List.hd !pool);
  B.program b

let prop_compiled_validates =
  QCheck2.Test.make ~name:"compiled random programs validate and preserve reference semantics" ~count:60
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let p = random_program seed in
      (* Raw reference equivalence at the source width: auto-vectorization
         would repack inputs and widen the graph (its own equivalence
         property lives in test_vectorize). *)
      let c = Compile.run ~vectorize:false p in
      Validate.check_transformed c.Compile.program;
      let st = Random.State.make [| seed; 7 |] in
      let vec () = Array.init 16 (fun _ -> Random.State.float st 2.0 -. 1.0) in
      let bind = [ ("x", Reference.Vec (vec ())); ("y", Reference.Vec (vec ())) ] in
      let a = Reference.execute p bind in
      let b = Reference.execute c.Compile.program bind in
      List.for_all2
        (fun (na, va) (nb, vb) -> na = nb && Array.for_all2 (fun p q -> Float.abs (p -. q) < 1e-9) va vb)
        a b)

let prop_levels_bounded_by_depth =
  QCheck2.Test.make ~name:"output chain length never exceeds multiplicative depth" ~count:60
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let p = random_program seed in
      let c = Compile.run p in
      let depth = Analysis.multiplicative_depth c.Compile.program in
      let chains = Analysis.chains c.Compile.program in
      List.for_all (fun o -> List.length (Hashtbl.find chains o.Ir.id) <= depth) (Ir.outputs c.Compile.program))

(* Sinking relins past the size-3 segment must not change what the
   program computes: both placements execute under CKKS within the same
   error bound of the exact reference result. *)
let prop_lazy_matches_eager_encrypted =
  QCheck2.Test.make ~name:"lazy and eager relin placements decrypt alike" ~count:5
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let p = random_program seed in
      let st = Random.State.make [| seed; 13 |] in
      let vec () = Array.init 16 (fun _ -> Random.State.float st 2.0 -. 1.0) in
      let bind = [ ("x", Reference.Vec (vec ())); ("y", Reference.Vec (vec ())) ] in
      let expect = Reference.execute p bind in
      let magnitude =
        List.fold_left
          (fun acc (_, v) -> Array.fold_left (fun m z -> Float.max m (Float.abs z)) acc v)
          1.0 expect
      in
      let err eager_relin =
        let c = Compile.run ~eager_relin p in
        let r = Eva_core.Executor.execute ~seed:3 ~ignore_security:true ~log_n:9 c bind in
        Eva_core.Executor.max_abs_error r.Eva_core.Executor.outputs expect
      in
      let bound = 1e-3 *. magnitude in
      err false < bound && err true < bound)

let () =
  let qt t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "compiler"
    [
      ( "paper figures",
        [
          Alcotest.test_case "fig 2(d) waterline" `Quick test_fig2_waterline;
          Alcotest.test_case "fig 2(b/c) always+lazy" `Quick test_fig2_always_rescale_needs_modswitch;
          Alcotest.test_case "fig 2 parameters" `Quick test_fig2_compile_params;
          Alcotest.test_case "fig 3(c) match scale" `Quick test_fig3_match_scale;
          Alcotest.test_case "fig 5 eager vs lazy" `Quick test_fig5_eager_vs_lazy;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "reference execution" `Quick test_reference_semantics;
          Alcotest.test_case "compile preserves reference" `Quick test_reference_matches_compiled_reference;
          Alcotest.test_case "rotation steps" `Quick test_rotation_steps;
          Alcotest.test_case "plain rotations keyless" `Quick test_rotations_on_plain_need_no_keys;
          Alcotest.test_case "power & sum_slots" `Quick test_power_and_sum_slots;
          Alcotest.test_case "polynomial" `Quick test_polynomial_builder;
        ] );
      ( "validation",
        [
          Alcotest.test_case "input rejects FHE ops" `Quick test_validate_rejects_fhe_ops_in_input;
          Alcotest.test_case "scale mismatch" `Quick test_validate_catches_scale_mismatch;
          Alcotest.test_case "unrelinearized" `Quick test_validate_catches_unrelinearized;
          Alcotest.test_case "oversized rescale" `Quick test_validate_catches_big_rescale;
          Alcotest.test_case "compile copies" `Quick test_compile_is_nondestructive;
        ] );
      ( "lazy relinearization",
        [
          Alcotest.test_case "dot product: k relins -> 1" `Quick test_lazy_relin_dot;
          Alcotest.test_case "stops at rotate" `Quick test_lazy_relin_stops_at_rotate;
          Alcotest.test_case "idempotent" `Quick test_lazy_relin_idempotent;
          Alcotest.test_case "E206: size 3 into rotate" `Quick test_validate_size3_into_rotate;
          Alcotest.test_case "E206: size 3 into output" `Quick test_validate_size3_into_output;
          Alcotest.test_case "cipher-weight conv: one relin per output ct" `Quick test_lazy_relin_conv_cipher;
        ] );
      ( "property",
        [ qt prop_compiled_validates; qt prop_levels_bounded_by_depth; qt prop_lazy_matches_eager_encrypted ]
      );
    ]
