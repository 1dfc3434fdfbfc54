module T = Eva_tensor.Tensor
module K = Eva_tensor.Kernels
module N = Eva_tensor.Network
module Nets = Eva_tensor.Networks
module B = Eva_core.Builder
module Ir = Eva_core.Ir
module Compile = Eva_core.Compile
module Params = Eva_core.Params
module Reference = Eva_core.Reference
module Executor = Eva_core.Executor

let scales = { N.cipher = 25; weight = 15; output = 30 }

(* ------------------------------------------------------------------ *)
(* Plain tensor oracle                                                 *)
(* ------------------------------------------------------------------ *)

let test_conv_identity () =
  (* 1x1 kernel with weight 1 is the identity. *)
  let x = T.init ~channels:2 ~height:3 ~width:3 (fun c i j -> float_of_int ((c * 9) + (i * 3) + j)) in
  let w = [| [| [| [| 1.0 |] |]; [| [| 0.0 |] |] |]; [| [| [| 0.0 |] |]; [| [| 1.0 |] |] |] |] in
  Alcotest.(check (array (float 1e-12))) "identity" (T.to_array x) (T.to_array (T.conv2d x ~weights:w ~stride:1))

let test_conv_known () =
  (* 3x3 all-ones kernel on a 3x3 all-ones image: center sees 9, edges 6, corners 4. *)
  let x = T.init ~channels:1 ~height:3 ~width:3 (fun _ _ _ -> 1.0) in
  let w = [| [| Array.make_matrix 3 3 1.0 |] |] in
  let y = T.conv2d x ~weights:w ~stride:1 in
  Alcotest.(check (float 1e-12)) "center" 9.0 (T.get y 0 1 1);
  Alcotest.(check (float 1e-12)) "edge" 6.0 (T.get y 0 0 1);
  Alcotest.(check (float 1e-12)) "corner" 4.0 (T.get y 0 0 0)

let test_conv_stride () =
  let x = T.init ~channels:1 ~height:4 ~width:4 (fun _ i j -> float_of_int ((i * 4) + j)) in
  let w = [| [| [| [| 1.0 |] |] |] |] in
  let y = T.conv2d x ~weights:w ~stride:2 in
  Alcotest.(check int) "height" 2 y.T.height;
  Alcotest.(check (float 1e-12)) "picks strided" 10.0 (T.get y 0 1 1)

let test_avg_pool () =
  let x = T.init ~channels:1 ~height:4 ~width:4 (fun _ i j -> float_of_int ((i * 4) + j)) in
  let y = T.avg_pool x ~k:2 in
  Alcotest.(check (float 1e-12)) "window mean" ((0.0 +. 1.0 +. 4.0 +. 5.0) /. 4.0) (T.get y 0 0 0)

let test_global_pool_fc () =
  let x = T.init ~channels:2 ~height:2 ~width:2 (fun c _ _ -> float_of_int (c + 1)) in
  let g = T.global_avg_pool x in
  Alcotest.(check (float 1e-12)) "channel mean" 2.0 (T.get g 1 0 0);
  let w = [| [| 1.0; 1.0; 0.0; 0.0; 0.0; 0.0; 0.0; 0.0 |] |] in
  let y = T.fully_connected x ~weights:w in
  Alcotest.(check (float 1e-12)) "fc" 2.0 (T.get y 0 0 0)

let test_square_poly () =
  let x = T.init ~channels:1 ~height:1 ~width:2 (fun _ _ j -> float_of_int (j + 2)) in
  Alcotest.(check (array (float 1e-12))) "square" [| 4.0; 9.0 |] (T.to_array (T.square x));
  Alcotest.(check (array (float 1e-12))) "poly" [| 7.0; 13.0 |] (T.to_array (T.poly [ 1.0; 1.0; 1.0 ] x))

(* ------------------------------------------------------------------ *)
(* Lowered kernels vs oracle, under reference semantics                *)
(* ------------------------------------------------------------------ *)

let rand_tensor st ~channels ~height ~width =
  T.init ~channels ~height ~width (fun _ _ _ -> Random.State.float st 2.0 -. 1.0)

let run_lowered ~vec_size build input_tensor =
  let b = B.create ~vec_size () in
  let ctx = K.make_ctx ~mode:`Eva ~weight_scale:scales.N.weight ~cipher_scale:scales.N.cipher b in
  let img =
    K.input_image ctx ~scale:scales.N.cipher ~name:"x" ~channels:input_tensor.T.channels
      ~height:input_tensor.T.height ~width:input_tensor.T.width
  in
  let out = build ctx img in
  K.output_image ctx ~scale:scales.N.output ~name:"y" out;
  let bindings = K.image_bindings ~vs:vec_size ~layout:img.K.layout ~name:"x" (T.to_array input_tensor) in
  let results = Reference.execute (B.program b) bindings in
  K.read_image out.K.layout (fun t -> List.assoc (Printf.sprintf "y_%d" t) results)

let check_against_oracle ?(eps = 1e-9) msg expected actual =
  Alcotest.(check int) (msg ^ " size") (Array.length expected) (Array.length actual);
  Array.iteri
    (fun i e ->
      if Float.abs (e -. actual.(i)) > eps then Alcotest.failf "%s: index %d: %f vs %f" msg i e actual.(i))
    expected

let test_lowered_conv () =
  let st = Random.State.make [| 1 |] in
  let x = rand_tensor st ~channels:2 ~height:4 ~width:4 in
  let w = Array.init 3 (fun _ -> Array.init 2 (fun _ -> Array.init 3 (fun _ -> Array.init 3 (fun _ -> Random.State.float st 1.0 -. 0.5)))) in
  let expect = T.to_array (T.conv2d x ~weights:w ~stride:1) in
  let got = run_lowered ~vec_size:64 (fun ctx img -> K.conv2d ctx img ~weights:w ~stride:1) x in
  check_against_oracle "conv 3x3" expect got

let test_lowered_conv_stride2 () =
  let st = Random.State.make [| 2 |] in
  let x = rand_tensor st ~channels:1 ~height:8 ~width:8 in
  let w = [| [| Array.init 3 (fun _ -> Array.init 3 (fun _ -> Random.State.float st 1.0 -. 0.5)) |] |] in
  let expect = T.to_array (T.conv2d x ~weights:w ~stride:2) in
  let got = run_lowered ~vec_size:64 (fun ctx img -> K.conv2d ctx img ~weights:w ~stride:2) x in
  check_against_oracle "conv stride 2" expect got

let test_lowered_multi_ct_conv () =
  (* vec_size 16 on a 4x4 grid forces one channel per ciphertext. *)
  let st = Random.State.make [| 3 |] in
  let x = rand_tensor st ~channels:3 ~height:4 ~width:4 in
  let w = Array.init 2 (fun _ -> Array.init 3 (fun _ -> Array.init 3 (fun _ -> Array.init 3 (fun _ -> Random.State.float st 1.0 -. 0.5)))) in
  let expect = T.to_array (T.conv2d x ~weights:w ~stride:1) in
  let got = run_lowered ~vec_size:16 (fun ctx img -> K.conv2d ctx img ~weights:w ~stride:1) x in
  check_against_oracle "multi-ct conv" expect got

let test_lowered_pool_then_conv () =
  (* Exercises strided layouts: pool leaves gaps that the conv must skip. *)
  let st = Random.State.make [| 4 |] in
  let x = rand_tensor st ~channels:2 ~height:8 ~width:8 in
  let w = Array.init 2 (fun _ -> Array.init 2 (fun _ -> Array.init 3 (fun _ -> Array.init 3 (fun _ -> Random.State.float st 1.0 -. 0.5)))) in
  let expect = T.to_array (T.conv2d (T.avg_pool x ~k:2) ~weights:w ~stride:1) in
  let got =
    run_lowered ~vec_size:128
      (fun ctx img -> K.conv2d ctx (K.avg_pool ctx img ~k:2) ~weights:w ~stride:1)
      x
  in
  check_against_oracle "pool then conv" expect got

let test_lowered_restride () =
  let st = Random.State.make [| 5 |] in
  let x = rand_tensor st ~channels:2 ~height:8 ~width:8 in
  let expect = T.to_array (T.avg_pool x ~k:2) in
  let got = run_lowered ~vec_size:128 (fun ctx img -> K.restride_dense ctx (K.avg_pool ctx img ~k:2)) x in
  check_against_oracle "restride" expect got

let test_lowered_fc () =
  let st = Random.State.make [| 6 |] in
  let x = rand_tensor st ~channels:2 ~height:3 ~width:3 in
  let w = Array.init 5 (fun _ -> Array.init 18 (fun _ -> Random.State.float st 1.0 -. 0.5)) in
  let expect = T.to_array (T.fully_connected x ~weights:w) in
  let got = run_lowered ~vec_size:32 (fun ctx img -> K.fully_connected ctx img ~weights:w) x in
  check_against_oracle "fc bsgs" expect got

let test_lowered_fc_chain () =
  (* Two chained FCs: the second must cope with the first's tiled output. *)
  let st = Random.State.make [| 7 |] in
  let x = rand_tensor st ~channels:1 ~height:4 ~width:4 in
  let w1 = Array.init 6 (fun _ -> Array.init 16 (fun _ -> Random.State.float st 1.0 -. 0.5)) in
  let w2 = Array.init 3 (fun _ -> Array.init 6 (fun _ -> Random.State.float st 1.0 -. 0.5)) in
  let expect = T.to_array (T.fully_connected (T.fully_connected x ~weights:w1) ~weights:w2) in
  let got =
    run_lowered ~vec_size:32
      (fun ctx img -> K.fully_connected ctx (K.fully_connected ctx img ~weights:w1) ~weights:w2)
      x
  in
  check_against_oracle "fc chain" expect got

let test_lowered_global_pool () =
  let st = Random.State.make [| 8 |] in
  let x = rand_tensor st ~channels:3 ~height:4 ~width:4 in
  let expect = T.to_array (T.global_avg_pool x) in
  let got = run_lowered ~vec_size:16 (fun ctx img -> K.global_avg_pool ctx img) x in
  check_against_oracle "global pool" expect got

(* ------------------------------------------------------------------ *)
(* Whole networks                                                      *)
(* ------------------------------------------------------------------ *)

let test_networks_reference_agreement () =
  List.iter
    (fun net ->
      let w = N.random_weights net ~seed:11 in
      let st = Random.State.make [| 21 |] in
      let input =
        Array.init (net.N.input_channels * net.N.input_height * net.N.input_width) (fun _ ->
            Random.State.float st 2.0 -. 1.0)
      in
      let plain = N.infer_plain net w input in
      List.iter
        (fun mode ->
          let lowered = N.lower ~mode ~scales:(Nets.scales_for net) net w in
          let out = Reference.execute lowered.N.program (N.bindings lowered input) in
          let got = N.read_outputs lowered out in
          check_against_oracle ~eps:1e-9 (net.N.net_name ^ " lowering") plain got)
        [ `Eva; `Chet ])
    Nets.minis

let compile_pair net =
  let w = N.random_weights net ~seed:11 in
  let sc = Nets.scales_for net in
  let eva = Compile.run (N.lower ~mode:`Eva ~scales:sc net w).N.program in
  let chet = Compile.run ~policy:Eva_core.Passes.Lazy_insertion (N.lower ~mode:`Chet ~scales:sc net w).N.program in
  (eva, chet)

let test_eva_beats_chet_params () =
  (* The paper's Table 6 shape: EVA selects no larger log Q and strictly
     fewer modulus elements than the per-kernel CHET policy. *)
  List.iter
    (fun net ->
      let eva, chet = compile_pair net in
      let q c = c.Compile.params.Params.log_q and r c = List.length c.Compile.params.Params.bit_sizes in
      Alcotest.(check bool) (net.N.net_name ^ ": log Q") true (q eva <= q chet);
      Alcotest.(check bool) (net.N.net_name ^ ": r") true (r eva < r chet);
      Alcotest.(check bool)
        (net.N.net_name ^ ": log N")
        true
        (eva.Compile.params.Params.log_n <= chet.Compile.params.Params.log_n))
    Nets.minis

let test_network_encrypted_inference () =
  (* Full stack on the smallest network: lower, compile, execute under
     CKKS, compare to plain inference. *)
  let net = Nets.mini_lenet in
  let w = N.random_weights net ~seed:5 in
  let st = Random.State.make [| 31 |] in
  let input = Array.init 64 (fun _ -> Random.State.float st 2.0 -. 1.0) in
  let plain = N.infer_plain net w input in
  let lowered = N.lower ~mode:`Eva ~scales:(Nets.scales_for net) net w in
  let c = Compile.run lowered.N.program in
  let r = Executor.execute ~ignore_security:true ~log_n:10 c (N.bindings lowered input) in
  let got = N.read_outputs lowered r.Executor.outputs in
  (* Activations after several layers are tiny; compare with generous
     absolute epsilon plus a relative check on the largest output. *)
  check_against_oracle ~eps:5e-4 "encrypted mini-LeNet" plain got;
  Alcotest.(check int) "argmax agrees" (T.argmax plain) (T.argmax got)

let test_vec_size () =
  Alcotest.(check int) "mini lenet vec" 64 (N.vec_size Nets.mini_lenet);
  Alcotest.(check int) "lenet vec" 1024 (N.vec_size Nets.lenet5_small);
  Alcotest.(check int) "squeezenet vec" 1024 (N.vec_size Nets.squeezenet_cifar)

let test_op_counts () =
  let net = Nets.mini_lenet in
  let w = N.random_weights net ~seed:1 in
  let lowered = N.lower ~mode:`Eva ~scales:(Nets.scales_for net) net w in
  let counts = N.op_counts lowered.N.program in
  Alcotest.(check bool) "has rotations" true (List.assoc "rotate" counts > 0);
  Alcotest.(check bool) "has multiplies" true (List.assoc "multiply" counts > 0);
  Alcotest.(check int) "no fhe ops before compile" 0 (List.assoc "rescale" counts)

(* Keygen cuts each switching key to the deepest level mini-LeNet uses
   it at. At log N 10 every chain element is two primes: the chain has
   7 elements (14 primes) and 2 special primes, so a key of depth d
   holds d digits of 2d + 2 rows. Relin and 8 Galois keys are used at
   the top, 8 Galois keys at 6 elements, 2 at 5 and 5 at 4: 2,000 row
   pairs against 24 x 112 = 2,688 at full depth. *)
let test_mini_lenet_key_rows () =
  let net = Nets.mini_lenet in
  let w = N.random_weights net ~seed:1 in
  let c = Compile.run (N.lower ~mode:`Eva ~scales:(Nets.scales_for net) net w).N.program in
  let kd = c.Compile.params.Params.key_depths in
  Alcotest.(check int) "relin depth" 7 kd.Params.relin_depth;
  let count d = List.length (List.filter (fun (_, d') -> d' = d) kd.Params.rotation_depths) in
  Alcotest.(check (list int)) "Galois keys at depth 7, 6, 5, 4" [ 8; 8; 2; 5 ] (List.map count [ 7; 6; 5; 4 ]);
  let e = Executor.keygen ~ignore_security:true ~log_n:10 c in
  let f = Executor.key_footprint e in
  let row_pairs words = words / (2 * 1024) in
  Alcotest.(check int) "switch keys" 24 f.Eva_ckks.Keys.switch_keys;
  Alcotest.(check int) "row pairs held" 2000 (row_pairs f.Eva_ckks.Keys.held_words);
  Alcotest.(check int) "row pairs at full depth" 2688 (row_pairs f.Eva_ckks.Keys.full_words)

let prop_conv_linear =
  QCheck2.Test.make ~name:"lowered conv is linear in the input" ~count:20 QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let x1 = rand_tensor st ~channels:1 ~height:4 ~width:4 in
      let x2 = rand_tensor st ~channels:1 ~height:4 ~width:4 in
      let sum = T.init ~channels:1 ~height:4 ~width:4 (fun c i j -> T.get x1 c i j +. T.get x2 c i j) in
      let w = [| [| Array.init 3 (fun _ -> Array.init 3 (fun _ -> Random.State.float st 1.0 -. 0.5)) |] |] in
      let run t = run_lowered ~vec_size:16 (fun ctx img -> K.conv2d ctx img ~weights:w ~stride:1) t in
      let y1 = run x1 and y2 = run x2 and ys = run sum in
      Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-9) ys (Array.map2 ( +. ) y1 y2))

let () =
  let qt t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "tensor"
    [
      ( "oracle",
        [
          Alcotest.test_case "conv identity" `Quick test_conv_identity;
          Alcotest.test_case "conv known" `Quick test_conv_known;
          Alcotest.test_case "conv stride" `Quick test_conv_stride;
          Alcotest.test_case "avg pool" `Quick test_avg_pool;
          Alcotest.test_case "global pool & fc" `Quick test_global_pool_fc;
          Alcotest.test_case "square & poly" `Quick test_square_poly;
        ] );
      ( "lowering",
        [
          Alcotest.test_case "conv" `Quick test_lowered_conv;
          Alcotest.test_case "conv stride 2" `Quick test_lowered_conv_stride2;
          Alcotest.test_case "multi-ciphertext conv" `Quick test_lowered_multi_ct_conv;
          Alcotest.test_case "pool then conv" `Quick test_lowered_pool_then_conv;
          Alcotest.test_case "restride" `Quick test_lowered_restride;
          Alcotest.test_case "fc bsgs" `Quick test_lowered_fc;
          Alcotest.test_case "fc chain" `Quick test_lowered_fc_chain;
          Alcotest.test_case "global pool" `Quick test_lowered_global_pool;
        ] );
      ( "networks",
        [
          Alcotest.test_case "reference agreement" `Quick test_networks_reference_agreement;
          Alcotest.test_case "EVA beats CHET params" `Quick test_eva_beats_chet_params;
          Alcotest.test_case "encrypted inference" `Slow test_network_encrypted_inference;
          Alcotest.test_case "vec sizes" `Quick test_vec_size;
          Alcotest.test_case "op counts" `Quick test_op_counts;
          Alcotest.test_case "mini-LeNet keys cut to their depth" `Quick test_mini_lenet_key_rows;
        ] );
      ("property", [ qt prop_conv_linear ]);
    ]
