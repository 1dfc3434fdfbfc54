(* The wire format: contexts, ciphertexts and evaluation keys as text,
   exercised across a simulated client/server trust boundary. *)

module Ctx = Eva_ckks.Context
module Keys = Eva_ckks.Keys
module Eval = Eva_ckks.Eval
module Wire = Eva_ckks.Wire

let ctx () = Ctx.make ~ignore_security:true ~n:512 ~data_bits:[ 60; 40; 40 ] ~special_bits:[ 60 ] ()

let test_context_round_trip () =
  let c = ctx () in
  let s = Wire.to_string Wire.write_context c in
  let c' = Wire.read_context ~ignore_security:true s ~pos:(ref 0) in
  Alcotest.(check int) "degree" (Ctx.degree c) (Ctx.degree c');
  Alcotest.(check int) "chain" (Ctx.chain_length c) (Ctx.chain_length c');
  (* Prime generation is deterministic: identical moduli on both sides. *)
  Alcotest.(check (float 0.0)) "log Q identical" (Ctx.total_log_q c) (Ctx.total_log_q c')

let test_ciphertext_round_trip () =
  let c = ctx () in
  let st = Random.State.make [| 5 |] in
  let secret, ks = Keys.generate c st ~galois_elts:[] in
  let v = Array.init (Ctx.slots c) (fun i -> Float.sin (float_of_int i)) in
  let ct = Eval.encrypt c ks st (Eval.encode c ~level:3 ~scale:(Float.ldexp 1.0 40) v) in
  let s = Wire.to_string Wire.write_ciphertext ct in
  let ct' = Wire.read_ciphertext c s ~pos:(ref 0) in
  Alcotest.(check int) "level" ct.Eval.level ct'.Eval.level;
  Alcotest.(check (float 0.0)) "scale" ct.Eval.scale ct'.Eval.scale;
  let back = Eval.decrypt c secret ct' in
  Array.iteri (fun i x -> if Float.abs (x -. v.(i)) > 1e-5 then Alcotest.failf "slot %d" i) back

let test_ciphertext_at_lower_level () =
  let c = ctx () in
  let st = Random.State.make [| 6 |] in
  let secret, ks = Keys.generate c st ~galois_elts:[] in
  let v = Array.init (Ctx.slots c) (fun i -> float_of_int (i mod 5) /. 5.0) in
  let ct = Eval.mod_switch c (Eval.encrypt c ks st (Eval.encode c ~level:3 ~scale:(Float.ldexp 1.0 40) v)) in
  let s = Wire.to_string Wire.write_ciphertext ct in
  let ct' = Wire.read_ciphertext c s ~pos:(ref 0) in
  Alcotest.(check int) "level 2" 2 ct'.Eval.level;
  let back = Eval.decrypt c secret ct' in
  Array.iteri (fun i x -> if Float.abs (x -. v.(i)) > 1e-5 then Alcotest.failf "slot %d" i) back

let test_size3_ciphertext_round_trip () =
  (* Lazy relinearization ships size-3 ciphertexts between pipeline
     stages: the wire format must carry the third polynomial, and the
     round-tripped value must still participate in further arithmetic. *)
  let c = ctx () in
  let st = Random.State.make [| 11 |] in
  let secret, ks = Keys.generate c st ~galois_elts:[] in
  let a = Array.init (Ctx.slots c) (fun i -> Float.sin (float_of_int i) /. 2.0) in
  let b = Array.init (Ctx.slots c) (fun i -> Float.cos (float_of_int (2 * i)) /. 2.0) in
  let scale = Float.ldexp 1.0 40 in
  let enc v = Eval.encrypt c ks st (Eval.encode c ~level:3 ~scale v) in
  let prod = Eval.multiply (enc a) (enc b) in
  Alcotest.(check int) "size 3 before" 3 (Eval.size prod);
  let s = Wire.to_string Wire.write_ciphertext prod in
  let prod' = Wire.read_ciphertext c s ~pos:(ref 0) in
  Alcotest.(check int) "size 3 after" 3 (Eval.size prod');
  let ab = Array.map2 ( *. ) a b in
  Array.iteri
    (fun i x -> if Float.abs (x -. ab.(i)) > 1e-4 then Alcotest.failf "slot %d" i)
    (Eval.decrypt c secret prod');
  (* Accumulate the round-tripped size-3 value, then relinearize once. *)
  let doubled = Eval.relinearize c ks (Eval.add prod' prod') in
  Alcotest.(check int) "relinearized" 2 (Eval.size doubled);
  Array.iteri
    (fun i x -> if Float.abs (x -. (2.0 *. ab.(i))) > 1e-4 then Alcotest.failf "sum slot %d" i)
    (Eval.decrypt c secret doubled)

let test_client_server_boundary () =
  (* Client: context + keys + encrypted input, serialized. *)
  let client_ctx = ctx () in
  let st = Random.State.make [| 7 |] in
  let secret, ks =
    Keys.generate client_ctx st ~galois_elts:[ Ctx.galois_elt_rotate client_ctx 1 ]
  in
  let v = Array.init (Ctx.slots client_ctx) (fun i -> Float.cos (float_of_int i) /. 2.0) in
  let ct = Eval.encrypt client_ctx ks st (Eval.encode client_ctx ~level:3 ~scale:(Float.ldexp 1.0 40) v) in
  let wire_msg =
    let buf = Buffer.create 4096 in
    Wire.write_context buf client_ctx;
    Wire.write_eval_keys buf ks;
    Wire.write_ciphertext buf ct;
    Buffer.contents buf
  in
  (* Server: rebuilds everything from text; has no secret key. *)
  let pos = ref 0 in
  let server_ctx = Wire.read_context ~ignore_security:true wire_msg ~pos in
  let server_keys = Wire.read_eval_keys server_ctx wire_msg ~pos in
  let x = Wire.read_ciphertext server_ctx wire_msg ~pos in
  (* Server computes x * rot(x, 1) + x homomorphically. *)
  let rot = Eval.rotate server_ctx server_keys x 1 in
  let prod = Eval.relinearize server_ctx server_keys (Eval.multiply x rot) in
  let result = Eval.add_plain prod (Eval.encode server_ctx ~level:3 ~scale:prod.Eval.scale (Array.map (fun z -> z) v)) in
  ignore result;
  (* Simpler: reply with the product; client decrypts. *)
  let reply = Wire.to_string Wire.write_ciphertext prod in
  let back = Eval.decrypt client_ctx secret (Wire.read_ciphertext client_ctx reply ~pos:(ref 0)) in
  let slots = Ctx.slots client_ctx in
  Array.iteri
    (fun i x ->
      let expect = v.(i) *. v.((i + 1) mod slots) in
      if Float.abs (x -. expect) > 1e-3 then Alcotest.failf "slot %d: %f vs %f" i x expect)
    back

let test_eval_keys_round_trip_enable_rotation () =
  let c = ctx () in
  let st = Random.State.make [| 8 |] in
  let secret, ks = Keys.generate c st ~galois_elts:[ Ctx.galois_elt_rotate c 4 ] in
  let s = Wire.to_string Wire.write_eval_keys ks in
  let ks' = Wire.read_eval_keys c s ~pos:(ref 0) in
  let v = Array.init (Ctx.slots c) (fun i -> float_of_int i) in
  let ct = Eval.encrypt c ks' st (Eval.encode c ~level:3 ~scale:(Float.ldexp 1.0 40) v) in
  let rot = Eval.rotate c ks' ct 4 in
  let back = Eval.decrypt c secret rot in
  Alcotest.(check (float 1e-2)) "rotated" 4.0 back.(0)

(* Cut keys cross the wire as their depth and only the rows they hold:
   the text is the same bytes after a round trip, every key comes back
   at its depth, and the read keys rotate and relinearize. *)
let test_cut_eval_keys_round_trip () =
  let c = ctx () in
  let st = Random.State.make [| 12 |] in
  let g1 = Ctx.galois_elt_rotate c 1 and g4 = Ctx.galois_elt_rotate c 4 in
  let secret, ks =
    Keys.generate ~depths:{ Keys.relin_depth = 2; galois_depths = [ (g1, 1); (g4, 3) ] } c st
      ~galois_elts:[ g1; g4 ]
  in
  let s = Wire.to_string Wire.write_eval_keys ks in
  let ks' = Wire.read_eval_keys c s ~pos:(ref 0) in
  Alcotest.(check string) "re-written text identical" s (Wire.to_string Wire.write_eval_keys ks');
  let depth k = Keys.switch_key_depth k in
  Alcotest.(check (list int)) "depths" [ 2; 1; 3 ]
    [ depth ks'.Keys.relin; depth (Option.get (Keys.find_galois ks' g1)); depth (Option.get (Keys.find_galois ks' g4)) ];
  let full_words = (Keys.footprint c ks').Keys.full_words in
  Alcotest.(check bool) "cut keys hold less" true ((Keys.footprint c ks').Keys.held_words < full_words);
  let v = Array.init (Ctx.slots c) (fun i -> float_of_int (i mod 7) /. 8.0) in
  let ct = Eval.encrypt c ks' st (Eval.encode c ~level:3 ~scale:(Float.ldexp 1.0 40) v) in
  let back = Eval.decrypt c secret (Eval.rotate c ks' ct 4) in
  Alcotest.(check (float 1e-3)) "rotated at depth 3" v.(4) back.(0);
  let low = Eval.mod_switch c ct in
  let sq = Eval.relinearize c ks' (Eval.multiply low low) in
  Alcotest.(check (float 1e-3)) "relinearized at depth 2" (v.(3) *. v.(3)) (Eval.decrypt c secret sq).(3)

let test_missing_key_raises () =
  let c = ctx () in
  let st = Random.State.make [| 9 |] in
  let _secret, ks = Keys.generate c st ~galois_elts:[] in
  let v = Array.make (Ctx.slots c) 0.5 in
  let ct = Eval.encrypt c ks st (Eval.encode c ~level:3 ~scale:(Float.ldexp 1.0 40) v) in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Eval.rotate c ks ct 2);
       false
     with Eval.Missing_galois_key _ -> true)

let test_truncated_input_fails_cleanly () =
  let c = ctx () in
  let st = Random.State.make [| 10 |] in
  let _secret, ks = Keys.generate c st ~galois_elts:[] in
  let v = Array.make (Ctx.slots c) 0.25 in
  let ct = Eval.encrypt c ks st (Eval.encode c ~level:3 ~scale:(Float.ldexp 1.0 40) v) in
  let s = Wire.to_string Wire.write_ciphertext ct in
  let truncated = String.sub s 0 (String.length s / 2) in
  Alcotest.(check bool) "fails with a Wire-layer error" true
    (try
       ignore (Wire.read_ciphertext c truncated ~pos:(ref 0));
       false
     with Eva_diag.Diag.Error d -> d.Eva_diag.Diag.layer = Eva_diag.Diag.Wire)

let () =
  Alcotest.run "wire"
    [
      ( "round trips",
        [
          Alcotest.test_case "context" `Quick test_context_round_trip;
          Alcotest.test_case "ciphertext" `Quick test_ciphertext_round_trip;
          Alcotest.test_case "lower-level ciphertext" `Quick test_ciphertext_at_lower_level;
          Alcotest.test_case "size-3 ciphertext" `Quick test_size3_ciphertext_round_trip;
          Alcotest.test_case "eval keys" `Quick test_eval_keys_round_trip_enable_rotation;
          Alcotest.test_case "cut eval keys" `Quick test_cut_eval_keys_round_trip;
        ] );
      ( "trust boundary",
        [
          Alcotest.test_case "client/server compute" `Quick test_client_server_boundary;
          Alcotest.test_case "missing key raises" `Quick test_missing_key_raises;
          Alcotest.test_case "truncated input" `Quick test_truncated_input_fails_cleanly;
        ] );
    ]
