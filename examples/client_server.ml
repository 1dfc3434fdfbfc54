(* A complete offload round trip across a trust boundary, the deployment
   story FHE exists for (Section 2.4's threat model):

     client                          server (semi-honest)
     ------                          --------------------
     keygen (secret stays here)
     encrypt inputs
     --- context + eval keys + ciphertext --->
                                     evaluate the computation
     <-- result ciphertext ---
     decrypt

   The server is a function of the context, the evaluation keyset and
   the ciphertext. None of those types can hold the secret key, so the
   server cannot decrypt what it computes on. Exits non-zero when the
   decrypted variance is off by 1e-3 or more.
   Run with: dune exec examples/client_server.exe *)

module Ctx = Eva_ckks.Context
module Keys = Eva_ckks.Keys
module Eval = Eva_ckks.Eval

(* The outsourced computation: variance of an encrypted vector.
   mean = sum/n in every slot; var = sum((x - mean)^2)/n. *)
let slots = 512

(* Rotation keys for the doubling sum: 1, 2, 4, ..., slots/2. *)
let steps = List.init 9 (fun i -> 1 lsl i)

(* --- server (no secret key) ---------------------------------------- *)
let server ctx keys x =
  let scale = x.Eval.scale in
  (* sum across all slots by rotation doubling *)
  let total = List.fold_left (fun acc s -> Eval.add acc (Eval.rotate ctx keys acc s)) x steps in
  (* Plain operands must be encoded at the level of the ciphertext they
     multiply — the server reads that off the received ciphertext
     rather than assuming the client's chain shape. *)
  let inv_n = Eval.encode ctx ~level:x.Eval.level ~scale (Array.make 1 (1.0 /. float_of_int slots)) in
  let mean = Eval.rescale ctx (Eval.multiply_plain total inv_n) in
  (* Bring x to the mean's level and scale: multiply by 1 at the same
     scale and rescale by the same element (exact scale match). *)
  let one = Eval.encode ctx ~level:x.Eval.level ~scale (Array.make 1 1.0) in
  let x' = Eval.rescale ctx (Eval.multiply_plain x one) in
  let dev = Eval.sub x' mean in
  let sq = Eval.relinearize ctx keys (Eval.multiply dev dev) in
  let var_total = List.fold_left (fun acc s -> Eval.add acc (Eval.rotate ctx keys acc s)) sq steps in
  let inv_n2 = Eval.encode ctx ~level:sq.Eval.level ~scale (Array.make 1 (1.0 /. float_of_int slots)) in
  Eval.rescale ctx (Eval.multiply_plain var_total inv_n2)

let () =
  (* --- client ------------------------------------------------------ *)
  let st = Random.State.make [| 2026 |] in
  let ctx = Ctx.make ~ignore_security:true ~n:1024 ~data_bits:[ 60; 60; 60 ] ~special_bits:[ 60 ] () in
  let secret, keys = Keys.generate ctx st ~galois_elts:(List.map (Ctx.galois_elt_rotate ctx) steps) in
  let data = Array.init slots (fun _ -> Random.State.float st 2.0 -. 1.0) in
  let scale = Float.ldexp 1.0 40 in
  (* Fresh encodings live at the top of the modulus chain; derive that
     from the context instead of hardcoding it, so changing [data_bits]
     above cannot silently desynchronize the encode level. *)
  let top = Ctx.chain_length ctx in
  let ct = Eval.encrypt ctx keys st (Eval.encode ctx ~level:top ~scale data) in
  let fp = Keys.footprint ctx keys in
  Printf.printf "client -> server: context, %d switching keys (%.1f MiB), 1 ciphertext\n"
    fp.Keys.switch_keys
    (float_of_int (8 * fp.Keys.held_words) /. 1048576.0);

  let answer = server ctx keys ct in

  (* --- client decrypts --------------------------------------------- *)
  let result = Eval.decrypt ctx secret answer in
  let mean = Array.fold_left ( +. ) 0.0 data /. float_of_int slots in
  let expected = Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 data /. float_of_int slots in
  let err = Float.abs (result.(0) -. expected) in
  Printf.printf "variance (computed blind on the server): %.6f\n" result.(0);
  Printf.printf "variance (plaintext check)             : %.6f\n" expected;
  Printf.printf "error: %.2e\n" err;
  if not (err < 1e-3) then exit 1
