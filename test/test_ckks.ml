module Ctx = Eva_ckks.Context
module Keys = Eva_ckks.Keys
module Eval = Eva_ckks.Eval
module Emb = Eva_ckks.Embedding
module Sec = Eva_ckks.Security
module Rp = Eva_poly.Rns_poly
module Ntt = Eva_rns.Ntt

let rng () = Random.State.make [| 2024 |]

(* A small context: N = 512, chain 60,40,40,40 bits plus a 60-bit special
   element. Security is ignored (test-size degree). *)
let ctx () = Ctx.make ~ignore_security:true ~n:512 ~data_bits:[ 60; 40; 40; 40 ] ~special_bits:[ 60 ] ()

let check_close ?(eps = 1e-4) msg expect actual =
  Array.iteri
    (fun i e ->
      if Float.abs (e -. actual.(i)) > eps then
        Alcotest.failf "%s: slot %d: expected %.6f got %.6f" msg i e actual.(i))
    expect

let test_security_table () =
  Alcotest.(check int) "N=4096" 109 (Sec.max_log_q ~level:Sec.Bits128 ~n:4096);
  Alcotest.(check int) "N=32768" 881 (Sec.max_log_q ~level:Sec.Bits128 ~n:32768);
  Alcotest.(check int) "min degree 300 bits" 16384 (Sec.min_degree ~level:Sec.Bits128 ~log_q:300);
  Alcotest.(check int) "min degree 27 bits" 1024 (Sec.min_degree ~level:Sec.Bits128 ~log_q:27)

let test_context_rejects_insecure () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Ctx.make ~n:1024 ~data_bits:[ 30; 30 ] ~special_bits:[ 30 ] ());
       false
     with Eva_diag.Diag.Error d -> d.Eva_diag.Diag.code = Eva_diag.Diag.crypto_security)

let test_embedding_round_trip () =
  let e = Emb.make ~slots:32 in
  let st = rng () in
  let vals = Array.init 32 (fun _ -> { Complex.re = Random.State.float st 2.0 -. 1.0; im = 0.0 }) in
  let work = Array.map (fun c -> c) vals in
  Emb.embed_inverse e work;
  Emb.embed_forward e work;
  Array.iteri
    (fun i c ->
      Alcotest.(check (float 1e-9)) "re" vals.(i).Complex.re c.Complex.re;
      Alcotest.(check (float 1e-9)) "im" 0.0 c.Complex.im)
    work

let test_encode_decode () =
  let c = ctx () in
  let st = rng () in
  let v = Array.init (Ctx.slots c) (fun _ -> Random.State.float st 2.0 -. 1.0) in
  let p = Ctx.encode c ~level:4 ~scale:(Float.ldexp 1.0 40) v in
  let back = Ctx.decode c ~scale:(Float.ldexp 1.0 40) p in
  check_close ~eps:1e-7 "encode/decode" v back

let test_encode_replicates () =
  let c = ctx () in
  let v = [| 1.0; 2.0; 3.0; 4.0 |] in
  let p = Ctx.encode c ~level:4 ~scale:(Float.ldexp 1.0 40) v in
  let back = Ctx.decode c ~scale:(Float.ldexp 1.0 40) p in
  Array.iteri (fun i x -> Alcotest.(check (float 1e-6)) "tiled" v.(i mod 4) x) back

let test_encrypt_decrypt () =
  let c = ctx () in
  let st = rng () in
  let secret, ks = Keys.generate c st ~galois_elts:[] in
  let v = Array.init (Ctx.slots c) (fun i -> Float.sin (float_of_int i)) in
  let pt = Eval.encode c ~level:4 ~scale:(Float.ldexp 1.0 40) v in
  let ct = Eval.encrypt c ks st pt in
  Alcotest.(check int) "fresh size" 2 (Eval.size ct);
  check_close ~eps:1e-6 "decrypt" v (Eval.decrypt c secret ct)

let test_add_sub () =
  let c = ctx () in
  let st = rng () in
  let secret, ks = Keys.generate c st ~galois_elts:[] in
  let scale = Float.ldexp 1.0 40 in
  let a = Array.init (Ctx.slots c) (fun i -> float_of_int i /. 100.0) in
  let b = Array.init (Ctx.slots c) (fun i -> 1.0 -. (float_of_int i /. 50.0)) in
  let ca = Eval.encrypt c ks st (Eval.encode c ~level:4 ~scale a) in
  let cb = Eval.encrypt c ks st (Eval.encode c ~level:4 ~scale b) in
  check_close ~eps:1e-5 "add" (Array.map2 ( +. ) a b) (Eval.decrypt c secret (Eval.add ca cb));
  check_close ~eps:1e-5 "sub" (Array.map2 ( -. ) a b) (Eval.decrypt c secret (Eval.sub ca cb));
  check_close ~eps:1e-5 "negate" (Array.map (fun x -> -.x) a) (Eval.decrypt c secret (Eval.negate ca))

let test_plain_ops () =
  let c = ctx () in
  let st = rng () in
  let secret, ks = Keys.generate c st ~galois_elts:[] in
  let scale = Float.ldexp 1.0 40 in
  let a = Array.init (Ctx.slots c) (fun i -> Float.cos (float_of_int i)) in
  let b = Array.init (Ctx.slots c) (fun i -> 0.5 +. (float_of_int (i mod 5) /. 10.0)) in
  let ca = Eval.encrypt c ks st (Eval.encode c ~level:4 ~scale a) in
  let pb = Eval.encode c ~level:4 ~scale b in
  check_close ~eps:1e-5 "add_plain" (Array.map2 ( +. ) a b) (Eval.decrypt c secret (Eval.add_plain ca pb));
  check_close ~eps:1e-5 "sub_plain" (Array.map2 ( -. ) a b) (Eval.decrypt c secret (Eval.sub_plain ca pb));
  let prod = Eval.multiply_plain ca pb in
  check_close ~eps:1e-4 "multiply_plain" (Array.map2 ( *. ) a b) (Eval.decrypt c secret prod)

let test_multiply_relin_rescale () =
  let c = ctx () in
  let st = rng () in
  let secret, ks = Keys.generate c st ~galois_elts:[] in
  let scale = Float.ldexp 1.0 40 in
  let a = Array.init (Ctx.slots c) (fun i -> Float.sin (float_of_int i) /. 2.0) in
  let b = Array.init (Ctx.slots c) (fun i -> Float.cos (float_of_int i) /. 2.0) in
  let ca = Eval.encrypt c ks st (Eval.encode c ~level:4 ~scale a) in
  let cb = Eval.encrypt c ks st (Eval.encode c ~level:4 ~scale b) in
  let prod = Eval.multiply ca cb in
  Alcotest.(check int) "size 3" 3 (Eval.size prod);
  let relin = Eval.relinearize c ks prod in
  Alcotest.(check int) "size 2" 2 (Eval.size relin);
  let expect = Array.map2 ( *. ) a b in
  check_close ~eps:1e-4 "relinearized product" expect (Eval.decrypt c secret relin);
  let rescaled = Eval.rescale c relin in
  Alcotest.(check int) "level drops" 3 rescaled.Eval.level;
  Alcotest.(check bool) "scale shrinks" true (rescaled.Eval.scale < Float.ldexp 1.0 41);
  check_close ~eps:1e-4 "rescaled product" expect (Eval.decrypt c secret rescaled)

let test_mixed_size_linear_ops () =
  (* Lazy relinearization carries size-3 ciphertexts through the linear
     ops: add/sub/negate must accept mixed (3 op 2) operands, and
     rescale/mod_switch must preserve the third component. Decryption is
     Horner over all components, so every intermediate checks directly. *)
  let c = ctx () in
  let st = rng () in
  let secret, ks = Keys.generate c st ~galois_elts:[] in
  let scale = Float.ldexp 1.0 40 in
  let a = Array.init (Ctx.slots c) (fun i -> Float.sin (float_of_int i) /. 2.0) in
  let b = Array.init (Ctx.slots c) (fun i -> Float.cos (float_of_int i) /. 2.0) in
  let d = Array.init (Ctx.slots c) (fun i -> float_of_int (i mod 5) /. 10.0) in
  let ca = Eval.encrypt c ks st (Eval.encode c ~level:4 ~scale a) in
  let cb = Eval.encrypt c ks st (Eval.encode c ~level:4 ~scale b) in
  let prod = Eval.multiply ca cb in
  (* A size-2 operand at the product's scale, for the mixed ops. *)
  let cd = Eval.encrypt c ks st (Eval.encode c ~level:4 ~scale:prod.Eval.scale d) in
  let ab = Array.map2 ( *. ) a b in
  let s3 = Eval.add prod cd in
  Alcotest.(check int) "3 + 2 stays size 3" 3 (Eval.size s3);
  check_close ~eps:1e-4 "add mixed" (Array.map2 ( +. ) ab d) (Eval.decrypt c secret s3);
  let s3' = Eval.sub cd prod in
  Alcotest.(check int) "2 - 3 stays size 3" 3 (Eval.size s3');
  check_close ~eps:1e-4 "sub mixed" (Array.map2 ( -. ) d ab) (Eval.decrypt c secret s3');
  check_close ~eps:1e-4 "negate size 3" (Array.map (fun x -> -.x) ab)
    (Eval.decrypt c secret (Eval.negate prod));
  check_close ~eps:1e-4 "add size 3 + size 3" (Array.map (fun x -> 2.0 *. x) ab)
    (Eval.decrypt c secret (Eval.add prod prod));
  let rs = Eval.rescale c prod in
  Alcotest.(check int) "rescale keeps size 3" 3 (Eval.size rs);
  Alcotest.(check int) "rescale drops level" 3 rs.Eval.level;
  check_close ~eps:1e-4 "rescale size 3" ab (Eval.decrypt c secret rs);
  let sw = Eval.mod_switch c prod in
  Alcotest.(check int) "mod_switch keeps size 3" 3 (Eval.size sw);
  check_close ~eps:1e-4 "mod_switch size 3" ab (Eval.decrypt c secret sw);
  (* The deferred relinearize still lands: one key switch at the end of
     the accumulated sum. *)
  let relin = Eval.relinearize c ks s3 in
  Alcotest.(check int) "back to size 2" 2 (Eval.size relin);
  check_close ~eps:1e-4 "relinearized sum" (Array.map2 ( +. ) ab d) (Eval.decrypt c secret relin)

let test_mod_switch () =
  let c = ctx () in
  let st = rng () in
  let secret, ks = Keys.generate c st ~galois_elts:[] in
  let scale = Float.ldexp 1.0 40 in
  let a = Array.init (Ctx.slots c) (fun i -> float_of_int (i mod 7) /. 7.0) in
  let ca = Eval.encrypt c ks st (Eval.encode c ~level:4 ~scale a) in
  let sw = Eval.mod_switch c ca in
  Alcotest.(check int) "level" 3 sw.Eval.level;
  Alcotest.(check (float 1.0)) "scale unchanged" ca.Eval.scale sw.Eval.scale;
  check_close ~eps:1e-5 "message unchanged" a (Eval.decrypt c secret sw)

let test_rotate () =
  let c = ctx () in
  let st = rng () in
  let slots = Ctx.slots c in
  let secret, ks =
    Keys.generate c st ~galois_elts:[ Ctx.galois_elt_rotate c 3; Ctx.galois_elt_rotate c (slots - 2) ]
  in
  let scale = Float.ldexp 1.0 40 in
  let slots = Ctx.slots c in
  let a = Array.init slots (fun i -> float_of_int i) in
  let ca = Eval.encrypt c ks st (Eval.encode c ~level:4 ~scale a) in
  let rot = Eval.rotate c ks ca 3 in
  let expect = Array.init slots (fun i -> a.((i + 3) mod slots)) in
  check_close ~eps:1e-3 "rotate left 3" expect (Eval.decrypt c secret rot);
  let rot_r = Eval.rotate c ks ca (-2) in
  let expect_r = Array.init slots (fun i -> a.(((i - 2) + slots) mod slots)) in
  check_close ~eps:1e-3 "rotate right 2" expect_r (Eval.decrypt c secret rot_r)

let test_rotate_zero_is_identity () =
  let c = ctx () in
  let st = rng () in
  let secret, ks = Keys.generate c st ~galois_elts:[] in
  let a = Array.init (Ctx.slots c) (fun i -> float_of_int i) in
  let ca = Eval.encrypt c ks st (Eval.encode c ~level:4 ~scale:(Float.ldexp 1.0 40) a) in
  check_close ~eps:1e-5 "rotate 0" a (Eval.decrypt c secret (Eval.rotate c ks ca 0))

(* Hoisted rotation is not just numerically close to the sequential
   path — it is the SAME ciphertext, residue for residue: both paths run
   the identical centered digit decomposition, and permuting NTT-domain
   digit rows commutes with decomposing the permuted polynomial. The
   property is checked over pseudorandom step lists (negative, zero and
   wrapping steps included) at two chain levels. *)
let test_rotate_hoisted_bit_exact () =
  let c = ctx () in
  let st = rng () in
  let slots = Ctx.slots c in
  let st2 = Random.State.make [| 77 |] in
  let step_lists =
    List.map (fun k -> List.init k (fun _ -> Random.State.int st2 (2 * slots) - slots)) [ 1; 2; 7; 16 ]
  in
  let norm s = ((s mod slots) + slots) mod slots in
  let needed =
    List.concat step_lists |> List.map norm
    |> List.filter (fun s -> s <> 0)
    |> List.sort_uniq compare
  in
  let _, ks = Keys.generate c st ~galois_elts:(List.map (Ctx.galois_elt_rotate c) needed) in
  let scale = Float.ldexp 1.0 40 in
  let a = Array.init slots (fun i -> Float.sin (float_of_int (3 * i)) /. 2.0) in
  List.iter
    (fun level ->
      let ca = Eval.encrypt c ks st (Eval.encode c ~level ~scale a) in
      List.iter
        (fun steps ->
          let naive = List.map (fun s -> Eval.rotate c ks ca s) steps in
          let hoisted = Eval.rotate_hoisted c ks ca steps in
          Alcotest.(check int) "result count" (List.length naive) (List.length hoisted);
          List.iter2
            (fun x y ->
              Alcotest.(check int) "level" x.Eval.level y.Eval.level;
              Alcotest.(check (float 0.0)) "scale" x.Eval.scale y.Eval.scale;
              Alcotest.(check int) "size" (Array.length x.Eval.polys) (Array.length y.Eval.polys);
              Array.iteri
                (fun i px ->
                  let rx = Eva_poly.Rns_poly.rows px
                  and ry = Eva_poly.Rns_poly.rows y.Eval.polys.(i) in
                  Array.iteri
                    (fun j row ->
                      if row <> ry.(j) then
                        Alcotest.failf "level %d: poly %d prime row %d differs" level i j)
                    rx)
                x.Eval.polys)
            naive hoisted)
        step_lists)
    [ 4; 2 ]

(* The decompose/apply split composes back to the one-shot switch:
   Keys.switch and decompose + apply_decomposed agree bit for bit (they
   share the decomposition code, so this guards the plumbing). *)
let test_switch_equals_decompose_apply () =
  let c = ctx () in
  let st = rng () in
  let _, ks = Keys.generate c st ~galois_elts:[] in
  let level = 4 in
  let poly = Eva_poly.Rns_poly.sample_uniform st ~tables:(Ctx.tables_for_level c level) in
  let d0, d1 = Keys.switch c ks.Keys.relin ~level poly in
  let dec = Keys.decompose c ~level poly in
  let e0, e1 = Keys.apply_decomposed c ks.Keys.relin dec in
  List.iter2
    (fun a b ->
      Array.iteri
        (fun j row ->
          if row <> (Eva_poly.Rns_poly.rows b).(j) then Alcotest.failf "switch row %d differs" j)
        (Eva_poly.Rns_poly.rows a))
    [ d0; d1 ] [ e0; e1 ]

(* Decomposition reads the input's NTT rows; coefficient input is a
   caller error, not a silent extra transform. *)
let test_decompose_rejects_coeff () =
  let c = ctx () in
  let st = rng () in
  let level = 4 in
  let poly = Eva_poly.Rns_poly.sample_uniform st ~tables:(Ctx.tables_for_level c level) in
  Eva_poly.Rns_poly.to_coeff poly;
  Alcotest.(check bool) "raises Invalid_argument" true
    (try
       ignore (Keys.decompose c ~level poly);
       false
     with Invalid_argument _ -> true)

let test_element_prime_ranges () =
  let c = ctx () in
  let ranges = Ctx.element_prime_ranges c in
  (* Chain [60;40;40;40]: two primes each at N=512 (min 11 bits). *)
  Alcotest.(check int) "elements" 4 (Array.length ranges);
  let total = Array.fold_left (fun acc (_, n) -> acc + n) 0 ranges in
  Alcotest.(check int) "covers data primes" (Ctx.num_data_primes c) total;
  Alcotest.(check bool) "contiguous" true
    (fst ranges.(0) = 0
    && Array.for_all Fun.id (Array.init 3 (fun i -> fst ranges.(i + 1) = fst ranges.(i) + snd ranges.(i))))

let test_total_log_q () =
  let c = ctx () in
  (* 60+40+40+40 data + 60 special, within a couple of bits (prime
     windows). *)
  let lq = Ctx.total_log_q c in
  Alcotest.(check bool) (Printf.sprintf "got %.1f" lq) true (lq > 235.0 && lq < 245.0)

let test_constraint_violations () =
  let c = ctx () in
  let st = rng () in
  let secret, ks = Keys.generate c st ~galois_elts:[] in
  ignore secret;
  let scale = Float.ldexp 1.0 40 in
  let a = Array.make (Ctx.slots c) 0.5 in
  let ca = Eval.encrypt c ks st (Eval.encode c ~level:4 ~scale a) in
  let cb = Eval.encrypt c ks st (Eval.encode c ~level:3 ~scale a) in
  Alcotest.(check bool) "level mismatch" true
    (try
       ignore (Eval.add ca cb);
       false
     with Eval.Level_mismatch _ -> true);
  let cc = Eval.encrypt c ks st (Eval.encode c ~level:4 ~scale:(Float.ldexp 1.0 30) a) in
  Alcotest.(check bool) "scale mismatch" true
    (try
       ignore (Eval.add ca cc);
       false
     with Eval.Scale_mismatch _ -> true);
  Alcotest.(check bool) "relin size" true
    (try
       ignore (Eval.relinearize c ks ca);
       false
     with Eval.Size_error _ -> true)

let test_depth_chain () =
  (* x^4 via two squarings with rescale after each: exercises the full
     mult -> relin -> rescale pipeline twice. *)
  let c = Ctx.make ~ignore_security:true ~n:512 ~data_bits:[ 40; 40; 40; 40 ] ~special_bits:[ 60 ] () in
  let st = rng () in
  let secret, ks = Keys.generate c st ~galois_elts:[] in
  let scale = Float.ldexp 1.0 40 in
  let a = Array.init (Ctx.slots c) (fun i -> 0.3 +. (float_of_int (i mod 3) /. 10.0)) in
  let ct = Eval.encrypt c ks st (Eval.encode c ~level:4 ~scale a) in
  let sq = Eval.rescale c (Eval.relinearize c ks (Eval.multiply ct ct)) in
  let q4 = Eval.rescale c (Eval.relinearize c ks (Eval.multiply sq sq)) in
  Alcotest.(check int) "level 2" 2 q4.Eval.level;
  check_close ~eps:1e-3 "x^4" (Array.map (fun x -> x ** 4.0) a) (Eval.decrypt c secret q4)

let prop_homomorphic_add =
  QCheck2.Test.make ~name:"homomorphic add matches plaintext" ~count:10 QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let c = ctx () in
      let st = Random.State.make [| seed |] in
      let secret, ks = Keys.generate c st ~galois_elts:[] in
      let scale = Float.ldexp 1.0 40 in
      let a = Array.init (Ctx.slots c) (fun _ -> Random.State.float st 2.0 -. 1.0) in
      let b = Array.init (Ctx.slots c) (fun _ -> Random.State.float st 2.0 -. 1.0) in
      let ca = Eval.encrypt c ks st (Eval.encode c ~level:4 ~scale a) in
      let cb = Eval.encrypt c ks st (Eval.encode c ~level:4 ~scale b) in
      let out = Eval.decrypt c secret (Eval.add ca cb) in
      Array.for_all2 (fun x y -> Float.abs (x -. y) < 1e-4) (Array.map2 ( +. ) a b) out)

(* {2 Allocation budgets}

   Residue rows live off the OCaml heap (Bigarray), so the GC-visible
   words of one call stay bounded by the remaining scratch: the Garner
   digit buffer (n words per decompose) plus fixed-size bookkeeping. A
   re-boxing regression (per-element or per-row OCaml arrays back in
   the hot path) blows through these at once. Measured over one call
   after one warm-up call; [Gc.allocated_bytes] counts minor and major
   allocation, so rows above the minor-heap cutoff are seen. *)
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
      let tables =
        Array.of_list
          (List.map (fun p -> Ntt.make ~n p) (Eva_rns.Primes.gen_chain ~bit_sizes:[ 30; 30; 30 ] ~two_n:(2 * n)))
      in
      let a = Rp.sample_uniform rng ~tables and b = Rp.sample_uniform rng ~tables in
      let check what budget f =
        let words = words_of_one_call f in
        if words > budget then
          Alcotest.failf "%s at N=2^%d: %.0f words/op exceeds budget %.0f" what log_n words budget
      in
      check "key switch" (float_of_int (8 * n) +. 65536.0) (fun () ->
          ignore (Keys.switch ctx keys.Keys.relin ~level c));
      check "pointwise multiply" 4096.0 (fun () -> ignore (Rp.mul a b)))
    [ 8; 12 ]

(* Keys are a function of the seed: every RLWE sample draws from its
   own stream, so which domain runs which job, which changes from run
   to run, changes no bit. At N = 2^12 each of the 13 jobs (public key,
   4 relin digits, 2 x 4 Galois digits) takes about a millisecond, so a
   second domain takes jobs. The RNG left after keygen is pinned too,
   through an encryption drawn from it. *)
let test_keygen_deterministic () =
  let ctx = Ctx.make ~ignore_security:true ~n:4096 ~data_bits:[ 60; 40; 40; 40 ] ~special_bits:[ 60 ] () in
  let elts = [ Ctx.galois_elt_rotate ctx 1; Ctx.galois_elt_rotate ctx 5 ] in
  let rows_of rows = Array.map Eva_rns.Rowvec.to_array rows in
  let key k =
    let kb, ka = Keys.switch_key_rows k in
    (Array.map rows_of kb, Array.map rows_of ka)
  in
  let snapshot () =
    let rng = Random.State.make [| 99 |] in
    let _, ks = Keys.generate ctx rng ~galois_elts:elts in
    let b, a = Keys.public_parts ks.Keys.public in
    let pt = Eval.encode ctx ~level:(Ctx.chain_length ctx) ~scale:(Float.ldexp 1.0 40) [| 0.5; -0.25 |] in
    let ct = Eval.encrypt ctx ks rng pt in
    ( (rows_of (Rp.rows b), rows_of (Rp.rows a)),
      key ks.Keys.relin,
      List.map (fun g -> key (Option.get (Keys.find_galois ks g))) elts,
      Array.map (fun p -> rows_of (Rp.rows p)) ct.Eval.polys )
  in
  let first = snapshot () in
  for run = 2 to 6 do
    let (pk, relin, galois, ct) = snapshot () and (pk1, relin1, galois1, ct1) = first in
    if pk <> pk1 then Alcotest.failf "run %d: public key differs from run 1" run;
    if relin <> relin1 then Alcotest.failf "run %d: relin key differs from run 1" run;
    if galois <> galois1 then Alcotest.failf "run %d: a Galois key differs from run 1" run;
    if ct <> ct1 then Alcotest.failf "run %d: encryption after keygen differs from run 1" run
  done

let rows_equal what a b =
  if Eva_rns.Rowvec.to_array a <> Eva_rns.Rowvec.to_array b then Alcotest.failf "%s differs" what

let polys_equal what a b =
  Array.iteri (fun j row -> rows_equal (Printf.sprintf "%s row %d" what j) row (Rp.rows b).(j)) (Rp.rows a)

let cts_equal what (a : Eval.ciphertext) (b : Eval.ciphertext) =
  Alcotest.(check int) (what ^ ": level") a.Eval.level b.Eval.level;
  Array.iteri (fun i p -> polys_equal (Printf.sprintf "%s poly %d" what i) p b.Eval.polys.(i)) a.Eval.polys

(* A key cut to depth d keeps the full key's first d digits, and of
   each the first d elements' rows then the special rows, bit for bit;
   keygen leaves the RNG where full keygen leaves it. At any level
   L <= d every key-switch path gives the full key's residues. *)
let prop_cut_keys_switch_like_full =
  QCheck2.Test.make ~name:"keys cut to depth d switch like full keys at L <= d" ~count:6
    QCheck2.Gen.(triple (int_range 0 10_000) (int_range 1 4) (int_range 1 4))
    (fun (seed, a, b) ->
      let d = max a b and level = min a b in
      let c = ctx () in
      let nd = Ctx.num_data_primes c and k = Ctx.prime_count_for_level c d in
      let steps = [ 1; 5; Ctx.slots c - 3 ] in
      let elts = List.map (Ctx.galois_elt_rotate c) steps in
      let keygen depths =
        let rng = Random.State.make [| seed |] in
        let keys = Keys.generate ?depths c rng ~galois_elts:elts in
        (keys, Random.State.bits rng)
      in
      let (secret, full), after_full = keygen None in
      let (_, cut), after_cut =
        keygen (Some { Keys.relin_depth = d; galois_depths = List.map (fun g -> (g, d)) elts })
      in
      Alcotest.(check int) "RNG state after keygen" after_full after_cut;
      let same_rows what fk ck =
        Alcotest.(check int) (what ^ ": depth") d (Keys.switch_key_depth ck);
        let fb, fa = Keys.switch_key_rows fk and cb, ca = Keys.switch_key_rows ck in
        Array.iteri
          (fun e digit ->
            Alcotest.(check int) (what ^ ": rows") (k + Ctx.num_special_primes c) (Array.length digit);
            Array.iteri
              (fun j row ->
                let src = if j < k then j else nd + (j - k) in
                rows_equal (Printf.sprintf "%s digit %d row %d (b)" what e j) fb.(e).(src) row;
                rows_equal (Printf.sprintf "%s digit %d row %d (a)" what e j) fa.(e).(src) ca.(e).(j))
              digit)
          cb
      in
      same_rows "relin" full.Keys.relin cut.Keys.relin;
      List.iter
        (fun g -> same_rows "galois" (Option.get (Keys.find_galois full g)) (Option.get (Keys.find_galois cut g)))
        elts;
      let st = Random.State.make [| seed; 1 |] in
      let poly = Rp.sample_uniform st ~tables:(Ctx.tables_for_level c level) in
      let pair what (x0, x1) (y0, y1) =
        polys_equal (what ^ " d0") x0 y0;
        polys_equal (what ^ " d1") x1 y1
      in
      pair "switch" (Keys.switch c full.Keys.relin ~level poly) (Keys.switch c cut.Keys.relin ~level poly);
      let g = List.hd elts in
      let dec = Keys.decompose c ~level poly in
      pair "apply_decomposed ~galois"
        (Keys.apply_decomposed ~galois:g c (Option.get (Keys.find_galois full g)) dec)
        (Keys.apply_decomposed ~galois:g c (Option.get (Keys.find_galois cut g)) dec);
      let v = Array.init (Ctx.slots c) (fun i -> Float.cos (float_of_int i) /. 2.0) in
      let ct = Eval.encrypt c full st (Eval.encode c ~level ~scale:(Float.ldexp 1.0 30) v) in
      List.iter2 (cts_equal "rotate_hoisted") (Eval.rotate_hoisted c full ct steps) (Eval.rotate_hoisted c cut ct steps);
      let sq = Eval.multiply ct ct in
      let relin = Eval.relinearize c cut sq in
      cts_equal "relinearize" (Eval.relinearize c full sq) relin;
      ignore (Eval.decrypt c secret relin);
      true)

(* A switch above a key's depth is EVA-E607 on every path, raised before
   the key's rows are read: a depth-0 relin key has no digits at all. *)
let test_switch_above_key_depth () =
  let c = ctx () in
  let st = rng () in
  let g = Ctx.galois_elt_rotate c 1 in
  let _, ks = Keys.generate ~depths:{ Keys.relin_depth = 0; galois_depths = [ (g, 2) ] } c st ~galois_elts:[ g ] in
  let key = Option.get (Keys.find_galois ks g) in
  let v = Array.make (Ctx.slots c) 0.25 in
  let ct = Eval.encrypt c ks st (Eval.encode c ~level:3 ~scale:(Float.ldexp 1.0 30) v) in
  let e607 what f =
    match f () with
    | _ -> Alcotest.failf "%s above the key's depth was accepted" what
    | exception Eva_diag.Diag.Error d ->
        Alcotest.(check int) what Eva_diag.Diag.crypto_key_depth d.Eva_diag.Diag.code;
        Alcotest.(check bool) (what ^ ": crypto layer") true (d.Eva_diag.Diag.layer = Eva_diag.Diag.Crypto)
  in
  e607 "relinearize" (fun () -> Eval.relinearize c ks (Eval.multiply ct ct));
  e607 "rotate" (fun () -> Eval.rotate c ks ct 1);
  e607 "rotate_hoisted" (fun () -> Eval.rotate_hoisted c ks ct [ 1 ]);
  e607 "apply_decomposed" (fun () -> Keys.apply_decomposed ~galois:g c key (Keys.decompose c ~level:3 ct.Eval.polys.(1)));
  (* At the key's depth the same rotation runs. *)
  let low = Eval.mod_switch c ct in
  Alcotest.(check int) "rotates at its depth" 2 (Eval.rotate c ks low 1).Eval.level

(* Client/server offload in memory: the server is a function of the
   context, the evaluation keyset and a ciphertext, none of which can
   hold the secret key; only the client decrypts its answer. *)
let test_client_server_compute () =
  let c = ctx () in
  let st = rng () in
  let secret, ks = Keys.generate c st ~galois_elts:[ Ctx.galois_elt_rotate c 1 ] in
  let v = Array.init (Ctx.slots c) (fun i -> Float.cos (float_of_int i) /. 2.0) in
  let ct = Eval.encrypt c ks st (Eval.encode c ~level:4 ~scale:(Float.ldexp 1.0 40) v) in
  let server ctx keys x = Eval.relinearize ctx keys (Eval.multiply x (Eval.rotate ctx keys x 1)) in
  let slots = Ctx.slots c in
  check_close ~eps:1e-3 "x * rot(x, 1)"
    (Array.init slots (fun i -> v.(i) *. v.((i + 1) mod slots)))
    (Eval.decrypt c secret (server c ks ct))

(* The evaluator never creates a key: a server holding only the keyset
   it was handed cannot rotate by a step the client gave it no key for. *)
let test_missing_key_raises () =
  let c = ctx () in
  let st = rng () in
  let _secret, ks = Keys.generate c st ~galois_elts:[] in
  let v = Array.make (Ctx.slots c) 0.5 in
  let ct = Eval.encrypt c ks st (Eval.encode c ~level:4 ~scale:(Float.ldexp 1.0 40) v) in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Eval.rotate c ks ct 2);
       false
     with Eval.Missing_galois_key _ -> true)

let () =
  let qt t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "ckks"
    [
      ( "security",
        [
          Alcotest.test_case "standard table" `Quick test_security_table;
          Alcotest.test_case "insecure rejected" `Quick test_context_rejects_insecure;
        ] );
      ( "encoding",
        [
          Alcotest.test_case "embedding round trip" `Quick test_embedding_round_trip;
          Alcotest.test_case "encode/decode" `Quick test_encode_decode;
          Alcotest.test_case "replication" `Quick test_encode_replicates;
        ] );
      ( "scheme",
        [
          Alcotest.test_case "encrypt/decrypt" `Quick test_encrypt_decrypt;
          Alcotest.test_case "add/sub/neg" `Quick test_add_sub;
          Alcotest.test_case "plaintext ops" `Quick test_plain_ops;
          Alcotest.test_case "multiply/relin/rescale" `Quick test_multiply_relin_rescale;
          Alcotest.test_case "mixed-size linear ops" `Quick test_mixed_size_linear_ops;
          Alcotest.test_case "mod_switch" `Quick test_mod_switch;
          Alcotest.test_case "rotate" `Quick test_rotate;
          Alcotest.test_case "rotate 0" `Quick test_rotate_zero_is_identity;
          Alcotest.test_case "hoisted rotation bit-exact" `Quick test_rotate_hoisted_bit_exact;
          Alcotest.test_case "switch = decompose;apply" `Quick test_switch_equals_decompose_apply;
          Alcotest.test_case "decompose rejects coefficient form" `Quick test_decompose_rejects_coeff;
          Alcotest.test_case "depth-2 chain" `Quick test_depth_chain;
        ] );
      ( "context",
        [
          Alcotest.test_case "element prime ranges" `Quick test_element_prime_ranges;
          Alcotest.test_case "total log Q" `Quick test_total_log_q;
        ] );
      ("failure injection", [ Alcotest.test_case "constraint violations" `Quick test_constraint_violations ]);
      ("kernels", [ Alcotest.test_case "words/op within allocation budgets" `Quick test_allocation_budgets ]);
      ( "keys",
        [
          Alcotest.test_case "keygen is a function of the seed" `Quick test_keygen_deterministic;
          Alcotest.test_case "switch above key depth is E607" `Quick test_switch_above_key_depth;
          qt prop_cut_keys_switch_like_full;
        ] );
      ( "trust boundary",
        [
          Alcotest.test_case "client/server compute" `Quick test_client_server_compute;
          Alcotest.test_case "missing key raises" `Quick test_missing_key_raises;
        ] );
      ("property", [ qt prop_homomorphic_add ]);
    ]
