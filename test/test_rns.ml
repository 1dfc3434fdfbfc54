module M = Eva_rns.Modarith
module P = Eva_rns.Primes
module Ntt = Eva_rns.Ntt
module Rv = Eva_rns.Rowvec
module Rp = Eva_poly.Rns_poly

let test_modarith_basics () =
  let m = 97 in
  Alcotest.(check int) "add wrap" 1 (M.add 50 48 m);
  Alcotest.(check int) "sub wrap" 96 (M.sub 0 1 m);
  Alcotest.(check int) "neg" 90 (M.neg 7 m);
  Alcotest.(check int) "neg zero" 0 (M.neg 0 m);
  Alcotest.(check int) "mul" (50 * 48 mod 97) (M.mul 50 48 m);
  Alcotest.(check int) "pow" (M.mul (M.mul 3 3 m) 3 m) (M.pow 3 3 m);
  Alcotest.(check int) "pow zero" 1 (M.pow 5 0 m)

let test_inv () =
  let m = 1073741789 in
  List.iter
    (fun a -> Alcotest.(check int) (Printf.sprintf "inv %d" a) 1 (M.mul a (M.inv a m) m))
    [ 1; 2; 12345; m - 1; 536870912 ];
  Alcotest.check_raises "inv 0" (Invalid_argument "Modarith.inv: zero") (fun () -> ignore (M.inv 0 m))

let test_is_prime () =
  let primes = [ 2; 3; 5; 7; 97; 786433; 1073741789; (1 lsl 30) + 3 ] in
  let composites = [ 0; 1; 4; 9; 561; 1105; 1729; 1073741790; 25326001 ] in
  List.iter (fun p -> Alcotest.(check bool) (string_of_int p) true (M.is_prime p)) primes;
  List.iter (fun c -> Alcotest.(check bool) (string_of_int c) false (M.is_prime c)) composites

let test_prime_gen () =
  let two_n = 8192 in
  let p = P.gen ~bits:30 ~two_n ~avoid:(fun _ -> false) in
  Alcotest.(check bool) "is prime" true (M.is_prime p);
  Alcotest.(check int) "congruent" 1 (p mod two_n);
  Alcotest.(check bool) "bit size" true (p < 1 lsl 30 && p >= 1 lsl 29);
  let chain = P.gen_chain ~bit_sizes:[ 30; 30; 30; 25 ] ~two_n in
  Alcotest.(check int) "chain length" 4 (List.length chain);
  Alcotest.(check int) "distinct" 4 (List.length (List.sort_uniq compare chain))

let test_min_bits () =
  Alcotest.(check int) "2N=8192" 14 (P.min_bits ~two_n:8192);
  Alcotest.(check int) "2N=2^17" 18 (P.min_bits ~two_n:(1 lsl 17))

let test_primitive_root () =
  let two_n = 2048 in
  let p = P.gen ~bits:25 ~two_n ~avoid:(fun _ -> false) in
  let r = P.primitive_root ~two_n p in
  Alcotest.(check int) "order divides" 1 (M.pow r two_n p);
  Alcotest.(check int) "exact order" (p - 1) (M.pow r (two_n / 2) p)

(* Every (x, w) pair below a handful of small moduli, with x ranging
   over the full lazy domain [0, 2p): catches off-by-one errors in the
   Shoup quotient estimate that random sampling could miss. *)
let test_shoup_exhaustive () =
  List.iter
    (fun p ->
      for w = 0 to p - 1 do
        let w' = M.shoup w p in
        for x = 0 to (2 * p) - 1 do
          let expect = x * w mod p in
          let lazy_r = M.mul_shoup_lazy x w w' p in
          if lazy_r < 0 || lazy_r >= 2 * p then
            Alcotest.failf "lazy out of [0,2p): p=%d w=%d x=%d r=%d" p w x lazy_r;
          if lazy_r mod p <> expect then
            Alcotest.failf "lazy wrong residue: p=%d w=%d x=%d" p w x;
          if M.mul_shoup x w w' p <> expect then
            Alcotest.failf "mul_shoup: p=%d w=%d x=%d" p w x
        done
      done)
    [ 2; 3; 17; 97; 257 ]

let test_barrett_exhaustive () =
  List.iter
    (fun p ->
      let br = M.barrett p in
      for x = 0 to p - 1 do
        for y = 0 to p - 1 do
          if M.barrett_mul br x y <> x * y mod p then Alcotest.failf "barrett_mul: p=%d x=%d y=%d" p x y
        done
      done)
    [ 2; 3; 17; 97; 257 ]

let test_shoup_barrett_random () =
  (* ~30-bit primes exercise the top of the supported modulus range,
     where the beta = 2^31 quotient estimates are tightest. *)
  let st = Random.State.make [| 2024 |] in
  List.iter
    (fun bits ->
      let p = P.gen ~bits ~two_n:64 ~avoid:(fun _ -> false) in
      let br = M.barrett p in
      for _ = 1 to 2000 do
        (* Random.int caps its bound at 2^30, so build a lazy-domain
           sample as residue + optional extra p. *)
        let x = Random.State.int st p + (if Random.State.bool st then p else 0) in
        let w = Random.State.int st p in
        let w' = M.shoup w p in
        let expect = M.mul (x mod p) w p in
        Alcotest.(check int) "shoup vs mul" expect (M.mul_shoup x w w' p);
        let lazy_r = M.mul_shoup_lazy x w w' p in
        Alcotest.(check bool) "lazy bound" true (lazy_r >= 0 && lazy_r < 2 * p);
        let a = Random.State.int st p and b = Random.State.int st p in
        Alcotest.(check int) "barrett vs mul" (M.mul a b p) (M.barrett_mul br a b)
      done;
      (* barrett_reduce31 edge values across its whole z < 2^31 domain. *)
      List.iter
        (fun z -> Alcotest.(check int) (Printf.sprintf "reduce31 %d" z) (z mod p) (M.barrett_reduce31 br z))
        [ 0; 1; p - 1; p; p + 1; (2 * p) - 1; 2 * p; (1 lsl 31) - 1 ])
    [ 20; 28; 30 ]

let test_shoup_guards () =
  Alcotest.check_raises "shoup w >= p" (Invalid_argument "Modarith.shoup: factor out of [0, p)") (fun () ->
      ignore (M.shoup 97 97));
  Alcotest.check_raises "barrett modulus too big" (Invalid_argument "Modarith.barrett: modulus out of [2, 2^30)")
    (fun () -> ignore (M.barrett (1 lsl 30)))

let naive_negacyclic_mul a b p =
  let n = Array.length a in
  let r = Array.make n 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let k = i + j in
      let prod = M.mul a.(i) b.(j) p in
      if k < n then r.(k) <- M.add r.(k) prod p else r.(k - n) <- M.sub r.(k - n) prod p
    done
  done;
  r

let test_ntt_round_trip () =
  let n = 64 in
  let p = P.gen ~bits:25 ~two_n:(2 * n) ~avoid:(fun _ -> false) in
  let tb = Ntt.make ~n p in
  let st = Random.State.make [| 42 |] in
  let a = Array.init n (fun _ -> Random.State.int st p) in
  let c = Rv.of_array a in
  Ntt.forward tb c;
  Alcotest.(check bool) "changed" true (Rv.to_array c <> a);
  Ntt.inverse tb c;
  Alcotest.(check (array int)) "round trip" a (Rv.to_array c)

let test_ntt_convolution () =
  let n = 32 in
  let p = P.gen ~bits:25 ~two_n:(2 * n) ~avoid:(fun _ -> false) in
  let tb = Ntt.make ~n p in
  let st = Random.State.make [| 7 |] in
  let a = Array.init n (fun _ -> Random.State.int st p) in
  let b = Array.init n (fun _ -> Random.State.int st p) in
  let expect = naive_negacyclic_mul a b p in
  let fa = Rv.of_array a and fb = Rv.of_array b in
  Ntt.forward tb fa;
  Ntt.forward tb fb;
  let prod = Rv.init n (fun i -> M.mul (Rv.get fa i) (Rv.get fb i) p) in
  Ntt.inverse tb prod;
  Alcotest.(check (array int)) "negacyclic convolution" expect (Rv.to_array prod)

let test_ntt_round_trip_chain () =
  (* Round trip under every prime of a realistic chain, including 30-bit
     primes where the lazy [0, 2p) bound is closest to overflowing. *)
  let n = 64 in
  let chain = P.gen_chain ~bit_sizes:[ 30; 30; 28; 25 ] ~two_n:(2 * n) in
  let st = Random.State.make [| 99 |] in
  List.iter
    (fun p ->
      let tb = Ntt.make ~n p in
      let a = Array.init n (fun _ -> Random.State.int st p) in
      let c = Rv.of_array a in
      Ntt.forward tb c;
      Array.iter (fun x -> Alcotest.(check bool) "forward reduced" true (x >= 0 && x < p)) (Rv.to_array c);
      Ntt.inverse tb c;
      Alcotest.(check (array int)) (Printf.sprintf "round trip mod %d" p) a (Rv.to_array c))
    chain

let test_galois_perm_cached () =
  let n = 64 in
  let chain = P.gen_chain ~bit_sizes:[ 25; 25 ] ~two_n:(2 * n) in
  let ta = Ntt.make ~n (List.nth chain 0) and tb = Ntt.make ~n (List.nth chain 1) in
  let p1 = Ntt.galois_permutation ta 5 in
  let p2 = Ntt.galois_permutation ta 5 in
  Alcotest.(check bool) "same call is cached" true (p1 == p2);
  (* The permutation only depends on (n, g): a different prime hits the
     same cache entry. *)
  let p3 = Ntt.galois_permutation tb 5 in
  Alcotest.(check bool) "cache is prime independent" true (p1 == p3);
  let p4 = Ntt.galois_permutation ta 7 in
  Alcotest.(check bool) "different g differs" false (p1 == p4)

(* Row access is declared as Bigarray primitives: the checked forms must
   still raise on any out-of-range index (views included) and the
   unchecked forms must round-trip every native int. *)
let test_rowvec_access () =
  let v = Rv.make 8 in
  Alcotest.(check int) "length" 8 (Rv.length v);
  let words = [| 0; 1; -1; max_int; min_int; 1073741789; -42; 7 |] in
  Array.iteri (fun i x -> Rv.unsafe_set v i x) words;
  Array.iteri (fun i x -> Alcotest.(check int) (Printf.sprintf "unsafe word %d" i) x (Rv.unsafe_get v i)) words;
  Array.iteri (fun i x -> Alcotest.(check int) (Printf.sprintf "checked word %d" i) x (Rv.get v i)) words;
  Rv.set v 5 123;
  Alcotest.(check int) "set then unsafe_get" 123 (Rv.unsafe_get v 5);
  let w = Rv.sub v 2 4 in
  Alcotest.(check int) "view length" 4 (Rv.length w);
  Alcotest.(check int) "view aliases" (Rv.get v 2) (Rv.unsafe_get w 0);
  let raises what f =
    match f () with
    | () -> Alcotest.failf "%s: no exception" what
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun (name, row, i) ->
      raises (Printf.sprintf "get %s %d" name i) (fun () -> ignore (Rv.get row i));
      raises (Printf.sprintf "set %s %d" name i) (fun () -> Rv.set row i 0))
    [ ("row", v, -1); ("row", v, 8); ("row", v, max_int); ("view", w, 4); ("view", w, -1) ];
  Alcotest.(check (array int)) "failed sets wrote nothing" [| 0; 1; -1; max_int; min_int; 123; -42; 7 |]
    (Rv.to_array v)

(* CRT conversions run through [Rns_poly]'s coefficient conversions on
   degree-2 polynomials (the smallest NTT ring, so every prime is 1 mod
   4); coefficient 0 carries the value under test. *)
let crt_tables primes = Array.of_list (List.map (fun p -> Ntt.make ~n:2 p) primes)

let residues_of tables x =
  Array.map (fun row -> Rv.get row 0) (Rp.rows (Rp.of_float_coeffs ~tables [| x; 0.0 |]))

let value_of tables residues =
  let t = Rp.of_float_coeffs ~tables [| 0.0; 0.0 |] in
  Array.iteri (fun i r -> Rv.set (Rp.rows t).(i) 0 r) residues;
  (Rp.to_float_coeffs t).(0)

let test_crt_round_trip () =
  let st = Random.State.make [| 3 |] in
  List.iter
    (fun primes ->
      let tables = crt_tables primes in
      let half = Array.fold_left (fun acc p -> acc *. float_of_int p) 0.5 (Array.of_list primes) in
      for _ = 1 to 50 do
        (* An integral double below 2^61 in magnitude: decoding is exact. *)
        let x = Float.trunc (Random.State.float st 0x1p61) in
        let x = if Random.State.bool st then x else -.x in
        let residues = residues_of tables x in
        Array.iteri
          (fun i r ->
            let p = List.nth primes i in
            Alcotest.(check int) "residue" (((Float.to_int x mod p) + p) mod p) r)
          residues;
        let y = value_of tables residues in
        Alcotest.(check bool) "in range" true (Float.abs y < half);
        Alcotest.(check (float 0.0)) "value" x y
      done)
    [
      [ 1073741789; 1073741741; 536870909 ];
      (* A long chain exercises every (i, j) pair of Garner's precomputed
         inverse products. *)
      P.gen_chain ~bit_sizes:(List.init 8 (fun _ -> 30)) ~two_n:2048;
    ]

let test_crt_centered () =
  let tables = crt_tables [ 97; 101 ] in
  (* x = -5: residues (92, 96). *)
  Alcotest.(check (float 0.0)) "negative recovered" (-5.0) (value_of tables [| 92; 96 |]);
  Alcotest.(check (float 0.0)) "positive recovered" 5.0 (value_of tables [| 5; 5 |])

let test_crt_residues () =
  let tables = crt_tables [ 97; 101; 109 ] in
  Alcotest.(check (array int))
    "residues" [| 123456 mod 97; 123456 mod 101; 123456 mod 109 |] (residues_of tables 123456.0)

let prop_ntt_linear =
  QCheck2.Test.make ~name:"NTT is linear" ~count:50
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 0 1000))
    (fun (s1, s2) ->
      let n = 16 in
      let p = P.gen ~bits:20 ~two_n:(2 * n) ~avoid:(fun _ -> false) in
      let tb = Ntt.make ~n p in
      let st = Random.State.make [| s1; s2 |] in
      let a = Rv.init n (fun _ -> Random.State.int st p) in
      let b = Rv.init n (fun _ -> Random.State.int st p) in
      let sum = Rv.init n (fun i -> M.add (Rv.get a i) (Rv.get b i) p) in
      Ntt.forward tb a;
      Ntt.forward tb b;
      Ntt.forward tb sum;
      Array.for_all2
        (fun x y -> x = y)
        (Rv.to_array sum)
        (Array.init n (fun i -> M.add (Rv.get a i) (Rv.get b i) p)))

let prop_garner_random =
  QCheck2.Test.make ~name:"Garner reconstruction vs direct residues" ~count:100
    QCheck2.Gen.(int_range 0 (1 lsl 55))
    (fun v ->
      let tables = crt_tables [ 1073741789; 1073741741 ] in
      let x = float_of_int v in
      value_of tables (residues_of tables x) = x)

let () =
  let qt t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "rns"
    [
      ( "modarith",
        [
          Alcotest.test_case "basics" `Quick test_modarith_basics;
          Alcotest.test_case "inverse" `Quick test_inv;
          Alcotest.test_case "is_prime" `Quick test_is_prime;
          Alcotest.test_case "shoup exhaustive" `Quick test_shoup_exhaustive;
          Alcotest.test_case "barrett exhaustive" `Quick test_barrett_exhaustive;
          Alcotest.test_case "shoup/barrett random 30-bit" `Quick test_shoup_barrett_random;
          Alcotest.test_case "guards" `Quick test_shoup_guards;
        ] );
      ( "primes",
        [
          Alcotest.test_case "gen" `Quick test_prime_gen;
          Alcotest.test_case "min_bits" `Quick test_min_bits;
          Alcotest.test_case "primitive root" `Quick test_primitive_root;
        ] );
      ( "ntt",
        [
          Alcotest.test_case "round trip" `Quick test_ntt_round_trip;
          Alcotest.test_case "convolution theorem" `Quick test_ntt_convolution;
          Alcotest.test_case "round trip over a chain" `Quick test_ntt_round_trip_chain;
          Alcotest.test_case "galois permutation cache" `Quick test_galois_perm_cached;
        ] );
      ("rowvec", [ Alcotest.test_case "checked and unchecked access" `Quick test_rowvec_access ]);
      ( "crt",
        [
          Alcotest.test_case "round trip" `Quick test_crt_round_trip;
          Alcotest.test_case "centered" `Quick test_crt_centered;
          Alcotest.test_case "residues" `Quick test_crt_residues;
        ] );
      ("property", [ qt prop_ntt_linear; qt prop_garner_random ]);
    ]
