module Rp = Eva_poly.Rns_poly
module P = Eva_rns.Primes
module Ntt = Eva_rns.Ntt

let make_tables ~n bit_sizes =
  let primes = P.gen_chain ~bit_sizes ~two_n:(2 * n) in
  Array.of_list (List.map (fun p -> Ntt.make ~n p) primes)

let poly_of_ints ~tables ints = Rp.of_float_coeffs ~tables (Array.map float_of_int ints)

let ints_of_poly p = Array.map Float.to_int (Rp.to_float_coeffs p)

let n = 16
let tables () = make_tables ~n [ 25; 25; 24 ]

let test_zero () =
  let z = Rp.zero ~tables:(tables ()) in
  Alcotest.(check bool) "ntt form" true (Rp.is_ntt z);
  Alcotest.(check (array int)) "all zero" (Array.make n 0) (ints_of_poly z)

let test_round_trip () =
  let tb = tables () in
  let coeffs = Array.init n (fun i -> (i * 7) - 31) in
  let p = poly_of_ints ~tables:tb coeffs in
  Alcotest.(check (array int)) "coeff round trip" coeffs (ints_of_poly p);
  Rp.to_ntt p;
  Rp.to_coeff p;
  Alcotest.(check (array int)) "ntt round trip" coeffs (ints_of_poly p)

let test_add_sub_neg () =
  let tb = tables () in
  let a = poly_of_ints ~tables:tb (Array.init n (fun i -> i - 5)) in
  let b = poly_of_ints ~tables:tb (Array.init n (fun i -> (3 * i) + 1)) in
  Alcotest.(check (array int)) "add" (Array.init n (fun i -> (i - 5) + (3 * i) + 1)) (ints_of_poly (Rp.add a b));
  Alcotest.(check (array int)) "sub" (Array.init n (fun i -> i - 5 - ((3 * i) + 1))) (ints_of_poly (Rp.sub a b));
  Alcotest.(check (array int)) "neg" (Array.init n (fun i -> 5 - i)) (ints_of_poly (Rp.neg a))

let test_mul_matches_naive () =
  (* (1 + X) * (2 + X) = 2 + 3X + X^2 in the negacyclic ring. *)
  let tb = tables () in
  let a = poly_of_ints ~tables:tb (Array.init n (fun i -> if i <= 1 then 1 else 0)) in
  let b = poly_of_ints ~tables:tb (Array.init n (fun i -> match i with 0 -> 2 | 1 -> 1 | _ -> 0)) in
  Rp.to_ntt a;
  Rp.to_ntt b;
  let c = Rp.mul a b in
  let expect = Array.make n 0 in
  expect.(0) <- 2;
  expect.(1) <- 3;
  expect.(2) <- 1;
  Alcotest.(check (array int)) "product" expect (ints_of_poly c)

let test_negacyclic_wrap () =
  (* X^(n-1) * X = -1. *)
  let tb = tables () in
  let a = poly_of_ints ~tables:tb (Array.init n (fun i -> if i = n - 1 then 1 else 0)) in
  let b = poly_of_ints ~tables:tb (Array.init n (fun i -> if i = 1 then 1 else 0)) in
  Rp.to_ntt a;
  Rp.to_ntt b;
  let c = ints_of_poly (Rp.mul a b) in
  Alcotest.(check int) "constant term" (-1) c.(0);
  Alcotest.(check bool) "rest zero" true (Array.for_all (fun x -> x = 0) (Array.sub c 1 (n - 1)))

let test_mul_scalar () =
  let tb = tables () in
  let a = poly_of_ints ~tables:tb (Array.init n (fun i -> i)) in
  Alcotest.(check (array int)) "x7" (Array.init n (fun i -> 7 * i)) (ints_of_poly (Rp.mul_scalar_int a 7));
  Alcotest.(check (array int)) "x-3" (Array.init n (fun i -> -3 * i)) (ints_of_poly (Rp.mul_scalar_int a (-3)))

let test_drop_last () =
  let tb = tables () in
  let a = poly_of_ints ~tables:tb (Array.init n (fun i -> i - 8)) in
  let d = Rp.drop_last a in
  Alcotest.(check int) "one fewer prime" 2 (Rp.num_primes d);
  Alcotest.(check (array int)) "coeffs preserved (small)" (Array.init n (fun i -> i - 8)) (ints_of_poly d)

let test_rescale_last () =
  let tb = tables () in
  let p_last = Ntt.modulus tb.(2) in
  (* Coefficients that are exact multiples of the dropped prime divide
     exactly. *)
  let a = poly_of_ints ~tables:tb (Array.init n (fun i -> (i - 4) * p_last)) in
  let r = Rp.rescale_last a in
  Alcotest.(check int) "primes" 2 (Rp.num_primes r);
  Alcotest.(check (array int)) "divided" (Array.init n (fun i -> i - 4)) (ints_of_poly r);
  (* Non-multiples round to the nearest integer. *)
  let b = poly_of_ints ~tables:tb (Array.init n (fun i -> (i * p_last) + 3)) in
  let rb = Rp.rescale_last b in
  Alcotest.(check (array int)) "rounded" (Array.init n (fun i -> i)) (ints_of_poly rb)

let test_rescale_preserves_form () =
  let tb = tables () in
  let a = poly_of_ints ~tables:tb (Array.init n (fun i -> i)) in
  Rp.to_ntt a;
  Alcotest.(check bool) "stays ntt" true (Rp.is_ntt (Rp.rescale_last a));
  let b = poly_of_ints ~tables:tb (Array.init n (fun i -> i)) in
  Alcotest.(check bool) "stays coeff" false (Rp.is_ntt (Rp.rescale_last b))

let test_galois () =
  (* X -> X^3 maps X to X^3 and X^6 to X^18 = -X^2 (n = 16). *)
  let tb = tables () in
  let a = poly_of_ints ~tables:tb (Array.init n (fun i -> if i = 1 then 5 else if i = 6 then 7 else 0)) in
  let g = ints_of_poly (Rp.galois a 3) in
  Alcotest.(check int) "X^3 coeff" 5 g.(3);
  Alcotest.(check int) "X^2 coeff" (-7) g.(2);
  let nonzero = Array.to_list g |> List.filter (fun x -> x <> 0) in
  Alcotest.(check int) "only two terms" 2 (List.length nonzero)

let test_galois_ntt_matches_coeff () =
  (* The evaluation-domain permutation must agree with the
     coefficient-domain automorphism for every odd exponent. *)
  let tb = tables () in
  let st = Random.State.make [| 13 |] in
  let coeffs = Array.init n (fun _ -> Random.State.int st 1000 - 500) in
  let odd_gs = List.init n (fun k -> (2 * k) + 1) in
  List.iter
    (fun g ->
      let a = poly_of_ints ~tables:tb coeffs in
      let expected = ints_of_poly (Rp.galois a g) in
      let b = poly_of_ints ~tables:tb coeffs in
      Rp.to_ntt b;
      let got = ints_of_poly (Rp.galois b g) in
      if expected <> got then Alcotest.failf "galois NTT path disagrees at g = %d" g)
    odd_gs

let test_galois_composition () =
  let tb = tables () in
  let st = Random.State.make [| 11 |] in
  let a = poly_of_ints ~tables:tb (Array.init n (fun _ -> Random.State.int st 100 - 50)) in
  let g1 = Rp.galois (Rp.galois a 3) 5 in
  let g2 = Rp.galois a (3 * 5 mod (2 * n)) in
  Alcotest.(check (array int)) "galois composes" (ints_of_poly g2) (ints_of_poly g1)

let test_modulus_mismatch () =
  let a = poly_of_ints ~tables:(tables ()) (Array.make n 1) in
  let b = poly_of_ints ~tables:(make_tables ~n [ 25; 25 ]) (Array.make n 1) in
  Alcotest.check_raises "mismatch raises" (Rp.Modulus_mismatch "add") (fun () -> ignore (Rp.add a b))

let test_sampling () =
  let tb = tables () in
  let st = Random.State.make [| 5 |] in
  let t = Rp.sample_ternary st ~tables:tb in
  Array.iter (fun c -> Alcotest.(check bool) "ternary" true (List.mem c [ -1; 0; 1 ])) (ints_of_poly t);
  let e = Rp.sample_error st ~tables:tb in
  Array.iter (fun c -> Alcotest.(check bool) "error bounded" true (abs c <= 21)) (ints_of_poly e)

(* {2 Sampler distributions}

   2^16 draws from one stream, checked against the exact distribution:
   a chi-square statistic against its upper 10^-5 quantile
   (Wilson-Hilferty), means and variances within five standard errors
   of their sample size. *)
let draws = 1 lsl 16
let dist_n = 4096

let chi_square_limit df =
  let df = float_of_int df in
  let h = 2.0 /. (9.0 *. df) in
  df *. ((1.0 -. h +. (4.265 *. sqrt h)) ** 3.0)

let check_chi_square what observed expected =
  let stat = ref 0.0 in
  Array.iteri (fun i e -> stat := !stat +. (((float_of_int observed.(i) -. e) ** 2.0) /. e)) expected;
  let limit = chi_square_limit (Array.length expected - 1) in
  if !stat > limit then Alcotest.failf "%s: chi-square %.1f over %d bins exceeds %.1f" what !stat (Array.length expected) limit

(* [f i r] on every residue [r] of row [i], over [draws / dist_n] samples;
   error and ternary samples are read in coefficient form. *)
let iter_draws sampler ~tables ~coeff f =
  let st = Random.State.make [| 41 |] in
  for _ = 1 to draws / dist_n do
    let t = sampler st ~tables in
    if coeff then Rp.to_coeff t;
    Array.iteri
      (fun i row ->
        for j = 0 to Eva_rns.Rowvec.length row - 1 do
          f i (Eva_rns.Rowvec.get row j)
        done)
      (Rp.rows t)
  done

let centered p r = if r > p / 2 then r - p else r

let test_error_distribution () =
  let tables = make_tables ~n:dist_n [ 30 ] in
  let p = Ntt.modulus tables.(0) in
  let counts = Array.make 43 0 and sum = ref 0 and sum_sq = ref 0 in
  iter_draws Rp.sample_error ~tables ~coeff:true (fun _ r ->
      let c = centered p r in
      if abs c > 21 then Alcotest.failf "error coefficient %d outside [-21, 21]" c;
      counts.(c + 21) <- counts.(c + 21) + 1;
      sum := !sum + c;
      sum_sq := !sum_sq + (c * c));
  (* c + 21 ~ Binomial(42, 1/2); tails with fewer than 5 expected
     draws fold into the outermost kept bins. *)
  let choose k = List.fold_left (fun acc i -> acc *. float_of_int (42 - k + i) /. float_of_int i) 1.0 (List.init k succ) in
  let expected = Array.init 43 (fun k -> float_of_int draws *. choose k /. 0x1p42) in
  let lo = ref 0 in
  while expected.(!lo) < 5.0 do
    incr lo
  done;
  let bin k = min (max k !lo) (42 - !lo) - !lo in
  let observed = Array.make (43 - (2 * !lo)) 0 and expected' = Array.make (43 - (2 * !lo)) 0.0 in
  for k = 0 to 42 do
    observed.(bin k) <- observed.(bin k) + counts.(k);
    expected'.(bin k) <- expected'.(bin k) +. expected.(k)
  done;
  check_chi_square "sample_error" observed expected';
  let nf = float_of_int draws in
  let mean = float_of_int !sum /. nf in
  let var = (float_of_int !sum_sq /. nf) -. (mean *. mean) in
  (* Variance 10.5; the fourth central moment of the centered
     Binomial(42, 1/2) is 3 * 10.5^2 + 10.5 * (1 - 6/4) = 325.5. *)
  if Float.abs mean > 5.0 *. sqrt (10.5 /. nf) then Alcotest.failf "error mean %.4f" mean;
  if Float.abs (var -. 10.5) > 5.0 *. sqrt ((325.5 -. (10.5 *. 10.5)) /. nf) then Alcotest.failf "error variance %.4f" var

let test_uniform_distribution () =
  (* The largest 30-bit NTT prime rejects almost nothing; 2^16 + 1 is
     just above a power of two, the worst case: about half the
     candidates are rejected. *)
  let p30 = P.gen ~bits:30 ~two_n:(2 * dist_n) ~avoid:(fun _ -> false) in
  let primes = [| p30; 65537 |] in
  let tables = Array.map (Ntt.make ~n:dist_n) primes in
  let counts = Array.make_matrix 2 64 0 in
  iter_draws Rp.sample_uniform ~tables ~coeff:false (fun i r ->
      let p = primes.(i) in
      if r < 0 || r >= p then Alcotest.failf "residue %d outside [0, %d)" r p;
      let b = r * 64 / p in
      counts.(i).(b) <- counts.(i).(b) + 1);
  Array.iteri
    (fun i p ->
      (* Bucket b holds the residues r with r * 64 / p = b. *)
      let first b = ((b * p) + 63) / 64 in
      let expected = Array.init 64 (fun b -> float_of_int (draws * (first (b + 1) - first b)) /. float_of_int p) in
      check_chi_square (Printf.sprintf "sample_uniform mod %d" p) counts.(i) expected)
    primes

let test_ternary_distribution () =
  let tables = make_tables ~n:dist_n [ 30 ] in
  let p = Ntt.modulus tables.(0) in
  let counts = Array.make 3 0 in
  iter_draws Rp.sample_ternary ~tables ~coeff:true (fun _ r ->
      let c = centered p r in
      if abs c > 1 then Alcotest.failf "ternary coefficient %d" c;
      counts.(c + 1) <- counts.(c + 1) + 1);
  let nf = float_of_int draws in
  let sd = sqrt (nf *. (1.0 /. 3.0) *. (2.0 /. 3.0)) in
  Array.iteri
    (fun i k ->
      if Float.abs (float_of_int k -. (nf /. 3.0)) > 5.0 *. sd then
        Alcotest.failf "ternary value %d drawn %d times of %d" (i - 1) k draws)
    counts

(* Schoolbook negacyclic product over the integers; coefficients are
   small enough that native ints are exact, so this is an independent
   reference for the NTT/Barrett path via to_float_coeffs. *)
let schoolbook_negacyclic a b =
  let n = Array.length a in
  let r = Array.make n 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let k = i + j in
      if k < n then r.(k) <- r.(k) + (a.(i) * b.(j)) else r.(k - n) <- r.(k - n) - (a.(i) * b.(j))
    done
  done;
  r

let prop_mul_matches_schoolbook =
  QCheck2.Test.make ~name:"poly mul matches schoolbook negacyclic" ~count:100
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let tb = tables () in
      let st = Random.State.make [| seed; 77 |] in
      let ca = Array.init n (fun _ -> Random.State.int st 2001 - 1000) in
      let cb = Array.init n (fun _ -> Random.State.int st 2001 - 1000) in
      let a = poly_of_ints ~tables:tb ca and b = poly_of_ints ~tables:tb cb in
      Rp.to_ntt a;
      Rp.to_ntt b;
      ints_of_poly (Rp.mul a b) = schoolbook_negacyclic ca cb)

let prop_mul_inplace_matches_mul =
  QCheck2.Test.make ~name:"mul_inplace agrees with mul" ~count:50 QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let tb = tables () in
      let st = Random.State.make [| seed; 78 |] in
      let rand () = poly_of_ints ~tables:tb (Array.init n (fun _ -> Random.State.int st 1000 - 500)) in
      let a = rand () and b = rand () in
      Rp.to_ntt a;
      Rp.to_ntt b;
      let expect = ints_of_poly (Rp.mul a b) in
      Rp.mul_inplace a b;
      ints_of_poly a = expect)

let prop_mul_acc_matches =
  QCheck2.Test.make ~name:"mul_acc agrees with add (mul)" ~count:50 QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let tb = tables () in
      let st = Random.State.make [| seed; 79 |] in
      let rand () = poly_of_ints ~tables:tb (Array.init n (fun _ -> Random.State.int st 1000 - 500)) in
      let acc = rand () and a = rand () and b = rand () in
      Rp.to_ntt acc;
      Rp.to_ntt a;
      Rp.to_ntt b;
      let expect = ints_of_poly (Rp.add acc (Rp.mul a b)) in
      Rp.mul_acc acc a b;
      ints_of_poly acc = expect)

let prop_mul_commutative =
  QCheck2.Test.make ~name:"poly mul commutes" ~count:50 QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let tb = tables () in
      let st = Random.State.make [| seed |] in
      let a = poly_of_ints ~tables:tb (Array.init n (fun _ -> Random.State.int st 1000 - 500)) in
      let b = poly_of_ints ~tables:tb (Array.init n (fun _ -> Random.State.int st 1000 - 500)) in
      Rp.to_ntt a;
      Rp.to_ntt b;
      ints_of_poly (Rp.mul a b) = ints_of_poly (Rp.mul b a))

let prop_mul_distributes =
  QCheck2.Test.make ~name:"poly mul distributes" ~count:50 QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let tb = tables () in
      let st = Random.State.make [| seed; 1 |] in
      let rand () = poly_of_ints ~tables:tb (Array.init n (fun _ -> Random.State.int st 200 - 100)) in
      let a = rand () and b = rand () and c = rand () in
      Rp.to_ntt a;
      Rp.to_ntt b;
      Rp.to_ntt c;
      ints_of_poly (Rp.mul a (Rp.add b c)) = ints_of_poly (Rp.add (Rp.mul a b) (Rp.mul a c)))

(* {2 Written-out kernels vs the scalar reference}

   add, sub, neg, add_inplace and the coefficient-domain automorphism are
   branchless loops rather than maps over [Modarith]; each must equal the
   scalar [Modarith] result word for word, edge residues 0 and p-1
   included, at every prime of a chain whose modulus elements are two
   primes each. *)
module M = Eva_rns.Modarith
module Rv = Eva_rns.Rowvec
module Ctx = Eva_ckks.Context

let two_prime_chain =
  lazy
    (let ctx = Ctx.make ~ignore_security:true ~n:64 ~data_bits:[ 60; 60 ] ~special_bits:[ 60 ] () in
     assert (Array.for_all (fun (_, count) -> count = 2) (Ctx.element_prime_ranges ctx));
     Ctx.full_tables ctx)

(* Half the words are 0, 1, p-2 or p-1, so every edge pairing occurs. *)
let edge_row st tb =
  let p = Ntt.modulus tb in
  Rv.init (Ntt.size tb) (fun _ ->
      match Random.State.int st 8 with
      | 0 -> 0
      | 1 -> 1
      | 2 -> p - 2
      | 3 -> p - 1
      | _ -> Random.State.int st p)

let edge_poly st ~tables = Rp.of_ntt_rows ~tables (Array.map (edge_row st) tables)

let galois_reference row p g =
  let n = Rv.length row in
  let out = Array.make n 0 in
  for j = 0 to n - 1 do
    let c = Rv.get row j and e = j * g mod (2 * n) in
    if e < n then out.(e) <- M.add out.(e) c p else out.(e - n) <- M.sub out.(e - n) c p
  done;
  out

let prop_kernels_match_modarith =
  QCheck2.Test.make ~name:"add/sub/neg/add_inplace/galois match scalar Modarith" ~count:30
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let tables = Lazy.force two_prime_chain in
      let n = Ntt.size tables.(0) in
      let st = Random.State.make [| seed; 81 |] in
      let a = edge_poly st ~tables and b = edge_poly st ~tables in
      let check what ~got want =
        Array.iteri
          (fun i tb ->
            let p = Ntt.modulus tb in
            let w = want i p and g = (Rp.rows got).(i) in
            for j = 0 to n - 1 do
              if Rv.get g j <> w.(j) then
                QCheck2.Test.fail_reportf "%s: prime %d word %d is %d, want %d" what p j (Rv.get g j) w.(j)
            done)
          tables
      in
      let pointwise f i p = Array.init n (fun j -> f (Rv.get (Rp.rows a).(i) j) (Rv.get (Rp.rows b).(i) j) p) in
      check "add" ~got:(Rp.add a b) (pointwise M.add);
      check "sub" ~got:(Rp.sub a b) (pointwise M.sub);
      check "neg" ~got:(Rp.neg a) (pointwise (fun x _ p -> M.neg x p));
      let acc = Rp.copy a in
      Rp.add_inplace acc b;
      check "add_inplace" ~got:acc (pointwise M.add);
      (* A coefficient-form operand with edge residues: convert, then
         overwrite the rows in place. *)
      let c = edge_poly st ~tables in
      Rp.to_coeff c;
      Array.iteri (fun i tb -> Rv.blit (edge_row st tb) (Rp.rows c).(i)) tables;
      List.iter
        (fun g ->
          let got = Rp.galois c g in
          if Rp.is_ntt got then QCheck2.Test.fail_reportf "galois %d: left coefficient form" g;
          check (Printf.sprintf "galois %d" g) ~got (fun i p -> galois_reference (Rp.rows c).(i) p g))
        [ 3; 5; (2 * n) - 1; (2 * Random.State.int st n) + 1 ];
      true)

(* {2 Division by dropped primes}

   [rescale_many t c] divides by the last [c] primes at once, in the NTT
   domain for NTT input. The oracle is the sequential definition in
   scalar Modarith on coefficient rows: take the last residue's centered
   value, subtract it from every kept residue and multiply by the
   dropped prime's inverse, [c] times over. Chains mix 30-bit dropped
   primes with smaller kept ones, so the folded correction (up to 2^59)
   is reduced by primes far below it; coefficient rows carry the
   centering edges 0, 1, (p-1)/2, (p+1)/2 and p-1. *)
let rescale_reference rows primes count =
  let rows = Array.map Rv.to_array rows in
  let k = Array.length primes in
  for step = 1 to count do
    let last = k - step in
    let pl = primes.(last) in
    let kept = Array.sub primes 0 last in
    Array.iteri
      (fun i p ->
        let inv = M.inv (pl mod p) p in
        rows.(i) <-
          Array.mapi
            (fun j x ->
              let u = rows.(last).(j) in
              let c = if u > pl / 2 then u - pl else u in
              M.mul (M.sub x (M.reduce c p) p) inv p)
            rows.(i))
      kept
  done;
  Array.sub rows 0 (k - count)

let rescale_chains =
  lazy
    (List.map
       (fun log_n -> (log_n, make_tables ~n:(1 lsl log_n) [ 30; 20; 30; 30; 26; 30; 30 ]))
       [ 10; 12 ])

let edge_coeff_row st tb =
  let p = Ntt.modulus tb in
  Rv.init (Ntt.size tb) (fun _ ->
      match Random.State.int st 10 with
      | 0 -> 0
      | 1 -> 1
      | 2 -> p / 2
      | 3 -> (p / 2) + 1
      | 4 -> p - 1
      | _ -> Random.State.int st p)

let prop_rescale_many =
  QCheck2.Test.make ~name:"rescale_many = sequential division, in both forms" ~count:20
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let st = Random.State.make [| seed; 29 |] in
      List.iter
        (fun (log_n, tables) ->
          let primes = Array.map Ntt.modulus tables in
          let coeff = Rp.of_ntt_rows ~tables (Array.map (edge_coeff_row st) tables) in
          Rp.to_coeff coeff;
          Array.iteri (fun i tb -> Rv.blit (edge_coeff_row st tb) (Rp.rows coeff).(i)) tables;
          let ntt = Rp.copy coeff in
          Rp.to_ntt ntt;
          let rows_of p = Array.map Rv.to_array (Rp.rows p) in
          let fail what c = QCheck2.Test.fail_reportf "log N %d, %d dropped: %s" log_n c what in
          List.iter
            (fun c ->
              let rc = Rp.rescale_many coeff c and rn = Rp.rescale_many ntt c in
              if Rp.is_ntt rc || not (Rp.is_ntt rn) then fail "form not preserved" c;
              if rows_of rc <> rescale_reference (Rp.rows coeff) primes c then fail "differs from oracle" c;
              let rc' = Rp.copy rc in
              Rp.to_ntt rc';
              if rows_of rn <> rows_of rc' then fail "NTT result is not the transformed coefficient result" c;
              let seq = ref ntt in
              for _ = 1 to c do
                seq := Rp.rescale_last !seq
              done;
              if rows_of rn <> rows_of !seq then fail "differs from successive rescale_last" c)
            [ 1; 2; 3 ];
          (* The input is not modified. *)
          let again = Rp.copy coeff in
          Rp.to_ntt again;
          if rows_of again <> rows_of ntt then fail "input modified" 0)
        (Lazy.force rescale_chains);
      true)

let prop_rescale_many_in_place =
  QCheck2.Test.make ~name:"rescale_many in place = into a fresh block" ~count:20
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let st = Random.State.make [| seed; 31 |] in
      List.iter
        (fun (log_n, tables) ->
          let x = Rp.of_ntt_rows ~tables (Array.map (edge_coeff_row st) tables) in
          let rows_of p = Array.map Rv.to_array (Rp.rows p) in
          List.iter
            (fun (form, c) ->
              if form = `Coeff then Rp.to_coeff x else Rp.to_ntt x;
              let own = Rp.copy x in
              let fresh = Rp.rescale_many x c and inplace = Rp.rescale_many ~in_place:true own c in
              if rows_of fresh <> rows_of inplace || Rp.is_ntt fresh <> Rp.is_ntt inplace then
                QCheck2.Test.fail_reportf "log N %d, %d dropped: in-place result differs" log_n c;
              Array.iteri
                (fun i row ->
                  if row != (Rp.rows own).(i) then
                    QCheck2.Test.fail_reportf "log N %d, %d dropped: row %d is not the input's" log_n c i)
                (Rp.rows inplace))
            [ (`Ntt, 1); (`Ntt, 2); (`Ntt, 3); (`Coeff, 1); (`Coeff, 2); (`Coeff, 3) ])
        (Lazy.force rescale_chains);
      true)

(* {2 Float coefficient conversions}

   Encoding rounds each double half away from zero and reduces it
   exactly into every prime; decoding centers Garner's mixed-radix
   digits. The oracles share no code with either: rounding is spelled
   out with [Float.trunc], and an integral double is split into base-2^30
   chunks with exact float arithmetic and reduced by Horner mod p. *)
let chains =
  lazy
    [
      make_tables ~n [ 30 ];
      make_tables ~n [ 30; 30 ];
      make_tables ~n [ 25; 25; 24 ];
      make_tables ~n (List.init 8 (fun _ -> 30));
      (* A 7-bit first prime: a float Horner rounds twice below 2^61
         here, so only the native-int path decodes exactly. *)
      Array.append [| Ntt.make ~n 97 |] (make_tables ~n [ 30; 30 ]);
    ]

let half_modulus tables = Array.fold_left (fun acc tb -> acc *. float_of_int (Ntt.modulus tb)) 0.5 tables

let round_half_away x =
  let t = Float.trunc x in
  if Float.abs (x -. t) >= 0.5 then t +. Float.copy_sign 1.0 x else t

let residue_oracle x p =
  let r = round_half_away x in
  let chunks = ref [] and a = ref (Float.abs r) in
  while !a > 0.0 do
    let c = Float.rem !a 0x1p30 in
    chunks := Float.to_int c :: !chunks;
    a := (!a -. c) /. 0x1p30
  done;
  let m = List.fold_left (fun acc c -> ((acc * (1 lsl 30)) + c) mod p) 0 !chunks in
  if r < 0.0 then (p - m) mod p else m

(* [xs] in blocks of [n] coefficients, the last block zero-padded. *)
let blocks xs =
  let xs = Array.of_list xs in
  let count = (Array.length xs + n - 1) / n in
  List.init count (fun b ->
      Array.init n (fun j -> if (b * n) + j < Array.length xs then xs.((b * n) + j) else 0.0))

let test_encode_matches_oracle () =
  let st = Random.State.make [| 29 |] in
  let edges =
    [ 0.0; 1.0; 0.5; 1.5; 2.5; 3.5; 0x1p51 +. 0.5; 0x1p52 -. 0.5; 0x1p61; 0x1p62 -. 512.0; 0x1p62;
      0x1p62 +. 1024.0; 0x1p63; 0x1p150 ]
  in
  let ties = List.init 40 (fun _ -> float_of_int (Random.State.int st ((1 lsl 30) - 1)) +. 0.5) in
  let random =
    List.init 600 (fun i -> Float.ldexp (Random.State.float st 1.0) (i mod 151))
  in
  let xs = edges @ ties @ random in
  let xs = xs @ List.map Float.neg xs in
  List.iter
    (fun tables ->
      List.iter
        (fun block ->
          let rows = Rp.rows (Rp.of_float_coeffs ~tables block) in
          Array.iteri
            (fun i tb ->
              let p = Ntt.modulus tb in
              Array.iteri
                (fun j x ->
                  let got = Rv.get rows.(i) j and want = residue_oracle x p in
                  if got <> want then Alcotest.failf "%h mod %d: got %d, want %d" x p got want)
                block)
            tables)
        (blocks xs))
    (Lazy.force chains)

let test_decode_exact_below_2_61 () =
  let st = Random.State.make [| 31 |] in
  List.iter
    (fun tables ->
      (* Negatives reach -(Q-3)/2 only: -(Q-1)/2 is (Q+1)/2 mod Q. *)
      let limit = Float.min 0x1p61 (half_modulus tables -. 1.0) in
      let largest = Float.pred limit in
      let xs =
        [ 0.0; 1.0; -1.0; Float.round largest; -.Float.round largest ]
        @ List.init 300 (fun i ->
              let x = Float.trunc (Random.State.float st (Float.ldexp limit (-(i mod 40)))) in
              if i land 1 = 0 then x else -.x)
      in
      List.iter
        (fun block ->
          let p = Rp.of_float_coeffs ~tables block in
          let check what got =
            Array.iteri
              (fun j x ->
                if got.(j) <> x then
                  Alcotest.failf "%d primes, %s: %h decoded as %h" (Array.length tables) what x got.(j))
              block
          in
          check "coefficient form" (Rp.to_float_coeffs p);
          Rp.to_ntt p;
          check "NTT form" (Rp.to_float_coeffs p))
        (blocks xs);
      (* Integers of up to 61 significant bits, set as residues: each
         decodes to its correctly rounded double. *)
      for _ = 1 to 20 do
        let ints =
          Array.init n (fun j ->
              let v = Int64.to_int (Random.State.int64 st (Int64.of_float limit)) in
              if j land 1 = 0 then v else -v)
        in
        let p = Rp.of_float_coeffs ~tables (Array.make n 0.0) in
        Array.iteri
          (fun i tb ->
            let pr = Ntt.modulus tb in
            Array.iteri (fun j v -> Rv.set (Rp.rows p).(i) j (((v mod pr) + pr) mod pr)) ints)
          tables;
        let got = Rp.to_float_coeffs p in
        Array.iteri
          (fun j v ->
            if got.(j) <> float_of_int v then
              Alcotest.failf "%d primes: %d decoded as %h" (Array.length tables) v got.(j))
          ints
      done)
    (Lazy.force chains)

(* Values decode into [-(Q-3)/2, (Q+1)/2]: (Q+1)/2 stays positive and
   (Q+3)/2 is the first value that wraps to negative. *)
let test_centering_boundary () =
  let tables = make_tables ~n [ 20; 20 ] in
  let q = Array.fold_left (fun acc tb -> acc * Ntt.modulus tb) 1 tables in
  let cases =
    [ ((q - 1) / 2, (q - 1) / 2); ((q + 1) / 2, (q + 1) / 2); ((q + 3) / 2, -(q - 3) / 2);
      (-(q - 1) / 2, (q + 1) / 2); (-(q - 3) / 2, -(q - 3) / 2) ]
  in
  let xs = Array.of_list (List.map (fun (x, _) -> float_of_int x) cases) in
  let got = ints_of_poly (Rp.of_float_coeffs ~tables (Array.append xs (Array.make (n - Array.length xs) 0.0))) in
  List.iteri (fun j (x, want) -> Alcotest.(check int) (Printf.sprintf "%d decodes" x) want got.(j)) cases;
  (* Eight primes: the digit comparison decides the sign with Q far
     beyond native ints. (Q+1)/2, (Q-1)/2 and (Q+3)/2 are inv(2),
     -inv(2) and 3 inv(2) mod every prime. *)
  let tables = List.nth (Lazy.force chains) 3 in
  let p = Rp.of_float_coeffs ~tables (Array.make n 0.0) in
  Array.iteri
    (fun i tb ->
      let pr = Ntt.modulus tb in
      let inv2 = M.inv 2 pr in
      List.iteri (fun j r -> Rv.set (Rp.rows p).(i) j r) [ inv2; pr - inv2; 3 * inv2 mod pr ])
    tables;
  let got = Rp.to_float_coeffs p in
  let half = half_modulus tables in
  List.iteri
    (fun j sign ->
      let rel = Float.abs ((got.(j) /. (sign *. half)) -. 1.0) in
      if rel > 0x1p-48 then Alcotest.failf "8 primes, boundary value %d decoded as %h" j got.(j))
    [ 1.0; 1.0; -1.0 ]

let test_decode_relative_error_above_2_62 () =
  let st = Random.State.make [| 37 |] in
  List.iter
    (fun tables ->
      let top = Float.to_int (Float.log2 (half_modulus tables)) in
      let xs =
        List.init 400 (fun i ->
            let e = 62 + Random.State.int st (top - 62) in
            let x = Float.ldexp (1.0 +. Random.State.float st 1.0) e in
            if i land 1 = 0 then x else -.x)
      in
      List.iter
        (fun block ->
          let got = Rp.to_float_coeffs (Rp.of_float_coeffs ~tables block) in
          Array.iteri
            (fun j x ->
              let rel = Float.abs ((got.(j) -. x) /. x) in
              if rel > 0x1p-50 then
                Alcotest.failf "%d primes: %h decoded as %h (relative error %g)" (Array.length tables) x
                  got.(j) rel)
            block)
        (blocks xs))
    (List.filter (fun tables -> half_modulus tables > 0x1p64) (Lazy.force chains))

let () =
  let qt t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "poly"
    [
      ( "ring",
        [
          Alcotest.test_case "zero" `Quick test_zero;
          Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "add/sub/neg" `Quick test_add_sub_neg;
          Alcotest.test_case "mul naive" `Quick test_mul_matches_naive;
          Alcotest.test_case "negacyclic wrap" `Quick test_negacyclic_wrap;
          Alcotest.test_case "mul scalar" `Quick test_mul_scalar;
        ] );
      ( "modulus ops",
        [
          Alcotest.test_case "drop_last" `Quick test_drop_last;
          Alcotest.test_case "rescale_last" `Quick test_rescale_last;
          Alcotest.test_case "rescale preserves form" `Quick test_rescale_preserves_form;
          Alcotest.test_case "mismatch raises" `Quick test_modulus_mismatch;
        ] );
      ( "galois",
        [
          Alcotest.test_case "automorphism" `Quick test_galois;
          Alcotest.test_case "NTT fast path" `Quick test_galois_ntt_matches_coeff;
          Alcotest.test_case "composition" `Quick test_galois_composition;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "ternary and error" `Quick test_sampling;
          Alcotest.test_case "error is binomial(42, 1/2) - 21" `Quick test_error_distribution;
          Alcotest.test_case "uniform residues" `Quick test_uniform_distribution;
          Alcotest.test_case "ternary frequencies" `Quick test_ternary_distribution;
        ] );
      ( "coeffs",
        [
          Alcotest.test_case "encode residues match oracle" `Quick test_encode_matches_oracle;
          Alcotest.test_case "decode exact below 2^61" `Quick test_decode_exact_below_2_61;
          Alcotest.test_case "centering boundary" `Quick test_centering_boundary;
          Alcotest.test_case "decode within 2^-50 above 2^62" `Quick test_decode_relative_error_above_2_62;
        ] );
      ( "property",
        [
          qt prop_mul_matches_schoolbook;
          qt prop_kernels_match_modarith;
          qt prop_mul_inplace_matches_mul;
          qt prop_mul_acc_matches;
          qt prop_mul_commutative;
          qt prop_mul_distributes;
          qt prop_rescale_many;
          qt prop_rescale_many_in_place;
        ] );
    ]
