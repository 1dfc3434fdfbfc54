module Ntt = Eva_rns.Ntt
module Modarith = Eva_rns.Modarith
module Rowvec = Eva_rns.Rowvec
module Rns_poly = Eva_poly.Rns_poly

(* Secret key as raw NTT rows over the full chain (data then special). *)
type secret = { s_rows : Rowvec.t array }

type public_key = { pk_b : Rns_poly.t; pk_a : Rns_poly.t }

(* One digit per data modulus element; rows span the full chain. *)
type switch_key = { kb : Rowvec.t array array; ka : Rowvec.t array array }

type keyset = { public : public_key; relin : switch_key; galois : (int, switch_key) Hashtbl.t }

let full_poly ctx rows = Rns_poly.of_ntt_rows ~tables:(Context.full_tables ctx) rows

let sample_full ctx rng sampler = sampler rng ~tables:(Context.full_tables ctx)

(* [generate_switch_key ctx rng s s_prime]: digit e's key encrypts
   [P * W_e * s'] where W_e is the CRT basis element of modulus element e,
   so P*W_e = P (mod q) for the element's own primes and 0 elsewhere. *)
let generate_switch_key ctx rng s s_prime =
  let full = Context.full_tables ctx in
  let nd = Context.num_data_primes ctx in
  let ns = Context.num_special_primes ctx in
  let p_mod q =
    let r = ref 1 in
    for j = 0 to ns - 1 do
      r := !r * (Ntt.modulus full.(nd + j) mod q) mod q
    done;
    !r
  in
  let ranges = Context.element_prime_ranges ctx in
  let ne = Array.length ranges in
  let kb = Array.make ne [||] and ka = Array.make ne [||] in
  for e = 0 to ne - 1 do
    let lo, count = ranges.(e) in
    let a = Rns_poly.sample_uniform rng ~tables:full in
    let err = Rns_poly.sample_error rng ~tables:full in
    (* b = -(a*s) - err + (P mod q_i) * s' on the element's rows. *)
    let b = Rns_poly.neg (Rns_poly.add (Rns_poly.mul a s) err) in
    let b_rows = Rns_poly.rows b and s'_rows = Rns_poly.rows s_prime in
    for i = lo to lo + count - 1 do
      let qi = Ntt.modulus full.(i) in
      let factor = p_mod qi in
      let factor_s = Modarith.shoup factor qi in
      let row = b_rows.(i) and srow = s'_rows.(i) in
      for j = 0 to Rowvec.length row - 1 do
        (* row += factor * s' (mod qi): a Shoup multiply by the fixed
           factor, then a branchless modular add. *)
        let v = Rowvec.unsafe_get srow j in
        let q = (v * factor_s) lsr 31 in
        let r = (v * factor) - (q * qi) - qi in
        let r = r + (qi land (r asr 62)) in
        let x = Rowvec.unsafe_get row j + r - qi in
        Rowvec.unsafe_set row j (x + (qi land (x asr 62)))
      done
    done;
    kb.(e) <- b_rows;
    ka.(e) <- Rns_poly.rows a
  done;
  { kb; ka }

let secret_at_level ctx secret ~level =
  let tables = Context.tables_for_level ctx level in
  let m = Array.length tables in
  Rns_poly.of_ntt_rows ~tables (Array.sub secret.s_rows 0 m)

let public_parts pk = (pk.pk_b, pk.pk_a)

let generate ctx rng ~galois_elts =
  let s = sample_full ctx rng Rns_poly.sample_ternary in
  let secret = { s_rows = Rns_poly.rows s } in
  (* Public key over the data chain only (fresh ciphertexts never carry
     the special element). *)
  let data_level = Context.chain_length ctx in
  let data_tables = Context.tables_for_level ctx data_level in
  let s_data = secret_at_level ctx secret ~level:data_level in
  let a = Rns_poly.sample_uniform rng ~tables:data_tables in
  let e = Rns_poly.sample_error rng ~tables:data_tables in
  let pk_b = Rns_poly.neg (Rns_poly.add (Rns_poly.mul a s_data) e) in
  let public = { pk_b; pk_a = a } in
  let s_sq = Rns_poly.mul (full_poly ctx secret.s_rows) (full_poly ctx secret.s_rows) in
  let relin = generate_switch_key ctx rng (full_poly ctx secret.s_rows) s_sq in
  let galois = Hashtbl.create 8 in
  List.iter
    (fun g ->
      if not (Hashtbl.mem galois g) then begin
        let s_g = Rns_poly.galois (full_poly ctx secret.s_rows) g in
        Hashtbl.replace galois g (generate_switch_key ctx rng (full_poly ctx secret.s_rows) s_g)
      end)
    galois_elts;
  (secret, { public; relin; galois })

let find_galois ks g = Hashtbl.find_opt ks.galois g

let switch_key_rows k = (k.kb, k.ka)
let switch_key_of_rows ~kb ~ka = { kb; ka }
let public_of_parts ~b ~a = { pk_b = b; pk_a = a }

(* The *centered* integer value of a digit (the residues of one modulus
   element), via Garner within the pair — D = ra + qa * ((rb - ra) / qa
   mod qb), which fits a native int (below 2^61) — then shifted into the
   symmetric range (-Q_e/2, Q_e/2). Q_e is odd, so the range is exact
   and the map is odd: D(-c) = -D(c), including 0. That oddness is what
   makes digit extraction commute with the Galois automorphism's
   coefficient negations, the property hoisted key switching relies on
   (permuting NTT-domain digit rows must equal decomposing the permuted
   polynomial). Centered digits also halve the worst-case digit
   magnitude, the standard noise win. Exact — no approximate base
   extension needed. [rows] holds the element's [count] residue rows in
   coefficient form; digits are written into [buf] so one scratch array
   serves every element. *)
let digit_values_into ~full ~lo ~count rows buf =
  if count = 1 then begin
    let qa = Ntt.modulus full.(lo) in
    let half = qa / 2 in
    let ra = rows.(0) in
    for k = 0 to Array.length buf - 1 do
      let r = Rowvec.unsafe_get ra k in
      (* r - qa iff r > half, branchless: (half - r) asr 62 is -1 then. *)
      Array.unsafe_set buf k (r - (qa land ((half - r) asr 62)))
    done;
    buf
  end
  else begin
    let qa = Ntt.modulus full.(lo) and qb = Ntt.modulus full.(lo + 1) in
    let qe = qa * qb in
    let half = qe / 2 in
    let { Modarith.bmu31; _ } = Ntt.barrett full.(lo + 1) in
    let inv_qa = Modarith.inv (qa mod qb) qb in
    let inv_s = Modarith.shoup inv_qa qb in
    let ra = rows.(0) and rb = rows.(1) in
    (* The Barrett, modular-subtract and Shoup steps are written out
       (branchless, exact) so the loop makes no call per coefficient. *)
    for k = 0 to Array.length buf - 1 do
      let rak = Rowvec.unsafe_get ra k in
      (* rak < qa < 2^30, so the 31-bit Barrett constant reduces it. *)
      let q = (rak * bmu31) lsr 31 in
      let x = rak - (q * qb) - qb in
      let x = x + (qb land (x asr 62)) - qb in
      let ra_b = x + (qb land (x asr 62)) in
      let x = Rowvec.unsafe_get rb k - ra_b in
      let x = x + (qb land (x asr 62)) in
      let q = (x * inv_s) lsr 31 in
      let t = (x * inv_qa) - (q * qb) - qb in
      let t = t + (qb land (t asr 62)) in
      let d = rak + (qa * t) in
      Array.unsafe_set buf k (d - (qe land ((half - d) asr 62)))
    done;
    buf
  end

(* A hoistable decomposition: every digit of the input, spread over the
   key-switch target chain in NTT form, plus the scratch an
   [apply_decomposed] call needs. Producing this is the expensive shared
   prefix of a key switch (one inverse NTT per input row, Garner
   reconstruction, one forward NTT per target row outside each
   element); applying a key to it is cheap (pointwise inner products +
   the modulus-down correction). The scratch fields
   make [apply_decomposed] allocation-light but also mean a [decomposed]
   value must not be shared across threads. *)
type decomposed = {
  d_m : int;  (* data primes at this level *)
  d_target : Ntt.table array;  (* level tables ++ special tables *)
  d_elems : int array;  (* live modulus-element indices *)
  d_digits : Rowvec.t array array;  (* per live element: tm rows, NTT form *)
  mutable d_perm_scratch : Rowvec.t array;  (* lazily built: tm rows for permuted digits *)
  d_kb : Rowvec.t array;  (* key-row pointer scratch, reused per apply *)
  d_ka : Rowvec.t array;
}

let decompose ctx ~level c =
  if not (Rns_poly.is_ntt c) then invalid_arg "Keys.decompose: NTT form required";
  let level_tables = Context.tables_for_level ctx level in
  let m = Array.length level_tables in
  let target = Context.ks_tables ctx level in
  let tm = Array.length target in
  let full = Context.full_tables ctx in
  (* One copy of the input: each digit's rows on its own element's
     primes are views of it. *)
  let c_rows = Rns_poly.rows (Rns_poly.copy c) in
  let n = Rns_poly.degree c in
  let ranges = Context.element_prime_ranges ctx in
  let live = ref [] in
  Array.iteri (fun e (lo, count) -> if lo + count <= m then live := (e, lo, count) :: !live) ranges;
  let live = Array.of_list (List.rev !live) in
  let d_buf = Array.make n 0 in
  (* Coefficient form of one element's rows at a time (at most two). *)
  let coeff = Rowvec.alloc_rows ~count:2 ~n in
  let digits =
    (* Elements share [d_buf] and [coeff]; within one element each target
       row outside the element costs one forward NTT, the dominant cost
       of a key switch. *)
    Array.map
      (fun (_, lo, count) ->
        let own = Array.sub coeff 0 count in
        Array.iteri
          (fun r row ->
            Rowvec.blit c_rows.(lo + r) row;
            Ntt.inverse target.(lo + r) row)
          own;
        let d = digit_values_into ~full ~lo ~count own d_buf in
        let out = Array.make tm (Rowvec.create 0) in
        for j = 0 to tm - 1 do
          if j >= lo && j < lo + count then
            (* The element's own primes: the digit is congruent to the
               residue row itself (centering shifts by a multiple of Q_e),
               so its NTT row is the input's. *)
            out.(j) <- c_rows.(j)
          else begin
            let p = Ntt.modulus target.(j) in
            let row = Rowvec.create n in
            for k = 0 to n - 1 do
              (* OCaml [mod] truncates toward zero: normalize the centered
                 digit's residue into [0, p). A division-free
                 split-and-Barrett reduction measured about 20% slower
                 than this divide on a 2-core Xeon. *)
              let r = d.(k) mod p in
              Rowvec.unsafe_set row k (r + (p land (r asr 62)))
            done;
            Ntt.forward target.(j) row;
            out.(j) <- row
          end
        done;
        out)
      live
  in
  let dummy = Rowvec.create 0 in
  {
    d_m = m;
    d_target = target;
    d_elems = Array.map (fun (e, _, _) -> e) live;
    d_digits = digits;
    d_perm_scratch = [||];
    d_kb = Array.make tm dummy;
    d_ka = Array.make tm dummy;
  }

let apply_decomposed ?galois ctx key d =
  let target = d.d_target in
  let tm = Array.length target in
  let m = d.d_m in
  let nd = Context.num_data_primes ctx in
  let n = Ntt.size target.(0) in
  let acc0 = Rns_poly.zero ~tables:target in
  let acc1 = Rns_poly.zero ~tables:target in
  let perm =
    match galois with
    | None -> None
    | Some g ->
        if Array.length d.d_perm_scratch = 0 then
          d.d_perm_scratch <- Rowvec.alloc_rows ~count:tm ~n;
        (* The permutation only depends on (n, g), not the prime. *)
        Some (Ntt.galois_permutation target.(0) g)
  in
  Array.iteri
    (fun i e ->
      let digit_rows = d.d_digits.(i) in
      let rows =
        match perm with
        | None -> digit_rows
        | Some perm ->
            (* Apply the automorphism in the evaluation domain: a pure
               index permutation per row, into reused scratch. *)
            for j = 0 to tm - 1 do
              let src = digit_rows.(j) and dst = d.d_perm_scratch.(j) in
              for k = 0 to n - 1 do
                Rowvec.unsafe_set dst k (Rowvec.unsafe_get src (Array.unsafe_get perm k))
              done
            done;
            d.d_perm_scratch
      in
      let digit = Rns_poly.of_ntt_rows ~tables:target rows in
      for j = 0 to tm - 1 do
        let src = if j < m then j else nd + (j - m) in
        d.d_kb.(j) <- key.kb.(e).(src);
        d.d_ka.(j) <- key.ka.(e).(src)
      done;
      Rns_poly.mul_acc acc0 digit (Rns_poly.of_ntt_rows ~tables:target d.d_kb);
      Rns_poly.mul_acc acc1 digit (Rns_poly.of_ntt_rows ~tables:target d.d_ka))
    d.d_elems;
  (* Divide by the special modulus P with rounding. *)
  let ns = Context.num_special_primes ctx in
  (Rns_poly.rescale_many acc0 ns, Rns_poly.rescale_many acc1 ns)

let switch ctx key ~level c = apply_decomposed ctx key (decompose ctx ~level c)
