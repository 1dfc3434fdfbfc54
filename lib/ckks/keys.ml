module Ntt = Eva_rns.Ntt
module Modarith = Eva_rns.Modarith
module Rowvec = Eva_rns.Rowvec
module Rns_poly = Eva_poly.Rns_poly
module Diag = Eva_diag.Diag

(* Secret key as raw NTT rows over the full chain (data then special). *)
type secret = { s_rows : Rowvec.t array }

type public_key = { pk_b : Rns_poly.t; pk_a : Rns_poly.t }

(* A key of depth d serves ciphertexts of up to d elements: one digit
   per element below d, each over the first d elements' primes then the
   special primes (the rows a switch at level d reads). *)
type switch_key = { depth : int; kb : Rowvec.t array array; ka : Rowvec.t array array }

type keyset = { public : public_key; relin : switch_key; galois : (int, switch_key) Hashtbl.t }

type depths = { relin_depth : int; galois_depths : (int * int) list }

(* [generate_switch_key ctx ~tables ~drop ~s ~s' ~lo ~count st] is one
   RLWE sample (b, a) under [s], drawn from stream [st] alone: a
   uniform, e an error and b = -(a*s) - e + (P mod q_i)*s' on rows
   lo..lo+count-1 (P the special modulus). With the rows of modulus
   element e, that is digit e of the switching key for [s'], which
   encrypts [P * W_e * s'] (W_e the element's CRT basis element, so
   P*W_e = P mod the element's own primes and 0 elsewhere); with
   [count = 0] it is the public key. The sample spans [tables] less
   the rows [drop] names ({!Rns_poly.sample_uniform_cut}), whose
   uniform words are drawn and discarded and whose error rows are never
   transformed; [s] and [s'] hold the kept rows only, and the digit's
   own rows lie below the dropped ones. b is computed in one pass into
   its own fresh rows. *)
let generate_switch_key ctx ~tables ~drop ~s ~s' ~lo ~count st =
  let full = Context.full_tables ctx in
  let nd = Context.num_data_primes ctx in
  let ns = Context.num_special_primes ctx in
  let a = Rns_poly.sample_uniform_cut st ~tables ~drop in
  let tables = Rns_poly.tables a in
  let b = Rns_poly.rows (Rns_poly.sample_error st ~tables) in
  let a_rows = Rns_poly.rows a in
  Array.iteri
    (fun i tb ->
      let { Modarith.bp = qi; bk; bmu; _ } = Ntt.barrett tb in
      let factor =
        if i < lo || i >= lo + count then 0
        else begin
          let r = ref 1 in
          for j = 0 to ns - 1 do
            r := !r * (Ntt.modulus full.(nd + j) mod qi) mod qi
          done;
          !r
        end
      in
      let factor_s = Modarith.shoup factor qi in
      let row = b.(i) and arow = a_rows.(i) and srow = s.(i) and s'row = s'.(i) in
      for j = 0 to Rowvec.length row - 1 do
        (* a*s by Barrett, plus e; factor*s' by Shoup; then their
           difference, every correction branchless. *)
        let z = Rowvec.unsafe_get arow j * Rowvec.unsafe_get srow j in
        let q = ((z lsr (bk - 1)) * bmu) lsr (bk + 1) in
        let r = z - (q * qi) - qi in
        let r = r + (qi land (r asr 62)) - qi in
        let r = r + (qi land (r asr 62)) in
        let x = r + Rowvec.unsafe_get row j - qi in
        let x = x + (qi land (x asr 62)) in
        let v = Rowvec.unsafe_get s'row j in
        let q = (v * factor_s) lsr 31 in
        let y = (v * factor) - (q * qi) - qi in
        let y = y + (qi land (y asr 62)) - x in
        Rowvec.unsafe_set row j (y + (qi land (y asr 62)))
      done)
    tables;
  (b, a_rows)

let secret_at_level ctx secret ~level =
  let tables = Context.tables_for_level ctx level in
  let m = Array.length tables in
  Rns_poly.of_ntt_rows ~tables (Array.sub secret.s_rows 0 m)

let public_parts pk = (pk.pk_b, pk.pk_a)

(* Every RLWE sample is one job with its own stream. The streams are
   split from [rng] before any job runs, in a fixed order: the public
   key, the relin key's digits, then each distinct Galois element's
   digits in [galois_elts] order, one stream per (key, element) pair
   whether or not the key's depth keeps that digit. The keys, and the
   state [rng] is left in, are thus a function of [rng]'s state on
   entry, whichever domain runs which job, and a cut key's rows are the
   full key's. *)
let generate ?depths ctx rng ~galois_elts =
  let full = Context.full_tables ctx in
  let ne = Context.chain_length ctx in
  let nd = Context.num_data_primes ctx in
  let s = Rns_poly.sample_ternary rng ~tables:full in
  let s_rows = Rns_poly.rows s in
  (* Public key over the data chain only (fresh ciphertexts never carry
     the special element). *)
  let data_tables = Context.tables_for_level ctx ne in
  let galois_elts = List.rev (List.fold_left (fun acc g -> if List.mem g acc then acc else g :: acc) [] galois_elts) in
  (* [None] is the relin key, [Some g] the Galois key for [g]. *)
  let depth_of key =
    let d =
      match (depths, key) with
      | None, _ -> ne
      | Some ds, None -> ds.relin_depth
      | Some ds, Some g -> (
          match List.filter_map (fun (g', d) -> if g' = g then Some d else None) ds.galois_depths with
          | [] -> ne
          | d :: rest -> List.fold_left max d rest)
    in
    if d < 0 || d > ne then invalid_arg (Printf.sprintf "Keys.generate: depth %d outside [0, %d]" d ne);
    d
  in
  let targets =
    (Rns_poly.mul s s, depth_of None) :: List.map (fun g -> (Rns_poly.galois s g, depth_of (Some g))) galois_elts
  in
  let ranges = Context.element_prime_ranges ctx in
  let specs =
    Some (data_tables, (0, 0), s_rows, s_rows, (0, 0))
    :: List.concat_map
         (fun (s', d) ->
           (* A key of depth [d] keeps its first [d] elements' primes,
              then the special primes. *)
           let k = if d = 0 then 0 else Context.prime_count_for_level ctx d in
           let kept rows = Array.append (Array.sub rows 0 k) (Array.sub rows nd (Array.length rows - nd)) in
           let s_kept = kept s_rows and s'_kept = kept (Rns_poly.rows s') in
           List.init ne (fun e -> if e < d then Some (full, (k, nd - k), s_kept, s'_kept, ranges.(e)) else None))
         targets
  in
  let streams = List.map (fun _ -> Random.State.split rng) specs in
  let jobs = List.filter_map (fun (spec, st) -> Option.map (fun spec -> (spec, st)) spec) (List.combine specs streams) in
  let results =
    Array.of_list
      (Fanout.map ~workers:(Domain.recommended_domain_count ())
         (fun ((tables, drop, s, s', (lo, count)), st) -> generate_switch_key ctx ~tables ~drop ~s ~s' ~lo ~count st)
         jobs)
  in
  let pk_b, pk_a = results.(0) in
  let public =
    { pk_b = Rns_poly.of_ntt_rows ~tables:data_tables pk_b; pk_a = Rns_poly.of_ntt_rows ~tables:data_tables pk_a }
  in
  (* Kept digits are consecutive in [results], key by key. *)
  let next = ref 1 in
  let keys =
    List.map
      (fun (_, d) ->
        let digits = Array.sub results !next d in
        next := !next + d;
        { depth = d; kb = Array.map fst digits; ka = Array.map snd digits })
      targets
  in
  let galois = Hashtbl.create 8 in
  List.iter2 (fun g k -> Hashtbl.replace galois g k) galois_elts (List.tl keys);
  ({ s_rows }, { public; relin = List.hd keys; galois })

let find_galois ks g = Hashtbl.find_opt ks.galois g

let switch_key_depth k = k.depth
let switch_key_rows k = (k.kb, k.ka)
let switch_key_of_rows ~kb ~ka = { depth = Array.length kb; kb; ka }

let public_of_parts ~b ~a = { pk_b = b; pk_a = a }

type footprint = { switch_keys : int; held_words : int; full_words : int }

let footprint ctx ks =
  let keys = ks.relin :: Hashtbl.fold (fun _ k acc -> k :: acc) ks.galois [] in
  let n = Context.degree ctx in
  let rows k = Array.fold_left (fun acc digit -> acc + Array.length digit) 0 k.kb in
  let full_rows = Context.chain_length ctx * Array.length (Context.full_tables ctx) in
  {
    switch_keys = List.length keys;
    held_words = List.fold_left (fun acc k -> acc + (2 * n * rows k)) 0 keys;
    full_words = 2 * n * full_rows * List.length keys;
  }

(* Before any decomposition, so a too-shallow key is a structured error
   rather than an out-of-bounds read of its rows. *)
let check_depth key ~level =
  if key.depth < level then
    Diag.error ~layer:Diag.Crypto ~code:Diag.crypto_key_depth
      "switching key serves up to %d chain elements; the ciphertext has %d" key.depth level

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
  d_level : int;  (* chain elements of the decomposed polynomial *)
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
    d_level = level;
    d_m = m;
    d_target = target;
    d_elems = Array.map (fun (e, _, _) -> e) live;
    d_digits = digits;
    d_perm_scratch = [||];
    d_kb = Array.make tm dummy;
    d_ka = Array.make tm dummy;
  }

let apply_decomposed ?galois ctx key d =
  check_depth key ~level:d.d_level;
  let target = d.d_target in
  let tm = Array.length target in
  let m = d.d_m in
  let ns = Context.num_special_primes ctx in
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
      (* The key's special rows follow its own data rows. *)
      let key_data = Array.length key.kb.(e) - ns in
      for j = 0 to tm - 1 do
        let src = if j < m then j else key_data + (j - m) in
        d.d_kb.(j) <- key.kb.(e).(src);
        d.d_ka.(j) <- key.ka.(e).(src)
      done;
      Rns_poly.mul_acc acc0 digit (Rns_poly.of_ntt_rows ~tables:target d.d_kb);
      Rns_poly.mul_acc acc1 digit (Rns_poly.of_ntt_rows ~tables:target d.d_ka))
    d.d_elems;
  (* Divide by the special modulus P with rounding, in the accumulators:
     their special rows are the division's digit scratch. *)
  (Rns_poly.rescale_many ~in_place:true acc0 ns, Rns_poly.rescale_many ~in_place:true acc1 ns)

let switch ctx key ~level c =
  check_depth key ~level;
  apply_decomposed ctx key (decompose ctx ~level c)
