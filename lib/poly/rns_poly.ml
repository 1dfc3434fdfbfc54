module Modarith = Eva_rns.Modarith
module Ntt = Eva_rns.Ntt
module Rowvec = Eva_rns.Rowvec

exception Modulus_mismatch of string

(* Residue rows are views into one contiguous r*n Bigarray for every
   polynomial this module allocates itself; [of_ntt_rows] may wrap
   foreign views (key rows spanning a longer chain), so nothing below
   assumes contiguity — only that distinct rows never alias. *)
type t = {
  tables : Ntt.table array;
  rows : Rowvec.t array; (* rows.(i) is the residue vector mod primes.(i) *)
  mutable ntt : bool;
}

let degree t = Ntt.size t.tables.(0)
let num_primes t = Array.length t.tables
let primes t = Array.map Ntt.modulus t.tables
let tables t = t.tables
let is_ntt t = t.ntt

let alloc_rows ~tables = Rowvec.alloc_rows ~count:(Array.length tables) ~n:(Ntt.size tables.(0))
let zero ~tables = { tables; rows = alloc_rows ~tables; ntt = true }

let for_rows t f =
  for i = 0 to Array.length t.rows - 1 do
    f i
  done

(* Residue of an integral double at or above 2^62 in magnitude: it is
   exactly m * 2^s with a 53-bit integer m, so its residue is
   (m mod p) * (2^s mod p) mod p. *)
let big_residue x p =
  if not (Float.is_finite x) then invalid_arg "Rns_poly.of_float_coeffs: not finite";
  let m, e = Float.frexp x in
  let m = Float.to_int (Float.ldexp m 53) mod p in
  let m = m + (p land (m asr 62)) in
  m * Modarith.pow 2 (e - 53) p mod p

(* Each coefficient rounds once (half away from zero); below 2^62 the
   rounded value is a native int and reduces with one [mod] per prime. *)
let of_float_coeffs ~tables coeffs =
  let n = Ntt.size tables.(0) in
  if Array.length coeffs <> n then invalid_arg "Rns_poly.of_float_coeffs: wrong degree";
  let primes = Array.map Ntt.modulus tables in
  let k = Array.length primes in
  let rows = alloc_rows ~tables in
  for j = 0 to n - 1 do
    let x = Float.round (Array.unsafe_get coeffs j) in
    if Float.abs x < 0x1p62 then begin
      let v = Float.to_int x in
      for i = 0 to k - 1 do
        let p = Array.unsafe_get primes i in
        let r = v mod p in
        Rowvec.unsafe_set (Array.unsafe_get rows i) j (r + (p land (r asr 62)))
      done
    end
    else
      for i = 0 to k - 1 do
        Rowvec.unsafe_set rows.(i) j (big_residue x primes.(i))
      done
  done;
  { tables; rows; ntt = false }

let of_ntt_rows ~tables rows =
  if Array.length rows <> Array.length tables then invalid_arg "Rns_poly.of_ntt_rows: arity";
  { tables; rows; ntt = true }

let rows t = t.rows

let copy t =
  (* Fresh contiguous storage even when the source rows were foreign
     views — a copy always owns its buffer. *)
  let rows = alloc_rows ~tables:t.tables in
  Array.iteri (fun i dst -> Rowvec.blit t.rows.(i) dst) rows;
  { t with rows }

let to_ntt t =
  if not t.ntt then begin
    for_rows t (fun i -> Ntt.forward t.tables.(i) t.rows.(i));
    t.ntt <- true
  end

let to_coeff t =
  if t.ntt then begin
    for_rows t (fun i -> Ntt.inverse t.tables.(i) t.rows.(i));
    t.ntt <- false
  end

let same_modulus a b =
  Array.length a.tables = Array.length b.tables
  && Array.for_all2 (fun x y -> Ntt.modulus x = Ntt.modulus y) a.tables b.tables

let check_compat op a b =
  if not (same_modulus a b) then raise (Modulus_mismatch op);
  if a.ntt <> b.ntt then invalid_arg (op ^ ": operands in different forms")

(* Each pointwise kernel is its own loop over [Rowvec] primitives and
   local arithmetic: dune's default profile compiles with -opaque, so a
   closure argument or a cross-module call such as [Modarith.add] would
   be an indirect call per residue. Corrections are branchless
   ([x asr 62] is the sign mask) and agree with [Modarith.add]/[sub]/
   [neg] on reduced inputs. *)
let add a b =
  check_compat "add" a b;
  let rows = alloc_rows ~tables:a.tables in
  let n = degree a in
  for_rows a (fun i ->
      let p = Ntt.modulus a.tables.(i) in
      let ra = a.rows.(i) and rb = b.rows.(i) and out = rows.(i) in
      for j = 0 to n - 1 do
        let s = Rowvec.unsafe_get ra j + Rowvec.unsafe_get rb j - p in
        Rowvec.unsafe_set out j (s + (p land (s asr 62)))
      done);
  { tables = a.tables; rows; ntt = a.ntt }

let sub a b =
  check_compat "sub" a b;
  let rows = alloc_rows ~tables:a.tables in
  let n = degree a in
  for_rows a (fun i ->
      let p = Ntt.modulus a.tables.(i) in
      let ra = a.rows.(i) and rb = b.rows.(i) and out = rows.(i) in
      for j = 0 to n - 1 do
        let s = Rowvec.unsafe_get ra j - Rowvec.unsafe_get rb j in
        Rowvec.unsafe_set out j (s + (p land (s asr 62)))
      done);
  { tables = a.tables; rows; ntt = a.ntt }

let neg a =
  let rows = alloc_rows ~tables:a.tables in
  let n = degree a in
  for_rows a (fun i ->
      let p = Ntt.modulus a.tables.(i) in
      let ra = a.rows.(i) and out = rows.(i) in
      for j = 0 to n - 1 do
        (* -x + p, except 0 stays 0. *)
        let s = -Rowvec.unsafe_get ra j in
        Rowvec.unsafe_set out j (s + (p land (s asr 62)))
      done);
  { a with rows }

(* Pointwise products reduce with the tables' precomputed Barrett
   constants (both factors vary, so Shoup does not apply); the constants
   are hoisted out of the inner loop so no hot instruction divides. *)
let mul a b =
  if not (a.ntt && b.ntt) then invalid_arg "Rns_poly.mul: operands must be in NTT form";
  check_compat "mul" a b;
  let rows = alloc_rows ~tables:a.tables in
  let n = degree a in
  for_rows a (fun i ->
      let { Modarith.bp; bk; bmu; _ } = Ntt.barrett a.tables.(i) in
      let ra = a.rows.(i) and rb = b.rows.(i) and out = rows.(i) in
      for j = 0 to n - 1 do
        let z = Rowvec.unsafe_get ra j * Rowvec.unsafe_get rb j in
        let q = ((z lsr (bk - 1)) * bmu) lsr (bk + 1) in
        let r = z - (q * bp) - bp in
        let r = r + (bp land (r asr 62)) - bp in
        Rowvec.unsafe_set out j (r + (bp land (r asr 62)))
      done);
  { tables = a.tables; rows; ntt = true }

let mul_inplace a b =
  if not (a.ntt && b.ntt) then invalid_arg "Rns_poly.mul_inplace: operands must be in NTT form";
  check_compat "mul_inplace" a b;
  let n = degree a in
  for_rows a (fun i ->
      let { Modarith.bp; bk; bmu; _ } = Ntt.barrett a.tables.(i) in
      let ra = a.rows.(i) and rb = b.rows.(i) in
      for j = 0 to n - 1 do
        let z = Rowvec.unsafe_get ra j * Rowvec.unsafe_get rb j in
        let q = ((z lsr (bk - 1)) * bmu) lsr (bk + 1) in
        let r = z - (q * bp) - bp in
        let r = r + (bp land (r asr 62)) - bp in
        Rowvec.unsafe_set ra j (r + (bp land (r asr 62)))
      done)

let add_inplace a b =
  check_compat "add_inplace" a b;
  let n = degree a in
  for_rows a (fun i ->
      let p = Ntt.modulus a.tables.(i) in
      let ra = a.rows.(i) and rb = b.rows.(i) in
      for j = 0 to n - 1 do
        let s = Rowvec.unsafe_get ra j + Rowvec.unsafe_get rb j - p in
        Rowvec.unsafe_set ra j (s + (p land (s asr 62)))
      done)

let mul_acc acc a b =
  if not (acc.ntt && a.ntt && b.ntt) then invalid_arg "Rns_poly.mul_acc: NTT form required";
  check_compat "mul_acc" a b;
  check_compat "mul_acc" acc a;
  let n = degree acc in
  for_rows acc (fun i ->
      let { Modarith.bp; bk; bmu; _ } = Ntt.barrett acc.tables.(i) in
      let racc = acc.rows.(i) and ra = a.rows.(i) and rb = b.rows.(i) in
      for j = 0 to n - 1 do
        let z = Rowvec.unsafe_get ra j * Rowvec.unsafe_get rb j in
        let q = ((z lsr (bk - 1)) * bmu) lsr (bk + 1) in
        let r = z - (q * bp) - bp in
        let r = r + (bp land (r asr 62)) - bp in
        let r = r + (bp land (r asr 62)) in
        let s = Rowvec.unsafe_get racc j + r - bp in
        Rowvec.unsafe_set racc j (s + (bp land (s asr 62)))
      done)

(* The reduced scalar is fixed per row: a Shoup multiply. *)
let mul_scalar_int t k =
  let rows = alloc_rows ~tables:t.tables in
  let n = degree t in
  for_rows t (fun i ->
      let p = Ntt.modulus t.tables.(i) in
      let kr = Modarith.reduce k p in
      let ks = Modarith.shoup kr p in
      let row = t.rows.(i) and out = rows.(i) in
      for j = 0 to n - 1 do
        let x = Rowvec.unsafe_get row j in
        let q = (x * ks) lsr 31 in
        let r = (x * kr) - (q * p) - p in
        Rowvec.unsafe_set out j (r + (p land (r asr 62)))
      done);
  { t with rows }

let drop_last t =
  let k = num_primes t in
  if k <= 1 then invalid_arg "Rns_poly.drop_last: last prime";
  { t with tables = Array.sub t.tables 0 (k - 1); rows = Array.sub t.rows 0 (k - 1) }

let drop_many t count =
  let k = num_primes t in
  if count < 0 || count >= k then invalid_arg "Rns_poly.drop_many: bad count";
  { t with tables = Array.sub t.tables 0 (k - count); rows = Array.sub t.rows 0 (k - count) }

(* Divide by the product P of the last [count] primes with rounding.
   Centered rounding by p_(k-1), then by p_(k-2), and so on, composes
   to one subtraction of R = c_1 + p_(k-1) * (c_2 + p_(k-2) * (...)),
   where c_s is the centered digit of the running quotient modulo the
   s-th dropped prime: R is the centered residue of x modulo P, and
   the result is (x - R) * P^-1 on the kept primes. Only the dropped
   rows leave the NTT domain: their digits come from a Garner pass
   among themselves, pairs of digits fold into one native int below
   2^59 in magnitude, and the folded R, reduced by Horner modulo each
   kept prime, is transformed back as one correction row per kept
   prime. Coefficient-form input takes the same path with neither
   transform. Output and scratch rows are one block: the kept rows
   first, then the dropped rows' digits. That block is fresh, or with
   [in_place] it is [t]'s own rows. *)
let rescale_many ?(in_place = false) t count =
  let k = num_primes t in
  if count < 1 || count >= k then invalid_arg "Rns_poly.rescale_many: bad count";
  let m = k - count in
  let n = degree t in
  let block = if in_place then t.rows else alloc_rows ~tables:t.tables in
  (* Digit s lives in the dropped row of prime k-1-s. *)
  let dp = Array.init count (fun s -> Ntt.modulus t.tables.(k - 1 - s)) in
  let digits =
    Array.init count (fun s ->
        let row = block.(k - 1 - s) in
        if not in_place then Rowvec.blit t.rows.(k - 1 - s) row;
        if t.ntt then Ntt.inverse t.tables.(k - 1 - s) row;
        row)
  in
  (* Garner among the dropped rows, as the sequential division does it:
     subtract each centered digit from the later rows and divide by its
     prime. The inner loop is division-free (Barrett reduction of the
     digit, Shoup multiply by the fixed inverse). *)
  for s = 0 to count - 2 do
    let ps = dp.(s) in
    let half = ps / 2 in
    let src = digits.(s) in
    for s' = s + 1 to count - 1 do
      let p = dp.(s') in
      let { Modarith.bp; bmu31; _ } = Ntt.barrett t.tables.(k - 1 - s') in
      let ps_mod = ps mod p in
      let inv = Modarith.inv ps_mod p in
      let inv_s = Modarith.shoup inv p in
      let row = digits.(s') in
      for j = 0 to n - 1 do
        let u = Rowvec.unsafe_get src j in
        let q = (u * bmu31) lsr 31 in
        let v = u - (q * bp) - bp in
        let v = v + (bp land (v asr 62)) - bp in
        let v = v + (bp land (v asr 62)) in
        (* Subtract (ps mod p) exactly when the centered digit is
           negative: [sel] is -1 iff u > half. *)
        let sel = (half - u) asr 62 in
        let v = v - (ps_mod land sel) in
        let v = v + (p land (v asr 62)) in
        let diff = Rowvec.unsafe_get row j - v in
        let diff = diff + (p land (diff asr 62)) in
        let q = (diff * inv_s) lsr 31 in
        let r = (diff * inv) - (q * p) - p in
        Rowvec.unsafe_set row j (r + (p land (r asr 62)))
      done
    done
  done;
  (* Fold digits pairwise, in place: group g holds
     G_g = c_(2g) + p_(2g) * c_(2g+1) in digit row 2g, so
     R = G_0 + p_0 p_1 * (G_1 + p_2 p_3 * (...)). *)
  let groups = (count + 1) / 2 in
  for g = 0 to groups - 1 do
    let a = digits.(2 * g) and pa = dp.(2 * g) in
    let ha = pa / 2 in
    if (2 * g) + 1 < count then begin
      let b = digits.((2 * g) + 1) and pb = dp.((2 * g) + 1) in
      let hb = pb / 2 in
      for j = 0 to n - 1 do
        let ua = Rowvec.unsafe_get a j and ub = Rowvec.unsafe_get b j in
        let ca = ua - (pa land ((ha - ua) asr 62)) and cb = ub - (pb land ((hb - ub) asr 62)) in
        Rowvec.unsafe_set a j (ca + (pa * cb))
      done
    end
    else
      for j = 0 to n - 1 do
        let ua = Rowvec.unsafe_get a j in
        Rowvec.unsafe_set a j (ua - (pa land ((ha - ua) asr 62)))
      done
  done;
  (* A kept prime's correction is built in its output row, unless that
     row is the input's: then in the second digit's row, free once the
     pairs are folded, or in one fresh row when a single prime drops. *)
  let scratch = if not in_place then None else Some (if count >= 2 then digits.(1) else Rowvec.create n) in
  for i = 0 to m - 1 do
    let p = Ntt.modulus t.tables.(i) in
    let out = block.(i) in
    let corr = Option.value scratch ~default:out in
    (* R mod p by Horner over the groups, top group first. |G| < 2^59
       and the running value times (p_a p_b mod p) stays below 2^60, so
       every step is one exact [mod] (truncating: the sign mask fixes a
       negative remainder). *)
    let top = digits.(2 * (groups - 1)) in
    for j = 0 to n - 1 do
      let r = Rowvec.unsafe_get top j mod p in
      Rowvec.unsafe_set corr j (r + (p land (r asr 62)))
    done;
    for g = groups - 2 downto 0 do
      let w = dp.(2 * g) mod p * (dp.((2 * g) + 1) mod p) mod p in
      let gr = digits.(2 * g) in
      for j = 0 to n - 1 do
        let r = ((Rowvec.unsafe_get corr j * w) + Rowvec.unsafe_get gr j) mod p in
        Rowvec.unsafe_set corr j (r + (p land (r asr 62)))
      done
    done;
    if t.ntt then Ntt.forward t.tables.(i) corr;
    (* (x - R) * P^-1, the fixed inverse by Shoup. *)
    let pinv = Array.fold_left (fun acc ps -> Modarith.mul acc (Modarith.inv (ps mod p) p) p) 1 dp in
    let pinv_s = Modarith.shoup pinv p in
    let row = t.rows.(i) in
    for j = 0 to n - 1 do
      let diff = Rowvec.unsafe_get row j - Rowvec.unsafe_get corr j in
      let diff = diff + (p land (diff asr 62)) in
      let q = (diff * pinv_s) lsr 31 in
      let r = (diff * pinv) - (q * p) - p in
      Rowvec.unsafe_set out j (r + (p land (r asr 62)))
    done
  done;
  { tables = Array.sub t.tables 0 m; rows = Array.sub block 0 m; ntt = t.ntt }

let rescale_last t = rescale_many t 1

(* The automorphism on a coefficient-form [t]. *)
let galois_rows t g =
  let n = degree t in
  let mask = (2 * n) - 1 in
  if g land 1 = 0 then invalid_arg "Rns_poly.galois: even exponent";
  let out_rows = alloc_rows ~tables:t.tables in
  for_rows t (fun i ->
      let p = Ntt.modulus t.tables.(i) in
      let row = t.rows.(i) and out = out_rows.(i) in
      for j = 0 to n - 1 do
        (* X^j -> X^(jg mod 2n) = -X^(jg mod 2n - n) past n. g is odd,
           so j -> jg mod n is a bijection: every output word is written
           exactly once, as c or -c, with no accumulation. [hi] is -1
           iff the exponent wrapped past n. *)
        let e = j * g land mask in
        let hi = (n - 1 - e) asr 62 in
        let c = Rowvec.unsafe_get row j in
        let x = (c lxor hi) - hi in
        Rowvec.unsafe_set out (e - (n land hi)) (x + (p land (x asr 62)))
      done);
  out_rows

let galois t g =
  if t.ntt then begin
    (* Evaluation-domain fast path: a pure slot permutation, no NTT round
       trip (validated against the coefficient path by property test).
       The permutation is cached inside Ntt keyed by (n, g). *)
    let perm = Ntt.galois_permutation t.tables.(0) g in
    let n = degree t in
    let rows = alloc_rows ~tables:t.tables in
    for_rows t (fun i ->
        let row = t.rows.(i) and out = rows.(i) in
        for j = 0 to n - 1 do
          Rowvec.unsafe_set out j (Rowvec.unsafe_get row (Array.unsafe_get perm j))
        done);
    { tables = t.tables; rows; ntt = true }
  end
  else { tables = t.tables; rows = galois_rows t g; ntt = false }

(* Samplers consume their stream a 64-bit word at a time, row by row
   and coefficient by coefficient, so a sample is a function of the
   stream's state alone. Work that fans out over domains gives each job
   its own stream, split from the caller's in a fixed order before any
   job runs (Keys.generate, Executor.encrypt_inputs): that order, not
   which domain runs a job, is the format. *)
let word st = Int64.to_int (Random.State.bits64 st)

(* Fill [row] with uniform residues mod [p]: two candidates per word,
   each 30-bit half (p < 2^30) masked to the bit length of p - 1; one at
   or above p is rejected, so every kept residue is exactly uniform in
   [0, p). *)
let uniform_row st p row =
  let mask = ref 1 in
  while !mask < p - 1 do
    mask := (!mask lsl 1) lor 1
  done;
  let mask = !mask in
  let n = Rowvec.length row in
  let j = ref 0 in
  while !j < n do
    let w = word st in
    let c = w land mask in
    if c < p then begin
      Rowvec.unsafe_set row !j c;
      incr j
    end;
    let c = (w lsr 30) land mask in
    if c < p && !j < n then begin
      Rowvec.unsafe_set row !j c;
      incr j
    end
  done

let sample_uniform st ~tables =
  let rows = alloc_rows ~tables in
  for i = 0 to Array.length tables - 1 do
    uniform_row st (Ntt.modulus tables.(i)) rows.(i)
  done;
  (* Uniform per-prime residues are exactly uniform mod the product (CRT). *)
  { tables; rows; ntt = true }

let sample_uniform_cut st ~tables ~drop:(lo, count) =
  let kept = Array.append (Array.sub tables 0 lo) (Array.sub tables (lo + count) (Array.length tables - lo - count)) in
  let rows = alloc_rows ~tables:kept in
  (* A dropped row is drawn in its place, into one scratch row, and
     discarded: the stream advances exactly as for the full sample. *)
  let scratch = Rowvec.create (if count = 0 then 0 else Ntt.size tables.(0)) in
  for i = 0 to Array.length tables - 1 do
    let row = if i < lo then rows.(i) else if i < lo + count then scratch else rows.(i - count) in
    uniform_row st (Ntt.modulus tables.(i)) row
  done;
  { tables = kept; rows; ntt = true }

let of_small_coeffs ~tables small =
  let n = Array.length small in
  let rows = alloc_rows ~tables in
  Array.iteri
    (fun i tb ->
      let p = Ntt.modulus tb in
      let row = rows.(i) in
      for j = 0 to n - 1 do
        (* |small.(j)| < p: one branchless correction reduces it. *)
        let x = small.(j) in
        Rowvec.unsafe_set row j (x + (p land (x asr 62)))
      done)
    tables;
  let t = { tables; rows; ntt = false } in
  to_ntt t;
  t

let sample_ternary st ~tables =
  let n = Ntt.size tables.(0) in
  let small = Array.make n 0 in
  (* 2-bit candidates, 31 to a word; 3 is rejected. *)
  let j = ref 0 in
  while !j < n do
    let w = ref (word st) in
    for _ = 1 to 31 do
      let c = !w land 3 in
      if c < 3 && !j < n then begin
        Array.unsafe_set small !j (c - 1);
        incr j
      end;
      w := !w lsr 2
    done
  done;
  of_small_coeffs ~tables small

let sample_error st ~tables =
  let n = Ntt.size tables.(0) in
  let small = Array.make n 0 in
  for j = 0 to n - 1 do
    (* Centered binomial with 21 coin pairs (variance 10.5, sigma ~
       3.24): the popcount of a word's low 21 bits minus that of its
       next 21. The halves are moved to bytes 0-2 and 4-6 and counted
       together (SWAR); the byte sums land in bytes 2 and 6. *)
    let w = word st in
    let y = w land 0x1FFFFF lor (((w lsr 21) land 0x1FFFFF) lsl 32) in
    let y = y - ((y lsr 1) land 0x55555555555555) in
    let y = (y land 0x33333333333333) + ((y lsr 2) land 0x33333333333333) in
    let y = (y + (y lsr 4)) land 0x0F0F0F0F0F0F0F in
    let y = y * 0x010101 in
    Array.unsafe_set small j (((y lsr 16) land 0xFF) - ((y lsr 48) land 0xFF))
  done;
  of_small_coeffs ~tables small

(* Garner's mixed-radix digits v of a coefficient x in [0, Q), with
   x = v0 + p0*(v1 + p1*(v2 + ...)) and 0 <= vi < pi, decide its sign
   and give its value without big integers. x is negative (x - Q) when
   its digits exceed, top digit first, those of (Q+1)/2, which are
   (p0+1)/2 and then (pi-1)/2. The magnitude Q - x has digits p0 - v0
   and then pi - 1 - vi. A wrapping native-int Horner over the
   magnitude's digits is exact below 2^62; a fused float Horner, one
   rounding per digit, estimates it and stands in above 2^61. *)
let to_float_coeffs t =
  let w =
    if t.ntt then begin
      let w = copy t in
      to_coeff w;
      w
    end
    else t
  in
  let primes = primes t in
  let k = Array.length primes and n = degree t in
  (* pmod.(i).(j) for j < i: primes.(j) mod primes.(i); inv_prod.(i):
     inverse of primes.(0) * ... * primes.(i-1) modulo primes.(i). *)
  let pmod = Array.init k (fun i -> Array.init i (fun j -> primes.(j) mod primes.(i))) in
  let inv_prod =
    Array.init k (fun i ->
        Array.fold_left (fun acc pj -> Modarith.mul acc (Modarith.inv pj primes.(i)) primes.(i)) 1 pmod.(i))
  in
  let half = Array.mapi (fun i p -> if i = 0 then (p + 1) / 2 else (p - 1) / 2) primes in
  let top = Array.mapi (fun i p -> if i = 0 then p else p - 1) primes in
  let v = Array.make k 0 in
  let out = Array.make n 0.0 in
  for c = 0 to n - 1 do
    for i = 0 to k - 1 do
      let pi = primes.(i) and pm = pmod.(i) in
      (* (residue - (v0 + p0*(v1 + ...))) * inv(p0 * ... * p(i-1)) mod pi;
         primes below 2^31 keep every product below 2^62. *)
      let acc = ref 0 in
      for j = i - 1 downto 0 do
        acc := ((!acc * pm.(j)) + (v.(j) mod pi)) mod pi
      done;
      let diff = Rowvec.unsafe_get w.rows.(i) c - !acc in
      let diff = diff + (pi land (diff asr 62)) in
      v.(i) <- diff * inv_prod.(i) mod pi
    done;
    let i = ref (k - 1) in
    while !i > 0 && v.(!i) = half.(!i) do
      decr i
    done;
    let neg = v.(!i) > half.(!i) in
    let x = ref 0 and f = ref 0.0 in
    for i = k - 1 downto 0 do
      let p = primes.(i) in
      let d = if neg then top.(i) - v.(i) else v.(i) in
      x := (!x * p) + d;
      f := Float.fma !f (float_of_int p) (float_of_int d)
    done;
    let m = if !f < 0x1p61 then float_of_int !x else !f in
    out.(c) <- (if neg then -.m else m)
  done;
  out
