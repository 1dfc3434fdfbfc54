module Ntt = Eva_rns.Ntt
module Primes = Eva_rns.Primes
module Rns_poly = Eva_poly.Rns_poly
module Diag = Eva_diag.Diag

let crypto_error code fmt = Diag.error ~layer:Diag.Crypto ~code fmt

type element = { bits : int; prime_lo : int; prime_count : int (* 1 or 2 *) }

type t = {
  n : int;
  slots : int;
  elements : element array; (* chain order: last = dropped first *)
  data_tables : Ntt.table array;
  special_tables : Ntt.table array;
  embedding : Embedding.t;
  element_values : float array;
}

let element_prime_count bits = if bits <= 30 then 1 else 2

(* An element of more than 30 bits is realized as two primes; each half
   must itself be NTT-friendly-sized, so small halves are raised to the
   minimum (slightly overshooting the requested bits, like SEAL's prime
   lookup does when a window is exhausted). *)
let split_bits ~min_b bits =
  if element_prime_count bits = 1 then [ max min_b bits ]
  else [ max min_b ((bits + 1) / 2); max min_b (bits / 2) ]

let make ?(ignore_security = false) ~n ~data_bits ~special_bits () =
  if n < 2 || n land (n - 1) <> 0 then
    crypto_error Diag.crypto_context "Context.make: degree %d must be a power of two" n;
  let two_n = 2 * n in
  let min_b = Primes.min_bits ~two_n in
  let check_bits b =
    if b < 1 || b > 60 then
      crypto_error Diag.crypto_context "Context.make: element of %d bits outside [1, 60]" b
  in
  List.iter check_bits data_bits;
  List.iter check_bits special_bits;
  let total = List.fold_left ( + ) 0 (data_bits @ special_bits) in
  if not ignore_security then begin
    let bound = Security.max_log_q ~level:Security.Bits128 ~n in
    if total > bound then
      crypto_error Diag.crypto_security
        "Context.make: log Q = %d exceeds the 128-bit security bound %d for N = %d" total bound n
  end;
  let seen = Hashtbl.create 32 in
  let gen_element bits =
    (* If the requested window holds no fresh NTT-friendly prime (it can
       be only a couple of candidates wide for sizes near log2(2N)), fall
       back to slightly larger primes; scale bookkeeping uses exact prime
       values, so only log Q drifts by a bit or two. *)
    let rec gen_at pb =
      if pb > 30 then
        crypto_error Diag.crypto_context
          "Context.make: NTT-friendly prime pool exhausted for 2N = %d" two_n
      else
        match Primes.gen ~bits:pb ~two_n ~avoid:(Hashtbl.mem seen) with
        | p -> p
        | exception Not_found -> gen_at (pb + 1)
    in
    List.map
      (fun pb ->
        let p = gen_at pb in
        Hashtbl.replace seen p ();
        p)
      (split_bits ~min_b bits)
  in
  let data_primes = List.map gen_element data_bits in
  let special_primes = List.map gen_element special_bits in
  let mk_tables primes = Array.of_list (List.map (fun p -> Ntt.make ~n p) (List.concat primes)) in
  let elements =
    let idx = ref 0 in
    Array.of_list
      (List.map2
         (fun bits primes ->
           let lo = !idx in
           idx := !idx + List.length primes;
           { bits; prime_lo = lo; prime_count = List.length primes })
         data_bits data_primes)
  in
  let element_values =
    Array.of_list (List.map (fun ps -> List.fold_left (fun acc p -> acc *. float_of_int p) 1.0 ps) data_primes)
  in
  {
    n;
    slots = n / 2;
    elements;
    data_tables = mk_tables data_primes;
    special_tables = mk_tables special_primes;
    embedding = Embedding.make ~slots:(n / 2);
    element_values;
  }

let degree t = t.n
let slots t = t.slots
let chain_length t = Array.length t.elements
let element_value t i = t.element_values.(i)

let total_log_q t =
  let log_p =
    Array.fold_left (fun acc tb -> acc +. Float.log2 (float_of_int (Ntt.modulus tb))) 0.0 t.special_tables
  in
  Array.fold_left (fun acc v -> acc +. Float.log2 v) log_p t.element_values

let prime_count_for_level t level =
  if level < 1 || level > Array.length t.elements then
    crypto_error Diag.crypto_context "Context.prime_count_for_level: level %d outside [1, %d]" level
      (Array.length t.elements);
  let e = t.elements.(level - 1) in
  e.prime_lo + e.prime_count

let element_prime_ranges t = Array.map (fun e -> (e.prime_lo, e.prime_count)) t.elements

let tables_for_level t level = Array.sub t.data_tables 0 (prime_count_for_level t level)
let ks_tables t level = Array.append (tables_for_level t level) t.special_tables
let full_tables t = Array.append t.data_tables t.special_tables
let num_special_primes t = Array.length t.special_tables
let num_data_primes t = Array.length t.data_tables
let embedding t = t.embedding

let galois_elt_rotate t steps =
  let two_n = 2 * t.n in
  let steps = ((steps mod t.slots) + t.slots) mod t.slots in
  let g = ref 1 in
  for _ = 1 to steps do
    g := !g * 5 mod two_n
  done;
  !g

(* CKKS slots hold complex values; the language is real-valued, so
   [encode]/[decode] are the only callers and pass zero imaginary parts. *)
let encode_complex t ~level ~scale values =
  let len = Array.length values in
  if len = 0 || t.slots mod len <> 0 then
    crypto_error Diag.crypto_context "Context.encode: input size %d does not divide slot count %d" len
      t.slots;
  if not (Float.is_finite scale && scale > 0.0) then
    crypto_error Diag.crypto_context "Context.encode: scale %h is not finite and positive" scale;
  let z = Array.init t.slots (fun i -> values.(i mod len)) in
  Embedding.embed_inverse t.embedding z;
  let tables = tables_for_level t level in
  (* SEAL's "encoded values are too large": a coefficient at or beyond
     half the modulus would wrap to a different value mod Q. *)
  let half_q = Array.fold_left (fun acc tb -> acc *. float_of_int (Ntt.modulus tb)) 0.5 tables in
  let coeffs = Array.make t.n 0.0 in
  let put i x =
    let c = x *. scale in
    if not (Float.abs c < half_q) then
      crypto_error Diag.crypto_context
        "Context.encode: scaled coefficient %g is not finite or reaches half the level-%d modulus" c
        level;
    coeffs.(i) <- c
  in
  for i = 0 to t.slots - 1 do
    put i z.(i).Complex.re;
    put (i + t.slots) z.(i).Complex.im
  done;
  let poly = Rns_poly.of_float_coeffs ~tables coeffs in
  Rns_poly.to_ntt poly;
  poly

let encode t ~level ~scale values =
  encode_complex t ~level ~scale (Array.map (fun re -> { Complex.re; im = 0.0 }) values)

let decode_complex t ~scale poly =
  let coeffs = Rns_poly.to_float_coeffs poly in
  let inv_scale = 1.0 /. scale in
  let z =
    Array.init t.slots (fun i ->
        { Complex.re = coeffs.(i) *. inv_scale; im = coeffs.(i + t.slots) *. inv_scale })
  in
  Embedding.embed_forward t.embedding z;
  z

let decode t ~scale poly = Array.map (fun c -> c.Complex.re) (decode_complex t ~scale poly)
