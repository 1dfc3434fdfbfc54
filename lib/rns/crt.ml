module Bigint = Eva_bigint.Bigint

type t = {
  primes : int array;
  (* pmod.(i).(j) for j < i: primes.(j) mod primes.(i). *)
  pmod : int array array;
  (* inv_prod.(i): inverse of primes.(0) * ... * primes.(i-1) modulo primes.(i). *)
  inv_prod : int array;
  modulus : Bigint.t;
}

let make prime_list =
  let primes = Array.of_list prime_list in
  let k = Array.length primes in
  let pmod = Array.init k (fun i -> Array.init i (fun j -> primes.(j) mod primes.(i))) in
  let inv_prod =
    Array.init k (fun i ->
        Array.fold_left (fun acc pj -> Modarith.mul acc (Modarith.inv pj primes.(i)) primes.(i)) 1 pmod.(i))
  in
  let modulus = Array.fold_left Bigint.mul_int Bigint.one primes in
  { primes; pmod; inv_prod; modulus }

let primes t = t.primes
let modulus t = t.modulus

let reconstruct t residues =
  let k = Array.length t.primes in
  if Array.length residues <> k then invalid_arg "Crt.reconstruct: arity mismatch";
  (* Garner: digits v.(i) with x = v0 + p0*(v1 + p1*(v2 + ...)). *)
  let v = Array.make k 0 in
  (* Per-coefficient arithmetic is written out (primes below 2^31 keep
     every product below 2^62), so the loops make no calls. *)
  for i = 0 to k - 1 do
    let pi = t.primes.(i) and pm = t.pmod.(i) in
    (* temp = (residues.(i) - (v0 + p0*(v1 + ...))) * inv(prod_{j<i} pj) mod pi *)
    let acc = ref 0 in
    for j = i - 1 downto 0 do
      acc := ((!acc * pm.(j)) + (v.(j) mod pi)) mod pi
    done;
    let diff = (residues.(i) mod pi) - !acc in
    let diff = diff + (pi land (diff asr 62)) in
    v.(i) <- diff * t.inv_prod.(i) mod pi
  done;
  let x = ref Bigint.zero in
  for i = k - 1 downto 0 do
    x := Bigint.add (Bigint.mul_int !x t.primes.(i)) (Bigint.of_int v.(i))
  done;
  !x

let reconstruct_centered t residues =
  let x = reconstruct t residues in
  let half = Bigint.shift_right_round t.modulus 1 in
  if Bigint.compare x half > 0 then Bigint.sub x t.modulus else x

let residues t x =
  Array.map (fun p -> Bigint.rem_int x p) t.primes
