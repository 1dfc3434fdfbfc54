(** Modular arithmetic on machine integers.

    All moduli handled by the RNS substrate are primes below 2^31, so every
    product of two residues fits in OCaml's 63-bit native [int] and no
    double-width emulation is needed.

    These are the scalar forms. Per-residue loops in other modules spell
    the same arithmetic out inline instead of calling them: under dune's
    default [-opaque] profile each cross-module call here is an indirect
    [caml_applyN]. The kernels are tested word for word against these
    functions. *)

(** [add a b m] for [0 <= a, b < m]. *)
val add : int -> int -> int -> int

(** [sub a b m] for [0 <= a, b < m]. *)
val sub : int -> int -> int -> int

val neg : int -> int -> int

(** [mul a b m] for [0 <= a, b < m < 2^31]. *)
val mul : int -> int -> int -> int

(** [shoup w p] is the Shoup companion constant [floor (w * 2^31 / p)]
    for a fixed factor [0 <= w < p < 2^30]. *)
val shoup : int -> int -> int

(** [mul_shoup_lazy x w w_shoup p] is congruent to [x * w] modulo [p]
    and lies in [0, 2p), given [x < 2p], [w < p < 2^30] and
    [w_shoup = shoup w p]. The workhorse of the lazy-reduction NTT
    butterflies: no division, no full correction. *)
val mul_shoup_lazy : int -> int -> int -> int -> int

(** [mul_shoup x w w_shoup p] is [x * w mod p] (fully reduced), same
    preconditions as {!mul_shoup_lazy}. *)
val mul_shoup : int -> int -> int -> int -> int

(** Precomputed Barrett constants for a modulus in [2, 2^30); the record
    is exposed so hot loops can hoist the field loads. *)
type barrett = { bp : int; bk : int; bmu : int; bmu31 : int }

val barrett : int -> barrett

(** [barrett_mul br x y] is [x * y mod br.bp] for [0 <= x, y < br.bp],
    division-free (both factors may vary, unlike {!mul_shoup}). *)
val barrett_mul : barrett -> int -> int -> int

(** [barrett_reduce31 br z] is [z mod br.bp] for any [0 <= z < 2^31]. *)
val barrett_reduce31 : barrett -> int -> int

(** [pow a e m] for [e >= 0]. *)
val pow : int -> int -> int -> int

(** [inv a m] is the inverse of [a] modulo prime [m].
    Raises [Invalid_argument] if [a = 0 mod m]. *)
val inv : int -> int -> int

(** Deterministic Miller-Rabin, exact for all inputs below 2^31. *)
val is_prime : int -> bool

(** [reduce k m] is the least non-negative residue of any [int] [k]. *)
val reduce : int -> int -> int
