(** Negacyclic number-theoretic transform over Z_p.

    Forward/inverse transforms realize evaluation/interpolation for the ring
    Z_p[X]/(X^N + 1), so that polynomial multiplication becomes pointwise
    multiplication of transformed coefficient vectors. Powers of a
    primitive 2N-th root of unity are folded into the butterflies
    (Longa-Naehrig), so no separate pre/post twisting is needed. *)

type table

(** [make ~n p] precomputes twiddle factors for size [n] (a power of two)
    modulo prime [p = 1 (mod 2n)]. *)
val make : n:int -> int -> table

val modulus : table -> int
val size : table -> int

(** Precomputed Barrett constants for this table's modulus, shared with
    the pointwise kernels so they never divide either. *)
val barrett : table -> Modarith.barrett

(** In-place forward transform of a length-[n] residue row
    (residues in [0, p)). Butterflies use Shoup twiddle multiplication
    with values lazily reduced in [0, 2p); a final correction pass
    restores [0, p). *)
val forward : table -> Rowvec.t -> unit

(** In-place inverse transform. [inverse t (forward t a)] restores [a]. *)
val inverse : table -> Rowvec.t -> unit

(** [galois_permutation t g] is the slot permutation realizing the ring
    automorphism X -> X^g (odd [g]) directly in the evaluation domain:
    if [b] is the forward transform of [a], then the transform of
    [galois(a)] at index [j] is [b.(perm.(j))]. Evaluation points of this
    transform's output ordering are characterized empirically and
    verified by differential tests against the coefficient-domain
    automorphism.

    Results are cached keyed by [(n, g)] (the permutation is independent
    of the prime) in a lock-free snapshot map — hits are wait-free, so
    a hoisted-rotation fan read from many graph workers never serializes
    on a lock; the entry for a key is physically unique once published.
    Callers must treat the returned array as read-only. *)
val galois_permutation : table -> int -> int array
