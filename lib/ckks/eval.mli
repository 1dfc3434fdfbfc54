(** Homomorphic evaluation for the simulated RNS-CKKS scheme.

    Every operation enforces the same preconditions SEAL does — equal
    levels for binary operations, equal scales for addition/subtraction,
    operand size 2 for relinearization — raising {!Level_mismatch},
    {!Scale_mismatch} or {!Size_error}. The EVA compiler's whole purpose
    is to emit programs for which these never fire. *)

exception Level_mismatch of string
exception Scale_mismatch of string
exception Size_error of string

exception Missing_galois_key of int
(** Rotation requires the matching pregenerated Galois key,
    as in SEAL; keys are never created implicitly (the evaluator may not
    own the secret). *)

type ciphertext = {
  polys : Eva_poly.Rns_poly.t array; (* NTT form over the level's primes *)
  level : int; (* data elements remaining *)
  scale : float;
}

type plaintext = { poly : Eva_poly.Rns_poly.t; pt_level : int; pt_scale : float }

val encode : Context.t -> level:int -> scale:float -> float array -> plaintext

val encrypt : Context.t -> Keys.keyset -> Random.State.t -> plaintext -> ciphertext

(** [decrypt ctx secret ct] decodes straight to slot values. *)
val decrypt : Context.t -> Keys.secret -> ciphertext -> float array

val size : ciphertext -> int

val negate : ciphertext -> ciphertext
val add : ciphertext -> ciphertext -> ciphertext
val sub : ciphertext -> ciphertext -> ciphertext
val add_plain : ciphertext -> plaintext -> ciphertext
val sub_plain : ciphertext -> plaintext -> ciphertext

(** Tensor product; operand sizes k and l give size k + l - 1. The result
    scale is the product of scales. *)
val multiply : ciphertext -> ciphertext -> ciphertext

val multiply_plain : ciphertext -> plaintext -> ciphertext

(** Reduce a size-3 ciphertext to size 2. A relinearization key
    shallower than the ciphertext's level raises EVA-E607
    ({!Keys.check_depth}), as does a Galois key in {!rotate}. *)
val relinearize : Context.t -> Keys.keyset -> ciphertext -> ciphertext

(** Drop the last element, dividing the message (and scale) by it. *)
val rescale : Context.t -> ciphertext -> ciphertext

(** Drop the last element without scaling. *)
val mod_switch : Context.t -> ciphertext -> ciphertext

(** Rotate slot contents left by [steps] (negative = right); raises
    {!Missing_galois_key} when the keyset lacks the step's key. *)
val rotate : Context.t -> Keys.keyset -> ciphertext -> int -> ciphertext

(** [rotate_hoisted ctx ks ct steps] rotates [ct] by every step of the
    list, decomposing [ct] once (Halevi–Shoup hoisting) and applying
    each step's Galois key to the shared decomposition. Bit-exact with
    mapping {!rotate} over [steps] — residue for residue — but the
    per-rotation cost drops to an inner product once the shared
    decomposition is paid for. Raises {!Missing_galois_key} before any
    work if a step's key is absent, and EVA-E607 if a step's key is
    shallower than [ct]'s level. *)
val rotate_hoisted : Context.t -> Keys.keyset -> ciphertext -> int list -> ciphertext list

