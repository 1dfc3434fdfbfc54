(** Polynomials in Z_q[X]/(X^N + 1) in double-CRT (RNS x NTT) form.

    The coefficient modulus q is a product of distinct NTT-friendly primes
    below 2^30 (so the division-free Shoup/Barrett kernels' beta = 2^31
    quotient estimates fit native 63-bit ints). A polynomial stores one
    residue row per prime — views into a single contiguous flat buffer
    ({!Eva_rns.Rowvec}) for every polynomial this module allocates — and
    a flag saying whether the rows are in coefficient or evaluation (NTT)
    form. Binary operations require both operands to share the same prime
    chain (compared structurally), mirroring the "same coefficient
    modulus" constraint of RNS-CKKS that the EVA compiler must satisfy.

    Every kernel is a plain single-threaded loop over the residue rows;
    parallelism comes from the graph executor running independent
    instructions on separate domains, never from inside one kernel. *)

type t

exception Modulus_mismatch of string

(** [zero ~tables] in evaluation form. *)
val zero : tables:Eva_rns.Ntt.table array -> t

(** [of_float_coeffs ~tables c] rounds each coefficient to the nearest
    integer (half away from zero) and reduces it exactly into every
    prime's residue field (coefficient form). Coefficients of any finite
    magnitude are reduced exactly; the caller keeps them below half the
    modulus. Raises [Invalid_argument] on a non-finite coefficient. *)
val of_float_coeffs : tables:Eva_rns.Ntt.table array -> float array -> t

(** [of_ntt_rows ~tables rows] wraps residue rows already in evaluation
    form; the rows are shared, not copied (used for key-switching keys whose
    rows live outside any one prime chain). *)
val of_ntt_rows : tables:Eva_rns.Ntt.table array -> Eva_rns.Rowvec.t array -> t

(** Raw residue rows (shared). *)
val rows : t -> Eva_rns.Rowvec.t array

val degree : t -> int
val num_primes : t -> int
val primes : t -> int array
val tables : t -> Eva_rns.Ntt.table array
val is_ntt : t -> bool

(** Deep copy into fresh contiguous storage (the copy owns its buffer
    even when the source rows were foreign views). *)
val copy : t -> t

val to_ntt : t -> unit
val to_coeff : t -> unit

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t

(** Pointwise product; both operands must be in NTT form. *)
val mul : t -> t -> t

val add_inplace : t -> t -> unit

(** [mul_inplace a b] sets [a] to the pointwise product [a * b] (both
    NTT form). The caller must own [a]'s rows: in a dataflow executor a
    ciphertext value may be shared between consumers, so only buffers
    created locally (a fresh product, a key-switch output) are safe to
    overwrite. *)
val mul_inplace : t -> t -> unit

(** [mul_acc acc a b] adds [a * b] into [acc] (all NTT form). *)
val mul_acc : t -> t -> t -> unit

(** [mul_scalar_int t k] multiplies by an integer scalar (residue-wise). *)
val mul_scalar_int : t -> int -> t

(** Drop the last prime without scaling (MODSWITCH). Any form. *)
val drop_last : t -> t

(** [drop_many t k] drops the last [k] primes without scaling. *)
val drop_many : t -> int -> t

(** [rescale_last t] divides by the last prime with rounding and drops it
    (RESCALE). Returns the result in the form [t] was in. *)
val rescale_last : t -> t

(** [rescale_many t k] divides by the product of the last [k] primes
    with rounding, exactly as [k] successive {!rescale_last} calls do,
    and returns the result in the form [t] was in. An NTT-form [t] pays
    [k] inverse and [num_primes t - k] forward transforms: only the
    dropped rows leave the evaluation domain, and one correction row
    per kept prime enters it. [t] is not modified; the result's rows
    share one buffer with the [k] rows of scratch. With [~in_place:true]
    that buffer is [t]'s own rows: the result's rows are [t]'s kept
    rows, overwritten, and [t]'s dropped rows are left as scratch, so
    the caller must own [t] (as for {!mul_inplace}) and not use it
    afterwards. The result is bit-identical either way. *)
val rescale_many : ?in_place:bool -> t -> int -> t

(** [galois t g] applies the automorphism X -> X^g for odd [g], in the
    form [t] is in (in NTT form it is a slot permutation). *)
val galois : t -> int -> t

(** {2 Sampling}

    Each sampler draws 64-bit words from its stream
    ([Random.State.bits64]), row by row and coefficient by coefficient,
    so a sample is a function of the stream's state alone. Callers that
    fan sampling out over domains give each job its own stream, split
    from theirs in a fixed order before any job runs. *)

(** Uniform sample over the full modulus, evaluation form: per prime
    [p], two candidates per word, each masked to the bit length of
    [p - 1] and rejected at or above [p], so residues are exactly
    uniform. *)
val sample_uniform : Random.State.t -> tables:Eva_rns.Ntt.table array -> t

(** [sample_uniform_cut st ~tables ~drop:(lo, count)] is
    {!sample_uniform} without rows [lo .. lo + count - 1]. Those rows
    are drawn in their place in the row order and discarded, so every
    kept row equals the full sample's row from the same stream state,
    and the stream is left where the full sample leaves it. The kept
    rows are one fresh block, not views of a full one. *)
val sample_uniform_cut : Random.State.t -> tables:Eva_rns.Ntt.table array -> drop:int * int -> t

(** Ternary secret in {-1,0,1}^N, returned in evaluation form: 2-bit
    candidates, 31 per word, with 3 rejected, so the three values are
    equally likely. *)
val sample_ternary : Random.State.t -> tables:Eva_rns.Ntt.table array -> t

(** Centered-binomial error, returned in evaluation form: one word per
    coefficient, the popcount of its low 21 bits minus the popcount of
    the next 21 (21 coin pairs: variance 10.5, sigma ~ 3.24). *)
val sample_error : Random.State.t -> tables:Eva_rns.Ntt.table array -> t

(** Centered coefficients over the full modulus Q, in
    [[-(Q-3)/2, (Q+1)/2]], as floats; [t] may be in either form and is
    not modified. A coefficient below 2^61 in magnitude is the correctly
    rounded float of its exact value; above that, on a chain of [k]
    primes, it is within [(k-1) * 2^-53] relative error (2^-50 up to 8
    primes). *)
val to_float_coeffs : t -> float array
