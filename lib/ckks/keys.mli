(** Key generation and key switching.

    Key switching follows SEAL's RNS design: the polynomial to switch is
    decomposed into one digit per modulus element of the current chain;
    each digit multiplies a key encrypting [P * W_e * s'] under [s],
    where [P] is the special element's modulus and [W_e] the CRT
    interpolation basis element; the accumulated pair is finally divided
    by [P] in the NTT domain ({!Eva_poly.Rns_poly.rescale_many}).

    Each switching key has a {e depth} [d]: it serves ciphertexts of up
    to [d] chain elements. It holds one digit per element below [d],
    each over the first [d] elements' primes plus the special primes,
    which are exactly the rows a switch at level [d] reads; a switch at
    a lower level reads a row-wise restriction of them. By default every
    key has the full chain's depth. A compiler that knows the deepest
    level at which a program uses each key ([Params.key_depths]) cuts
    each key to it, and a switch above a key's depth is the structured
    error EVA-E607.

    The secret key is deliberately a separate value from the evaluation
    {!keyset} (public, relinearization and Galois keys): the keyset is
    what a client ships to an evaluating server, the secret never leaves
    the client (see {!Wire}). *)

type secret
type public_key
type switch_key

type keyset = {
  public : public_key;
  relin : switch_key;
  galois : (int, switch_key) Hashtbl.t;
}

(** The depth each switching key is generated at: [relin_depth] for the
    relinearization key (0 when nothing relinearizes), and
    [(element, depth)] pairs for Galois keys. An element listed more
    than once gets the largest of its depths; an element not listed gets
    the full chain. Every depth lies in [0, chain length]. *)
type depths = { relin_depth : int; galois_depths : (int * int) list }

(** [generate ?depths ctx rng ~galois_elts] makes a fresh secret and its
    evaluation keys, with Galois keys for each distinct requested
    element, each key at its depth in [depths] (default: every key at
    the full chain). After drawing the secret it splits one stream from
    [rng] per RLWE sample, in a fixed order (the public key, the relin
    key's digits, then each Galois key's digits in [galois_elts] order),
    including the digits a key's depth drops, and generates the kept
    samples on [Domain.recommended_domain_count ()] domains
    ({!Fanout.map}). A kept digit draws, then discards, the uniform
    words of the rows it drops, and transforms no error row it drops.
    So the keys, and the state [rng] is left in, depend only on [rng]'s
    state on entry (not on the domain count or on which domain runs
    which digit), and every row of a cut key equals the same row of the
    full-depth key. Raises [Invalid_argument] on a depth outside
    [0, chain length]. *)
val generate : ?depths:depths -> Context.t -> Random.State.t -> galois_elts:int list -> secret * keyset

val find_galois : keyset -> int -> switch_key option

(** Secret key restricted to the first [level] elements, NTT form. *)
val secret_at_level : Context.t -> secret -> level:int -> Eva_poly.Rns_poly.t

(** Public key components (over the full data chain, NTT form). *)
val public_parts : public_key -> Eva_poly.Rns_poly.t * Eva_poly.Rns_poly.t

(** {2 Hoisted key switching (Halevi–Shoup)}

    A key switch is a shared expensive prefix — the RNS digit
    decomposition of the input, spread over the extended chain in NTT
    form — followed by a cheap per-key suffix (pointwise inner products
    against the key, then the division by [P]).
    {!decompose} computes the prefix once; {!apply_decomposed} runs the
    suffix for one key, optionally permuting the cached digits by a
    Galois element first. Digits are *centered* (symmetric range, odd in
    the input), so the NTT-domain permutation of the cached digits is
    bit-identical to decomposing the permuted polynomial — which is why
    {!Eval.rotate_hoisted} agrees residue-for-residue with sequential
    rotation. *)

type decomposed

(** [decompose ctx ~level c] digit-decomposes [c] over the key-switch
    target chain (level tables plus special), NTT form. [c] must be in
    NTT form (raises [Invalid_argument] otherwise) and is not modified:
    its rows are inverse-transformed one element at a time into
    scratch, and each digit's rows on its own element's primes are
    copies of [c]'s, so only the other target rows pay a forward
    transform. The result owns per-apply scratch, so it must not be
    shared across threads. *)
val decompose : Context.t -> level:int -> Eva_poly.Rns_poly.t -> decomposed

(** [check_depth key ~level] raises [Eva_diag.Diag.Error] (EVA-E607,
    Crypto layer) when [key]'s depth is below [level]. {!switch} and
    {!apply_decomposed} call it before any work; callers that decompose
    once for many keys ({!Eval.rotate_hoisted}) call it for every key
    before decomposing. *)
val check_depth : switch_key -> level:int -> unit

(** [apply_decomposed ?galois ctx key d] finishes the key switch for one
    key: [(d0, d1)] over the first [level] elements with
    [d0 + d1*s ~ w*s'] where [w] is the decomposed polynomial ([galois]
    permutes the cached digits by that element first, so [w] is then the
    automorphism image of the decomposed input) and [s'] is the key's
    source secret. Allocation-light: it allocates the two accumulators
    over the target chain and divides each in place
    ([Rns_poly.rescale_many ~in_place:true]), so each result's rows are
    its accumulator's data rows and the special rows were the
    division's scratch; the permuted-digit rows are scratch kept in
    [d]. *)
val apply_decomposed :
  ?galois:int -> Context.t -> switch_key -> decomposed -> Eva_poly.Rns_poly.t * Eva_poly.Rns_poly.t

(** [switch ctx key ~level c] returns [(d0, d1)] over the first [level]
    elements with [d0 + d1*s ~ c*s'] where [s'] is the key's source
    secret. [c] must be in NTT form and is not modified. Exactly
    [apply_decomposed ctx key (decompose ctx ~level c)]. *)
val switch : Context.t -> switch_key -> level:int -> Eva_poly.Rns_poly.t -> Eva_poly.Rns_poly.t * Eva_poly.Rns_poly.t

(** What a keyset's switching keys (relinearization and Galois) hold, in
    residue words: [held_words] as generated, [full_words] had every key
    spanned the full chain. *)
type footprint = { switch_keys : int; held_words : int; full_words : int }

val footprint : Context.t -> keyset -> footprint

(** {2 Raw access for the wire format} *)

(** Chain elements the key serves: its digit count. *)
val switch_key_depth : switch_key -> int

(** Per-digit (b, a) rows, NTT form: [depth] digits, each over the
    first [depth] elements' primes then the special primes. Shared, not
    copied. *)
val switch_key_rows :
  switch_key -> Eva_rns.Rowvec.t array array * Eva_rns.Rowvec.t array array

(** The inverse of {!switch_key_rows}; the depth is the digit count. The
    caller checks the row counts against the context ({!Wire} does). *)
val switch_key_of_rows :
  kb:Eva_rns.Rowvec.t array array -> ka:Eva_rns.Rowvec.t array array -> switch_key

val public_of_parts : b:Eva_poly.Rns_poly.t -> a:Eva_poly.Rns_poly.t -> public_key
