(** CKKS encryption context: modulus chain, NTT tables, encoding.

    The coefficient modulus is a chain of {e elements}, each an (up to)
    60-bit value realized as one or two NTT-friendly machine primes below
    2^31 (see DESIGN.md: products of residues must fit OCaml's native
    ints). Rescaling and modulus switching drop the {e last} element of the
    current chain, as in SEAL; the EVA compiler's bit-size vector is laid
    out accordingly. A separate special element backs key
    switching. *)

type t

(** [make ~n ~data_bits ~special_bits] builds a context for degree [n].
    [data_bits] lists element bit sizes in chain order ({e last = dropped
    first}); [special_bits] the key-switch element (usually [[60]]).
    Raises [Invalid_argument] if an element bit size is below the minimum
    NTT-friendly size for [n] or above 60, or if the total modulus violates
    the 128-bit security bound (set [ignore_security] to bypass, mirroring
    SEAL's [sec_level_type::none]). *)
val make : ?ignore_security:bool -> n:int -> data_bits:int list -> special_bits:int list -> unit -> t

val degree : t -> int
val slots : t -> int

(** Number of data elements in the full chain. *)
val chain_length : t -> int

(** Exact value of data element [i] (product of its machine primes). *)
val element_value : t -> int -> float

(** Total log2 of the full modulus (data + special), as validated against
    the security table. *)
val total_log_q : t -> float

(** NTT tables for the first [level] data elements. *)
val tables_for_level : t -> int -> Eva_rns.Ntt.table array

(** Machine-prime count for the first [level] data elements. *)
val prime_count_for_level : t -> int -> int

(** [element_prime_count bits]: how many machine primes realize one chain
    element of [bits] bits — one at 30 bits or fewer, two above. A pure
    function of the bit size (no tables are built); {!make} splits every
    element by it, and cost models that price a chain without building a
    context use it too. *)
val element_prime_count : int -> int

(** [(first_prime_index, prime_count)] of each data element; key
    switching decomposes ciphertexts with one digit per element. *)
val element_prime_ranges : t -> (int * int) array

(** Tables for key switching at [level]: level tables followed by the
    special tables. *)
val ks_tables : t -> int -> Eva_rns.Ntt.table array

(** All data tables followed by special tables (key material layout). *)
val full_tables : t -> Eva_rns.Ntt.table array

val num_special_primes : t -> int
val num_data_primes : t -> int

val embedding : t -> Embedding.t

(** Galois element (odd exponent mod 2N) rotating slot contents left by
    [steps] (negative = right). *)
val galois_elt_rotate : t -> int -> int

(** [encode t ~level ~scale values] tiles [values] (length dividing the
    slot count) across all slots as real slot values (imaginary parts
    zero) and encodes at exact scale [scale] into a
    polynomial over the first [level] elements, in NTT form. *)
val encode : t -> level:int -> scale:float -> float array -> Eva_poly.Rns_poly.t

(** [decode t ~scale poly] inverts {!encode} (any form; poly is copied). *)
val decode : t -> scale:float -> Eva_poly.Rns_poly.t -> float array
