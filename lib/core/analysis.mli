(** Forward/backward data-flow analyses over EVA programs.

    These implement the graph traversal framework of the paper (Section
    6.1): a forward pass visits each node after all its parents, a
    backward pass after all its children; per-node state lives in tables
    keyed by node id. *)

exception Analysis_error of string

(** [types p] infers Cipher/Vector/Scalar for every node. A node is
    Cipher iff any parameter is Cipher (or it is a Cipher input). *)
val types : Ir.program -> (int, Ir.value_type) Hashtbl.t

(** [scales p] computes the log2 scale of every node, mirroring CKKS
    semantics: MULTIPLY adds scales, RESCALE subtracts its operand, and a
    plaintext operand of ADD/SUB adopts the cipher operand's scale (the
    executor encodes it on demand at that scale). *)
val scales : Ir.program -> (int, int) Hashtbl.t

(** One step of the scale transfer function, shared with passes that keep
    their own incremental scale state. *)
val scale_formula : is_cipher:(Ir.node -> bool) -> get:(Ir.node -> int) -> Ir.node -> int

(** A rescale chain entry: [Some k] for RESCALE by 2^k, [None] for
    MODSWITCH (the paper's infinity). *)
type chain = int option list

(** [chains p] computes the conforming rescale chain of every Cipher node.
    Raises {!Analysis_error} when some node's chains do not conform, or
    when ADD/SUB/MULTIPLY cipher operands have unequal chains (Constraint
    1 of the paper). *)
val chains : Ir.program -> (int, chain) Hashtbl.t

(** Level = conforming chain length; derived from {!chains}. *)
val levels : Ir.program -> (int, int) Hashtbl.t

(** [rlevels p] is the conforming chain length in the transpose graph:
    how many RESCALE/MODSWITCH nodes lie below each node on every path to
    an output. Raises {!Analysis_error} on non-conforming transpose
    chains. Used by the eager modswitch pass. *)
val rlevels : Ir.program -> (int, int) Hashtbl.t

(** Ciphertext polynomial counts per node (fresh = 2, MULTIPLY of ciphers
    = parms' sum - 1, RELINEARIZE = 2). Plain nodes map to 0. *)
val num_polys : Ir.program -> (int, int) Hashtbl.t

(** Rotation steps used on Cipher values (left-normalized, deduplicated,
    nonzero). Plaintext rotations need no keys and are excluded. *)
val rotation_steps : Ir.program -> int list

(** [key_levels p ~chains] ([chains] is [chains p]) is the least
    conforming chain length at which [p] switches keys on a Cipher
    value: for each of {!rotation_steps}, in its order, and over its
    RELINEARIZE nodes ([None] when it has none). A key used at chain
    length [l] must serve ciphertexts of (chain elements - l)
    elements. *)
val key_levels : Ir.program -> chains:(int, chain) Hashtbl.t -> (int * int) list * int option

(** Multiplicative depth of the program (maximum number of MULTIPLY nodes
    with at least one Cipher operand on any root-to-output path). *)
val multiplicative_depth : Ir.program -> int
