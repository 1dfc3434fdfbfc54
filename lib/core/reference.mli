(** Reference semantics: the paper's dummy [id] encryption scheme.

    Every value is a plain vector of [vec_size] floats; encryption is the
    identity, so each opcode is its own homomorphic counterpart and
    RESCALE/MODSWITCH/RELINEARIZE are value-level no-ops. The CKKS
    executor must agree with this module up to approximation error — that
    property is the core correctness test of the whole system. *)

type binding = Vec of float array | Scal of float

exception Missing_input of string

(** [tile vec_size v] extends [v] to length [vec_size]: a length that
    divides [vec_size] repeats (Section 3 of the paper; length 1
    broadcasts); any other length zero-pads — the padding slots are
    defined to be 0.0 and are never returned on the wire. Empty vectors
    and lengths above [vec_size] raise a classified EVA-E502 (so a
    hostile request degrades to an error response, not a crash). *)
val tile : int -> float array -> float array

(** [eval_op vec_size op args] is the plaintext semantics of one
    non-input opcode on its operand values, in parameter order: the one
    per-op evaluator behind {!execute} and the executor's all-plaintext
    nodes (RESCALE, MODSWITCH, RELINEARIZE and OUTPUT pass their operand
    through). An arity the opcode does not take raises EVA-E502. *)
val eval_op : int -> Ir.op -> float array list -> float array

(** [execute p bindings] returns the output values by name, in program
    order. Vector bindings shorter than [vec_size] are extended per
    {!tile}. *)
val execute : Ir.program -> (string * binding) list -> (string * float array) list
