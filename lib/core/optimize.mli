(** Semantics-preserving cleanup passes over input programs.

    These run before the FHE-specific transformations (they neither
    introduce nor require RESCALE/MODSWITCH/RELINEARIZE) and reduce the
    homomorphic work the executor performs:

    - {!cse} merges structurally identical nodes (same opcode, same
      parameters, same declared scale) — frontends routinely emit
      duplicate rotations of the same ciphertext;
    - constant folding evaluates pure plaintext subgraphs at compile
      time, so the executor never encodes or multiplies them slot by
      slot;
    - strength reduction rewrites trivial identities: multiplying or
      rotating by compile-time no-ops (x * 1 with scale 0, rotation by
      0), double negation, and x - x into a zero constant.

    [run] applies all of them to quiescence and prunes dead nodes. *)

(** Merge structurally equal nodes; returns true if anything changed. *)
val cse : Ir.program -> bool

(** All three passes, to quiescence. *)
val run : Ir.program -> unit

(** {2 RotateMany hoist grouping}

    Sets of ciphertext [Rotate_left]/[Rotate_right] nodes sharing one
    source (hence one chain level) are hoist groups: the executors
    evaluate each group as a unit — digit-decompose the source once
    ({!Keys.decompose}), then apply every member's Galois key to the
    shared decomposition — and the cost model prices it as
    [decompose + k * apply] instead of [k * switch]. This is a
    scheduling annotation computed on demand; the IR and the [.eva]
    serialization are unchanged, and each member's output keeps its own
    node id, so downstream consumers and fault-injection requeue paths
    are untouched. *)

type hoist_group = {
  hoist_source : Ir.node;
  hoist_rotations : Ir.node list;  (** >= 2 members, ascending id; head = leader *)
}

(** Hoist groups of a program (groups of at least two rotations).
    Plaintext rotations are never grouped. *)
val rotation_groups : Ir.program -> hoist_group list
