(** EVA's transformation passes: the graph rewrite rules of Figure 4.

    The production pipeline ({!transform} with the default policy) runs
    WATERLINE-RESCALE, EAGER-MODSWITCH, MATCH-SCALE, RELINEARIZE in that
    order. ALWAYS-RESCALE and LAZY-MODSWITCH are the naive alternatives
    the paper defines for exposition; they back the CHET-style baseline
    and the ablation benchmarks. *)

(** Maximum rescale divisor, log2 (Constraint 4). SEAL allows 60. *)
val default_s_f : int

(** The waterline s_w: maximum declared scale over all constants and
    inputs (Section 5.3). *)
val waterline : Ir.program -> int

(** Insert [RESCALE s_f] after each Cipher MULTIPLY whose result scale
    stays at or above the waterline after rescaling. [waterline]
    overrides the computed s_w (the paper's Figure 2(d) walkthrough
    assumes s_w = 2^30 with a 2^60 input present). *)
val waterline_rescale : ?s_f:int -> ?waterline:int -> Ir.program -> bool

(** Insert a RESCALE by the minimum operand scale after every Cipher
    MULTIPLY (the paper's naive ALWAYS-RESCALE). *)
val always_rescale : Ir.program -> bool

(** Insert MODSWITCH nodes immediately before each binary instruction
    whose cipher operands' levels differ (LAZY-MODSWITCH). *)
val lazy_modswitch : Ir.program -> bool

(** Insert shared MODSWITCH ladders at the earliest feasible edges so
    that all uses of every node sit at conforming transpose levels, and
    pad shallow roots (EAGER-MODSWITCH, backward pass). *)
val eager_modswitch : Ir.program -> bool

(** Equalize ADD/SUB cipher operand scales by multiplying the
    smaller-scale operand with a constant 1 at the difference scale
    (MATCH-SCALE); plaintext operands are re-encoded by the executor and
    need no rewrite. *)
val match_scale : Ir.program -> bool

(** Insert RELINEARIZE after every Cipher x Cipher MULTIPLY
    (Constraint 3) — the paper's eager placement. *)
val relinearize : Ir.program -> bool

(** Demand-driven relinearization (LAZY-RELINEARIZE): let size-3
    ciphertexts flow through ADD/SUB/NEGATE/RESCALE/MODSWITCH chains and
    place one RELINEARIZE where a 2-polynomial operand is actually
    demanded (MULTIPLY and ROTATE operands, OUTPUTs); once demanded, all
    uses of the value consume the relinearized form, so downstream
    consumers — a rotate-and-sum ladder's adds included — share it.
    Relins that sink to a shared accumulator merge, so a k-term product
    reduction pays one key switch instead of k.  Idempotent; never grows
    ciphertexts past size 3 on validated graphs. *)
val lazy_relinearize : Ir.program -> bool

(** [batch ~lanes p] is a fresh program computing [lanes] independent
    copies of [p] in one ciphertext under the interleaved layout (request
    [b] owns slots [{i * lanes + b}]): [vec_size] is multiplied by
    [lanes], every rotation step is multiplied by [lanes] (a lane-local
    rotation under the stride), and vector constants are stride-expanded.
    Scales, levels and the rescale chain are unchanged, so a transformed
    (conforming) program stays conforming. [lanes] must be a power of
    two; [lanes = 1] degenerates to {!Ir.copy}. *)
val batch : lanes:int -> Ir.program -> Ir.program

(** HECO-style auto-vectorization ({!Vectorize.run}): pack isomorphic
    scalar chains into lanes of one ciphertext and lower accumulation
    folds to log-depth rotate-and-sum trees. Returns the (possibly
    widened) program and the slot layout, or the input unchanged with
    [None] when no profitable group exists. Runs on input programs,
    before {!transform}. *)
val vectorize : Ir.program -> Ir.program * Vectorize.packing option

type policy =
  | Eva  (** waterline + eager: the paper's optimizing pipeline *)
  | Lazy_insertion
      (** waterline + lazy modswitch: the eager-vs-lazy ablation.
          (ALWAYS-RESCALE with per-multiply divisors is exposed above for
          the Figure 2 walkthrough, but cannot be made conforming by
          level-matching alone — the paper omits the multi-pass modswitch
          rule it would need, and so do we.) *)

(** Run the full transformation step of Algorithm 1 under [policy].
    Relinearization placement defaults to {!lazy_relinearize};
    [eager_relin] restores the paper's per-multiply placement
    ({!relinearize}) for A/B comparison. *)
val transform : ?s_f:int -> ?waterline:int -> ?policy:policy -> ?eager_relin:bool -> Ir.program -> unit
