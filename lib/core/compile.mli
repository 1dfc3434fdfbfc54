(** The compiler driver (Algorithm 1).

    Takes a frontend input program, transforms it (inserting RESCALE,
    MODSWITCH, RELINEARIZE and scale-matching nodes), validates every
    constraint, and selects encryption parameters and rotation steps.
    The input program is left untouched; the result holds a transformed
    copy. *)

type compiled = {
  program : Ir.program;  (** transformed and validated *)
  params : Params.t;
  policy : Passes.policy;
  s_f : int;
  lanes : int;
      (** slot-batching width: the program computes [lanes] independent
          requests in interleaved lanes; 1 = ordinary single-request
          compilation *)
  packing : Vectorize.packing option;
      (** slot layout produced by the auto-vectorization pass, when it
          fired: how per-element inputs were packed into lanes and
          which outputs must be scattered back out *)
}

(** [batch c ~lanes] widens a compiled program to [lanes] interleaved
    request lanes ({!Passes.batch}), re-validates it, and re-selects
    parameters (the rescale chain is unchanged; only the rotation-step
    set and minimum degree differ). [lanes] must be a power of two;
    [lanes = 1] is the identity. Widths compose: batching an already
    [k]-lane program by [lanes] yields [k * lanes] lanes. *)
val batch : compiled -> lanes:int -> compiled

(** Rotation steps the compiled program needs, as non-negative
    left-rotation slot offsets (deduplicated, sorted). *)
val slot_rotations : compiled -> int list

(** {!slot_rotations} paired with the deepest level, in chain elements,
    at which the program rotates by each ([Params.key_depths], the
    largest over signed steps that land on one slot offset). *)
val slot_rotation_depths : compiled -> (int * int) list

(** [batch_widths c ~max_batch ~slots] is the ascending list of
    power-of-two batch widths a server runs [c] at: every [lanes] up to
    [max_batch] whose [lanes * vec_size] (the compiled, possibly
    vectorization-widened width) fits in [slots]. A [max_batch] past the
    slot capacity batches as wide as fits rather than failing — the
    flag states intent, the context states physics. Starts at 1 unless
    [c] itself does not fit. *)
val batch_widths : compiled -> max_batch:int -> slots:int -> int list

(** [batch_rotations c ~max_lanes] is the union of {!slot_rotations}
    over the batched variants of [c] at every power-of-two width in
    [2 .. max_lanes] — the extra Galois steps one keyset needs to serve
    every batch width (pass to {!Executor.prepare}'s
    [?extra_rotations]). Batching at [lanes] scales every rotation step
    by [lanes], so this is {!slot_rotations} [c] scaled by each width;
    no variant is compiled. *)
val batch_rotations : compiled -> max_lanes:int -> int list

(** Raises [Eva_diag.Diag.Error] in the Validate layer (compiler bug or
    ill-formed input), {!Analysis.Analysis_error}, or
    {!Params.Selection_error}.
    [optimize] runs the semantics-preserving cleanup passes of
    {!Optimize} before the FHE-specific transformations (default off to
    keep compiled graphs predictable for inspection).
    [eager_relin] places a RELINEARIZE at every cipher-cipher multiply
    (the paper's rule) instead of the default lazy dominance-frontier
    placement.
    [vectorize] (default on) runs {!Passes.vectorize} first: scalar-
    shaped groups are packed into SIMD lanes and accumulation folds
    lowered to rotation trees; the resulting layout is validated and
    recorded in [packing]. Pass [~vectorize:false] to compile the
    naive graph unchanged.
    [batch] compiles for that many interleaved request lanes (see
    {!batch}; power of two, default 1). *)
val run :
  ?s_f:int ->
  ?waterline:int ->
  ?policy:Passes.policy ->
  ?eager_relin:bool ->
  ?optimize:bool ->
  ?vectorize:bool ->
  ?batch:int ->
  Ir.program ->
  compiled

(** Compilation time of [run], in seconds, alongside the result. *)
val run_timed :
  ?s_f:int ->
  ?waterline:int ->
  ?policy:Passes.policy ->
  ?eager_relin:bool ->
  ?optimize:bool ->
  ?vectorize:bool ->
  ?batch:int ->
  Ir.program ->
  compiled * float

(** [unpack_outputs c outputs] scatters a vectorized program's packed
    outputs back to the source program's names and trims the rest to
    the original width ({!Vectorize.unpack_outputs}); the identity when
    the pass did not fire. Every execution front end (executor,
    parallel scheduler, serve, batched lanes) applies this after
    decryption. *)
val unpack_outputs : compiled -> (string * float array) list -> (string * float array) list
