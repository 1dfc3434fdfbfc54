(** Execution of compiled EVA programs on the RNS-CKKS scheme.

    The executor builds the encryption context from the compiler-selected
    parameters, generates keys (including one Galois key per selected
    rotation step), encrypts the Cipher inputs, evaluates the graph, and
    decrypts the outputs. Plaintext operands are encoded on demand: at
    their declared power-of-two scale for MULTIPLY, and at the exact
    runtime scale of the cipher operand for ADD/SUB (as SEAL programs do),
    so scale bookkeeping never drifts.

    Ciphertext buffers are released as soon as their last consumer has
    run, reproducing the memory-reuse behaviour of the paper's executor
    (Section 6.1). Per-node wall-clock timings are recorded for the
    scheduling model. *)

(** Ciphertext-kernel invocation totals for one graph evaluation.  Only
    ops that produced a ciphertext count — the same opcode passing a
    plaintext through is free.  Relinearize/rotate are the key-switch
    kernels whose count the lazy-relin placement minimizes. *)
type op_counts = {
  multiplies : int;
  relinearizations : int;
  rescales : int;
  rotations : int;
}

type timings = {
  context_seconds : float;  (** context + key generation *)
  encrypt_seconds : float;
  execute_seconds : float;
  decrypt_seconds : float;
  per_node : (int * Ir.op * float) list;  (** node id, opcode, seconds *)
  pt_cache_hits : int;
      (** plaintext-encoding cache hits (content-keyed) since {!keygen},
          over every engine bound from that keygen, not this run alone *)
  pt_cache_misses : int;  (** misses, counted like [pt_cache_hits] *)
  op_counts : op_counts;
}

type result = { outputs : (string * float array) list; timings : timings }

(** A runtime value: an encrypted vector or a plaintext vector of
    [vec_size] floats (scalars are broadcast at binding time). *)
type value = Ct of Eva_ckks.Eval.ciphertext | Plain of float array

(** A prepared engine: context, keys (one Galois key per selected
    rotation), encrypted inputs, and the content-keyed plaintext-encode
    cache that {!keygen} creates and every engine bound from it shares. *)
type engine

(** [keygen c] builds the context and keys for [c] and binds no input:
    bind with {!rebind} or {!rebind_batched} before {!run_graph}, which
    raises EVA-E501 on an engine with unbound inputs. Keys are a function
    of [seed] (default 1), so [keygen] and {!prepare} with the same
    arguments hold identical keys. See {!execute} for [seed],
    [ignore_security], [log_n]; [extra_rotations] as in {!prepare}. *)
val keygen :
  ?seed:int -> ?ignore_security:bool -> ?log_n:int -> ?extra_rotations:int list ->
  Compile.compiled -> engine

(** [prepare c bindings] is {!keygen} followed by encrypting the
    Cipher inputs with the RNG keygen left off. Input encode/encrypt
    runs on [encrypt_workers] domains (default: the recommended domain
    count); each input draws a private RNG from the seed sequentially,
    so ciphertexts do not depend on the worker count. See {!execute}
    for [seed], [ignore_security], [log_n]. Unbound input names raise
    one [Eva_diag.Diag.Error] (EVA-E501) listing {e every} missing
    binding. When [c] carries a vectorization layout ([c.packing]),
    per-element bindings are first packed into the layout's block-major
    inputs ({!Vectorize.pack_bindings}) — callers written against the
    source program's scalar names run unchanged. The bindings are one member:
    on a batched [c] they fill lane 0 and the other lanes are zero
    ({!rebind_batched}). *)
val prepare :
  ?seed:int -> ?ignore_security:bool -> ?log_n:int -> ?encrypt_workers:int ->
  ?extra_rotations:int list -> Compile.compiled -> (string * Reference.binding) list -> engine

(** [rebind e c bindings] re-aims the engine at [c] (its vector width
    and scale table; EVA-E508 if the context's slots cannot hold it) and
    encrypts fresh inputs, reusing the engine's context and keys
    (amortizes key generation across many runs). With [seed] the
    encryption randomness is drawn from a fresh [Random.State] seeded
    with it instead of the engine's shared RNG, so the derived engine is
    a pure function of (seed, bindings) — serving loops use this to make
    concurrent request preparation deterministic. The derived engine
    shares [e]'s plaintext-encode cache, so constants encoded by earlier
    runs stay warm. Applies the same vectorization binding shim as
    {!prepare}. *)
val rebind :
  ?seed:int -> ?encrypt_workers:int -> engine -> Compile.compiled ->
  (string * Reference.binding) list -> engine

(** {2 Slot batching}

    A batched program ({!Compile.batch}) computes [lanes] independent
    requests in one ciphertext under the interleaved layout: request [b]
    owns the strided slot set [{i*lanes + b}]. [prepare]'s
    [?extra_rotations] (slot-space left steps, e.g.
    {!Compile.batch_rotations}) makes one keyset cover every batched
    variant a server will run. *)

(** [interleave lanes] packs per-lane vectors (equal lengths) into one
    interleaved full-width vector; {!extract_lane} inverts it for one
    lane. *)
val interleave : float array array -> float array

val extract_lane : lanes:int -> lane:int -> float array -> float array

(** [rebind_batched ~seeds e c members] is {!rebind} for a batched
    program [c]: member [b]'s bindings fill lane [b] (vectors tiled or
    zero-padded to the lane width per {!Reference.tile}, scalars
    broadcast), lanes beyond [Array.length members] are zeroed, and each
    input encodes as one plaintext of the interleaved lanes
    ({!interleave}). [seeds] gives one seed per member (the batch RNG is
    [Random.State.make seeds]); a 1-lane batch is bit-identical to
    [rebind ~seed]. Re-aims the engine at [c] and shares its cache like
    {!rebind}. Each member's bindings pass through the vectorization
    shim ({!prepare}) independently; each member's missing inputs raise
    EVA-E501 before any encryption work. *)
val rebind_batched :
  ?encrypt_workers:int -> seeds:int array -> engine -> Compile.compiled ->
  (string * Reference.binding) list array -> engine

(** Slot-space rotation steps of [c] lacking Galois keys in the engine's
    keyset (non-empty means {!prepare} needs [?extra_rotations] to run
    this variant). *)
val missing_rotations : engine -> Compile.compiled -> int list

(** Everything one graph evaluation produced: raw (still encrypted)
    outputs, wall time, optional per-node timings, and the high-water
    mark of simultaneously live values (the memory-reuse measure of
    Section 6.1 — on release-correct executors this tracks DAG width,
    not node count). *)
type run_stats = {
  raw_outputs : (string * value) list;
  elapsed_seconds : float;
  node_seconds : (int * Ir.op * float) list;  (** empty unless recorded *)
  peak_live_values : int;
  op_counts : op_counts;
}

(** Raised by an [interpose] hook to report that the worker evaluating
    the node died ({!run_graph}). *)
exception Worker_died

(** [run_graph e c] evaluates the graph on a prepared engine (an input
    with no bound value raises EVA-E501 before any work): the one
    node scheduler behind {!execute}, [Parallel.execute_on] and the
    serving tier. [workers] (default 1) domains claim ready
    nodes from a shared list, highest [priority] first (default:
    topological position, i.e. program order); one worker runs on the
    calling domain and spawns nothing. Outputs are bit-identical at
    every worker count and priority — only the schedule differs.

    [interpose n eval] (when given) is called instead of [eval] for
    every non-input node and must return the node's value — the seam
    fault-injection harnesses use to kill, delay, fail or corrupt
    individual node evaluations without the executor knowing. Raising
    {!Worker_died} from it is a worker death: the claimed node (or hoist
    group) is requeued onto a surviving worker and the dying worker
    exits; with none left the run raises EVA-E504. Any other failure is
    anchored to its node (classified errors keep their code, foreign
    exceptions become EVA-E507) and ends the run. [cancel] (default
    {!Cancel.never}) is checked before every node on the same seam: a
    cancelled token stops the run within one node as EVA-E505,
    releasing the request's live intermediates. [hoist] (default true)
    evaluates {!Optimize.rotation_groups} as units on one worker —
    decompose once, rotate many — bit-identical to ungrouped
    evaluation; disable it to measure the naive path. *)
val run_graph :
  ?record_per_node:bool -> ?interpose:(Ir.node -> (unit -> value) -> value) ->
  ?cancel:Cancel.token -> ?hoist:bool -> ?workers:int -> ?priority:(Ir.node -> float) -> engine ->
  Compile.compiled -> run_stats

(** [decode e s] decrypts (or passes through) the raw outputs of run
    [s] and assembles the run's {!timings}: the engine's set-up times,
    [s]'s evaluation time, per-node times and op counts, the decrypt
    time and the engine's plaintext-cache counters. Outputs are raw
    full-width slot vectors — a vectorized or batched program's packed
    outputs are NOT scattered here; apply {!Compile.unpack_outputs} (and
    {!extract_lane}) as needed. *)
val decode : engine -> run_stats -> (string * float array) list * timings

val engine_context_seconds : engine -> float
val engine_encrypt_seconds : engine -> float

(** The ring degree the engine's context was built at (the serving
    tier's admission-control cost estimates price the program at this
    size, which may be a [log_n]-overridden test size). *)
val engine_degree : engine -> int

(** Plaintext-encoding cache counters (hits, misses) since {!keygen},
    summed over every engine bound from it. *)
val pt_cache_counters : engine -> int * int

(** Capacity bound of the plaintext-encode cache, in entries. Beyond it,
    second-chance (CLOCK) eviction drops the oldest entry not hit since
    the hand last swept past — hot entries survive a cold churn. *)
val pt_cache_capacity : int

(** [encode_cached e v ~level ~scale] encodes through the content-keyed
    cache (the path every plaintext operand takes during evaluation).
    Exposed for cache-behaviour tests; thread-safe (lookup, encode and
    insert run under one lock). *)
val encode_cached : engine -> float array -> level:int -> scale:float -> Eva_ckks.Eval.plaintext

(** Decrypt (or pass through) an output value. *)
val read_output : engine -> value -> float array

(** [execute c bindings] runs a compiled program end to end. [seed]
    controls all randomness (key generation and encryption). [log_n]
    overrides the selected degree — benchmarks use it to execute
    compiled programs at reduced (insecure) sizes; the modulus chain is
    kept as selected. Bindings go through the vectorization shim
    ({!prepare}) and decrypted outputs are scattered back to the source
    program's names via {!Compile.unpack_outputs}. *)
val execute :
  ?seed:int -> ?ignore_security:bool -> ?log_n:int -> ?encrypt_workers:int -> Compile.compiled ->
  (string * Reference.binding) list -> result

(** Outputs of {!execute} paired with the reference semantics of the
    same source program, for accuracy measurements. *)
val max_abs_error : (string * float array) list -> (string * float array) list -> float
