(** Analytic cost model for RNS-CKKS instructions.

    Every homomorphic instruction's running time is dominated by
    per-prime vector work ([m * N]) and NTTs ([m * N * log2 N]); key
    switching (relinearization, rotation) additionally pays about one
    NTT per (digit, target-prime) pair ([e * (m + s) * N * log2 N] for
    [e] digits). The model
    assigns each EVA instruction a cost in those terms with coefficients
    calibrated against the real {!Eva_core.Executor} on this machine, so
    DAG makespans can be extrapolated to parameter sizes that are too
    slow to execute in the simulator.

    Levels (the [m] per node) come from the compiled program's rescale
    chains; the cost of a node therefore reflects the modulus chain the
    compiler selected — the mechanism by which EVA's smaller [r] and [N]
    show up as lower latency (paper Tables 5 and 6). *)

type coefficients = {
  c_linear : float;  (** seconds per (prime x coefficient) for add-like ops *)
  c_mul : float;  (** per (prime x coefficient) for pointwise products *)
  c_ntt : float;  (** per (prime x coefficient x log2 N) butterfly *)
  c_encode : float;  (** per coefficient for embedding + encode *)
}

(** Coefficients measured on a representative x86-64 core; used when
    runtime calibration is skipped. *)
val default_coefficients : coefficients

(** [calibrate ~log_n ()] times the real scheme primitives and fits the
    four coefficients. *)
val calibrate : ?log_n:int -> unit -> coefficients

(** [primes_of_level chain level]: machine primes of the first [level]
    elements (clamped to [\[1, length chain\]]) of a data chain given as
    element bit sizes, split by {!Eva_ckks.Context.element_prime_count};
    equals [Context.prime_count_for_level] on the context built from
    [chain]. [program_costs] prices each node's level with it. *)
val primes_of_level : int list -> int -> int

(** [program_costs coeffs compiled] precomputes a per-node cost table for
    a compiled program at its selected parameters (or [log_n] override).
    With [hoist] (the default, matching the executors), non-leader
    members of each {!Eva_core.Optimize.rotation_groups} group are
    priced at the apply suffix only. Per-node ciphertext sizes come from
    {!Eva_core.Analysis.num_polys}, so size-3 values kept live by lazy
    relinearization are priced truthfully (and {!Makespan} schedules
    inherit the same prices). *)
val program_costs :
  ?log_n:int -> ?hoist:bool -> coefficients -> Eva_core.Compile.compiled -> (int, float) Hashtbl.t
