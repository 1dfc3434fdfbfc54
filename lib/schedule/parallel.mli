(** Multicore execution of compiled EVA programs.

    The paper's executor schedules ready FHE instructions dynamically
    onto threads (built on the Galois runtime). Here that scheduler is
    {!Eva_core.Executor.run_graph} on OCaml 5 domains; this module runs
    it with a ready list ordered by bottom level (critical path first —
    the same priority {!Makespan.simulate} models, so measured and
    modeled schedules agree) and plugs a {!Fault} plan into its
    [interpose] seam. Ciphertext buffers are released as soon as their
    last consumer finishes, so peak live values track DAG width rather
    than program size; the high-water mark is reported. *)

type result = {
  outputs : (string * float array) list;
  timings : Eva_core.Executor.timings;  (** same record the sequential path returns *)
  peak_live_values : int;  (** high-water mark of simultaneously stored values *)
}

(** [priority c] is the ready-list order of both executors, this one
    and {!Serve}'s: each node's bottom level under [cost] (critical path
    first, the order {!Makespan.simulate} models). [cost] defaults to
    the analytic {!Cost} model at [log_n] (default: the compiled
    parameters) and [hoist] (default true). Also returns the summed node
    costs: the program's modeled sequential seconds. *)
val priority :
  ?cost:(Eva_core.Ir.node -> float) ->
  ?log_n:int ->
  ?hoist:bool ->
  Eva_core.Compile.compiled ->
  (Eva_core.Ir.node -> float) * float

(** [execute_on ~workers engine c] evaluates an already-prepared engine
    (context, keys and encrypted inputs reused across calls) on
    [workers] domains, the caller's included. [cost] overrides the
    ready-priority cost model (default: the analytic {!Cost} model at
    the compiled parameters); outputs are bit-identical at every worker
    count and cost.

    [fault] injects deterministic faults through {!Fault.interpose}:
    transient failures and timeouts retry in place within the plan's
    budget (EVA-E506/E505 beyond it); a worker told to die requeues its
    node and exits permanently, and all workers dead with work
    outstanding is EVA-E504. Node evaluation errors are anchored to
    their node. With [fault] absent, no hook runs.

    [cancel] (default {!Eva_core.Cancel.never}) is checked before every
    node, so a cancelled run stops within one node with the token's
    structured EVA-E505, freeing the request's live ciphertexts with
    the call frame instead of running the DAG to completion.

    [hoist] (default true) executes each RotateMany hoist group
    ({!Eva_core.Optimize.rotation_groups}) as one unit on one worker:
    only the group leader is claimable, and completing it publishes
    every member's value under its own node id — so worker death
    mid-group requeues the leader and the group re-executes bit-exactly.
    Each member still passes through the fault plan on its own.

    Outputs are raw full-width slot vectors, as
    {!Eva_core.Executor.decode} returns them; callers unpack vectorized
    layouts via {!Eva_core.Compile.unpack_outputs} (and batched lanes
    via {!Eva_core.Executor.extract_lane}). [timings.per_node] is sorted
    by node id. *)
val execute_on :
  ?cost:(Eva_core.Ir.node -> float) ->
  ?fault:Fault.t ->
  ?cancel:Eva_core.Cancel.token ->
  ?hoist:bool ->
  workers:int ->
  Eva_core.Executor.engine ->
  Eva_core.Compile.compiled ->
  result
