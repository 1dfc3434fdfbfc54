(** Deterministic fault injection for the executors.

    The parallel executor's failure semantics (worker death, transient
    node failures, timeouts, corrupted intermediates) are impossible to
    exercise from the outside — real domain crashes are not schedulable
    from a test. This module is the seam: a fault plan decides, per node
    and per attempt, whether the evaluation proceeds, the worker dies,
    the attempt fails transiently, the node is delayed or times out, or
    the produced ciphertext is tampered with. The executor consults the
    plan at every node through {!interpose} ({!Parallel.execute_on}
    plugs it in); with no plan supplied the hook is absent and costs nothing.

    Under any plan the contract is: the executor completes bit-exact
    after retries, or raises a structured [Eva_diag.Diag.Error] — it
    never deadlocks, and buffer release (the peak-live-value bound)
    holds on every surviving path. *)

type kind =
  | Wrong_level  (** tamper the ciphertext's declared chain level *)
  | Wrong_scale  (** tamper the ciphertext's tracked scale *)

type action =
  | Proceed  (** evaluate normally *)
  | Die
      (** the worker evaluating this node dies mid-node: the node moves to
          a surviving worker, EVA-E504 when none is left (always, at one
          worker) *)
  | Fail  (** one transient evaluation failure (retryable) *)
  | Delay of float  (** sleep this many seconds, then evaluate normally *)
  | Timeout of float  (** sleep, then count the attempt as timed out (retryable) *)
  | Corrupt of kind  (** evaluate, then tamper the result *)

(** Everything the plan injected, for assertions. [retries] counts
    re-executions granted after [Fail]/[Timeout]. *)
type counters = {
  mutable deaths : int;
  mutable failures : int;
  mutable delays : int;
  mutable timeouts : int;
  mutable corruptions : int;
  mutable retries : int;
}

type t

(** [plan actions] is a scripted plan: for node id [i], the [j]-th
    attempt performs the [j]-th action of its list ([Proceed] once the
    list is exhausted, so a single [Fail] means "fail once, then
    succeed"). [max_retries] (default 3) bounds re-execution per node.
    [backoff] paces granted retries (default: decorrelated jitter,
    0.2ms base / 20ms cap, seed 0 — see {!Backoff}); retries are never
    back to back. *)
val plan : ?max_retries:int -> ?backoff:Backoff.t -> (int * action list) list -> t

(** A seeded random plan: each attempt independently draws [Die], [Fail]
    or [Corrupt Wrong_scale] with the given probabilities (remaining
    mass proceeds). Deterministic given the seed and the sequence of
    draws. *)
val random :
  ?max_retries:int -> ?backoff:Backoff.t -> seed:int -> death_p:float -> fail_p:float ->
  corrupt_p:float -> unit -> t

(** A plan that injects nothing — for measuring hook overhead. *)
val none : unit -> t

val counters : t -> counters

(** Transient-failure exception raised inside an injected [Fail]
    attempt (internal to the executors' retry loops; it never escapes —
    exhaustion surfaces as EVA-E506). *)
exception Injected of int

(** The fault plan as an executor hook:
    [Executor.run_graph ~interpose:(Fault.interpose plan)] (what
    {!Parallel.execute_on} passes). One policy at every worker count:
    [Fail] and [Timeout] retry in place, on the worker that drew them,
    up to the per-node budget (then EVA-E506/E505), each retry paced by
    the plan's decorrelated-jitter backoff. [Die] is worker death: it
    raises [Executor.Worker_died], so the executor requeues the claimed
    node (or hoist group) onto a surviving worker — and with one worker
    there is none, so the run ends in EVA-E504. Hoist-group members are
    interposed one at a time against the group value computed once, so
    each member's retry budget covers only its own hazard. *)
val interpose : t -> Eva_core.Ir.node -> (unit -> Eva_core.Executor.value) -> Eva_core.Executor.value
