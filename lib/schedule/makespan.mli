(** Deterministic list-scheduler makespan model for program DAGs.

    The paper's executor (Section 6.1) schedules ready FHE instructions
    dynamically onto worker threads; CHET's runtime instead parallelizes
    inside each tensor kernel with a barrier between kernels. Both
    policies are modeled here so strong scaling (Figure 7) can be
    reproduced on a machine without 56 cores: given per-node costs, the
    model computes the completion time of a greedy schedule.

    Standard bounds hold and are checked by property tests:
    [max critical_path (work / workers) <= makespan <= work]. *)

(** [bottom_levels p ~cost] maps each node id to its bottom level: the
    node's cost plus the costliest path to an exit through its
    consumers. Scheduling ready nodes by descending bottom level is the
    critical-path heuristic both {!simulate} and
    {!Parallel.execute_on} use. *)
val bottom_levels :
  Eva_core.Ir.program -> cost:(Eva_core.Ir.node -> float) -> (int, float) Hashtbl.t

type stats = {
  makespan : float;  (** modeled seconds *)
  work : float;  (** sum of node costs *)
  critical_path : float;
  busy_fraction : float;  (** work / (makespan * workers) *)
}

(** [hoist_clusters groups] maps every member of each RotateMany hoist
    group (leader included) to the group's leader id — the [clusters]
    argument {!simulate} expects. *)
val hoist_clusters : Eva_core.Optimize.hoist_group list -> (int, int) Hashtbl.t

(** [simulate p ~cost ~workers] models the paper's dynamic whole-program
    scheduler. With [clusters] (member node id -> representative node
    id, identity for unlisted nodes) each cluster is scheduled as one
    atomic task on one worker whose cost is the sum of its members —
    how the executors run a RotateMany hoist group; pair it with
    {!Cost.program_costs}[ ~hoist:true] so members are priced
    [decompose + k * apply]. *)
val simulate :
  ?clusters:(int, int) Hashtbl.t ->
  Eva_core.Ir.program -> cost:(Eva_core.Ir.node -> float) -> workers:int -> stats

(** [simulate_bulk_synchronous p ~cost ~workers ~group] models a
    CHET-style runtime: nodes run grouped by kernel index [group n],
    groups in ascending order with a barrier between consecutive groups.
    Nodes mapping to the same group still run in parallel. *)
val simulate_bulk_synchronous :
  Eva_core.Ir.program -> cost:(Eva_core.Ir.node -> float) -> workers:int -> group:(Eva_core.Ir.node -> int) -> stats
