(** What remains of the deleted kernel pool. FHE kernels run as plain row
    loops; graph workers ([Executor.run_graph ~workers]), the serve
    pipeline and encrypt workers are the one level of parallelism. The
    evabench harness still stamps [workers ()] into its records and its
    busy-domain guard, so this stub keeps that call building until the
    harness drops it. [workers ()] is always [0]: no kernel lanes. *)
val workers : unit -> int
