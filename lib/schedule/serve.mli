(** Compile-once / keygen-once serving daemon for encrypted inference.

    The deployment shape of the paper's Section 2.4 (and the SNIPPETS
    1000-query dot-product loop): the expensive state — compiled
    program, encryption context, keys, warm plaintext-encode cache — is
    built once, then many independent requests stream through it. A
    daemon couples a bounded admission queue to a pool of worker domains
    ({!config.pipeline}): while one request evaluates, the next is being
    parsed and encrypted, so the stream is pipelined at request level.

    Failure containment: every classifiable failure (malformed frame,
    unbound input, deadline miss, fault-injected worker death beyond its
    retry budget) becomes an error {e response} for that one request;
    the daemon and all other in-flight requests survive. Worker death
    that kills a request's graph execution (EVA-E504) is retried whole,
    up to {!config.max_request_retries} times, paced by decorrelated
    jitter and bounded by the daemon-wide {!config.retry_budget}.

    Degradation: every request carries an {!Eva_core.Cancel} token —
    its own deadline parented to the daemon's shutdown token — that the
    executors check per node, so a deadline blown mid-graph stops the
    request within one node (EVA-E505) instead of occupying a worker to
    completion. With {!config.shed} enabled, admission predicts each
    request's completion time from the {!Cost} model blended with
    measured service times and refuses requests that cannot make their
    deadline (EVA-E509) before they cost anything; no-deadline traffic
    is shed by queue-depth watermarks with hysteresis. Until the first
    request completes, that prediction prices the program with
    {!Cost.default_coefficients} (through {!Parallel.priority}), not
    with coefficients calibrated on this machine; ROADMAP item 12
    replaces those stale constants with measured ones. *)

(** Overload policy at admission. *)
type shed_mode =
  | No_shedding  (** classic caller-runs backpressure only *)
  | Watermarks of { high : int; low : int }
      (** Deadline-carrying requests are shed (EVA-E509) when their
          predicted completion time exceeds the deadline. Requests
          without a deadline are shed while the admission queue is in
          overload: shedding starts when depth reaches [high] and stops
          once it falls back to [low] (hysteresis, [low < high]). *)

type config = {
  queue_depth : int;  (** admission-queue bound; see {!submit} *)
  pipeline : int;
      (** worker domains evaluating requests concurrently. [0] is inline
          mode: no domains are spawned and requests are evaluated
          entirely by the thread calling {!submit} and {!drain} — the
          right choice on a single-core host, where a second domain only
          adds runtime overhead. *)
  graph_workers : int;  (** [Executor.run_graph] workers per execution *)
  default_deadline_ms : int option;  (** applied when a request carries none *)
  max_request_retries : int;  (** request-level retries after worker death *)
  retry_budget : int;
      (** daemon-wide pool of request-level retries: once spent, further
          worker deaths answer EVA-E504 immediately instead of
          re-executing — a persistent fault degrades into fast
          structured failures rather than a retry storm *)
  shed : shed_mode;  (** overload shedding at admission *)
  seed : int;  (** base of the per-request encryption seeds *)
  max_batch : int;
      (** slot-batch up to this many compatible requests into one
          ciphertext per execution ({!Eva_core.Compile.batch}): request
          [b] of a [B]-wide batch owns the interleaved slots
          [{i*B + b}], so one graph evaluation serves the whole batch
          for roughly the cost of one request. Power-of-two widths up to
          this bound are used; widths whose slots exceed the engine's
          ciphertext capacity are clamped away. [1] (the default)
          disables batching and is bit-identical to the unbatched
          daemon. The engine must hold Galois keys for every batched
          rotation — prepare it with
          [~extra_rotations:(Compile.batch_rotations compiled
          ~max_lanes:max_batch)]; {!start} fails fast otherwise. *)
  batch_linger_ms : float;
      (** how long a worker holding a partial batch waits for more
          queued work before executing anyway. The wait never extends
          past the point where a collected member's deadline (minus the
          blended service estimate) says the batch must start, so
          lingering trades at most this much p50 latency for packing and
          nothing when deadlines are tight. [0] never waits. *)
}

(** queue 8, pipeline 1, one worker everywhere, no deadline, 2 retries
    per request from a budget of 64, no shedding, seed 1, no batching
    (max_batch 1, linger 0). *)
val default_config : config

(** The encryption seed used for request [id] — a pure function, so a
    pipelined daemon, a sequential daemon and a bare
    [Executor.rebind ~seed] replay produce bit-identical ciphertexts. *)
val request_seed : config -> int -> int

(** Counters for one daemon lifetime, the serving analogue of
    [Executor.timings]. *)
type stats = {
  requests_served : int;  (** answered Ok *)
  requests_failed : int;  (** answered with an error (rejects, shed and
                              cancelled included) *)
  requests_shed : int;  (** refused EVA-E509 at admission *)
  requests_cancelled : int;
      (** answered EVA-E505: queue-aged, cancelled mid-graph by a
          deadline or the drain timeout, or timed out beyond a fault
          plan's budget *)
  faults_retried : int;  (** request-level retries granted *)
  retry_budget_left : int;  (** remainder of {!config.retry_budget} *)
  responses_dropped : int;
      (** responses lost because the client's stream broke mid-write;
          the daemon survives and keeps serving other connections *)
  queue_high_water : int;  (** deepest the admission queue ever got *)
  pt_cache_hits : int;  (** the engine's plaintext-cache hits during this daemon *)
  pt_cache_misses : int;
  executions : int;
      (** completed graph evaluations of any batch width; with batching,
          [requests_served / executions] approaches the mean batch *)
  batches_dissolved : int;
      (** batched executions that failed with a classifiable,
          non-cancellation error and were re-run as individual requests
          (per-request retries, fault plans and verdicts preserved) *)
  batch_histogram : int array;
      (** [.(i)] = completed executions that served [i + 1] requests;
          length is the effective maximum batch width *)
  slots_occupied : int;  (** lane slots filled across completed executions *)
  slots_available : int;
      (** ciphertext slots spent across completed executions *)
}

(** Hits / (hits + misses), 0 when idle. *)
val pt_hit_rate : stats -> float

(** [slots_occupied / slots_available], 0 when idle: how much of the
    ciphertext capacity batching actually packed. An unbatched daemon
    whose program width is below the ring's slot count reads low here —
    that gap is exactly what {!config.max_batch} converts into
    throughput. *)
val slot_utilization : stats -> float

type t

(** [start ~respond compiled engine] spawns the worker pool. [respond]
    is called once per request, from worker domains, possibly
    concurrently — it must be thread-safe. A [respond] that raises a
    broken-stream error ([Sys_error], [End_of_file], EPIPE/ECONNRESET)
    has its response counted as dropped rather than crashing the worker.
    [fault_for id] supplies an optional fault-injection plan for request
    [id] (worker death, transient failures, ... — see {!Fault}); default
    none. Requests rebind the engine per id with {!request_seed} and
    share its encode cache. *)
val start :
  ?config:config ->
  ?fault_for:(int -> Fault.t option) ->
  respond:(Eva_ckks.Wire.response -> unit) ->
  Eva_core.Compile.compiled ->
  Eva_core.Executor.engine ->
  t

(** Enqueue one request. With {!config.shed} enabled the request may be
    refused here (EVA-E509 response, counted shed) before touching the
    queue. Backpressure is otherwise caller-runs: while the queue is at
    [queue_depth], the submitting thread evaluates the oldest queued
    request itself (responding for it) before enqueuing, so the queue
    stays bounded and the submitter's cycles go into requests rather
    than a blocked wait. Raises [Invalid_argument] after {!drain}. *)
val submit : t -> Eva_ckks.Wire.request -> unit

(** Answer a request that never made it into the queue (e.g. its frame
    failed to parse) with an error response, counting it as failed. *)
val reject : t -> id:int -> Eva_diag.Diag.t -> unit

(** Stop admitting ({!submit} raises from now on) and wake the workers;
    does not wait. [drain_timeout_ms] arms the daemon's shutdown token:
    once it passes, in-flight requests are cancelled at their next node
    checkpoint and still-queued ones are answered EVA-E505 at pickup —
    the drain completes within one node of the deadline. *)
val shutdown : ?drain_timeout_ms:int -> t -> unit

(** Close admission (arming [timeout_ms] as in {!shutdown}), help run
    the queue dry on the calling thread, join the workers, and return
    the daemon's counters. *)
val drain : ?timeout_ms:int -> t -> stats

(** A point-in-time snapshot of the counters while the daemon is live
    (thread-safe; does not drain). *)
val live_stats : t -> stats

(** Admission-queue depth right now. *)
val queue_depth : t -> int

(** Per-request wall latencies (admission to response) in milliseconds,
    in completion order — the most recent [4096] completions (fixed
    ring, so daemon memory is bounded over an unbounded request
    stream). *)
val latencies_ms : t -> float array

(** [(p50, p99)] over {!latencies_ms}; [(0, 0)] when idle. *)
val latency_percentiles : t -> float * float

(** [run_channels compiled engine ic oc] is the daemon's wire face: read
    framed requests ({!Eva_ckks.Wire.read_frame} /
    [Wire.read_request]) from [ic] until end of stream, answer each
    with a framed response on [oc] (out-of-order under [pipeline] > 1 —
    responses carry the request id), then drain and return the stats.
    A frame carrying exactly [Wire.stats_probe] is answered with a
    framed [Wire.daemon_stats] snapshot instead of being enqueued.
    A malformed request payload yields an EVA-E4xx error response and
    the stream continues; a corrupt frame header has no boundary to
    resynchronize on, so it yields one final error response and ends
    the loop. A client that vanishes mid-frame ([End_of_file] or a
    broken pipe while reading) likewise just ends the stream — admitted
    requests still drain, and the daemon survives to serve other
    streams. [on_start] receives the daemon handle right after the
    workers spawn, so a caller can route a signal handler at
    {!shutdown} while the loop owns the thread. *)
val run_channels :
  ?config:config ->
  ?fault_for:(int -> Fault.t option) ->
  ?max_frame:int ->
  ?on_start:(t -> unit) ->
  Eva_core.Compile.compiled ->
  Eva_core.Executor.engine ->
  in_channel ->
  out_channel ->
  stats
