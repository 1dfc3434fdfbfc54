module Ir = Eva_core.Ir
module Compile = Eva_core.Compile
module Executor = Eva_core.Executor
module Reference = Eva_core.Reference
module Cancel = Eva_core.Cancel
module Wire = Eva_ckks.Wire
module Diag = Eva_diag.Diag

(* The serving tier: compile once, keygen once, then stream many
   independent requests through the executor. One daemon owns one
   compiled program and one prepared engine (context, keys, warm
   plaintext-encode cache); requests flow admission queue -> worker
   domains -> response callback, so parsing/encoding of the next request
   overlaps evaluation of the current one (request-level pipelining).

   Failure containment is the point: anything classifiable — a malformed
   frame, an unbound input, an injected worker death that exhausts its
   graph-level retries — becomes an error *response* for that one
   request; the daemon and every other in-flight request survive. Only
   foreign exceptions (bugs) escape.

   Degradation is layered on top of containment: every request carries a
   Cancel token (its own deadline, parented to the daemon's shutdown
   token) that the executors check per node, admission can shed work it
   predicts will miss its deadline (EVA-E509) before the work costs
   anything, and retries pace themselves with decorrelated jitter under
   a per-daemon budget so a persistent fault degrades into fast
   structured failures instead of a retry storm. *)

type shed_mode =
  | No_shedding
  | Watermarks of { high : int; low : int }

type config = {
  queue_depth : int;  (** admission-queue bound; see submit *)
  pipeline : int;  (** worker domains; 0 = evaluate on the calling thread *)
  graph_workers : int;  (** Executor.run_graph workers per execution *)
  default_deadline_ms : int option;  (** applied when a request carries none *)
  max_request_retries : int;  (** request-level retries after worker death *)
  retry_budget : int;  (** daemon-wide pool of request-level retries *)
  shed : shed_mode;  (** overload shedding at admission *)
  seed : int;  (** base of the per-request encryption seeds *)
  max_batch : int;  (** slot-batch up to this many requests per execution *)
  batch_linger_ms : float;  (** how long a worker waits to fill a batch *)
}

let default_config =
  {
    queue_depth = 8;
    pipeline = 1;
    graph_workers = 1;
    default_deadline_ms = None;
    max_request_retries = 2;
    retry_budget = 64;
    shed = No_shedding;
    seed = 1;
    max_batch = 1;
    batch_linger_ms = 0.0;
  }

(* Per-request encryption randomness is a pure function of (base seed,
   request id), so a pipelined daemon and a sequential one produce
   bit-identical ciphertexts — the property the serve-loop tests pin. *)
let request_seed cfg id = cfg.seed + id + 1

type stats = {
  requests_served : int;
  requests_failed : int;
  requests_shed : int;
  requests_cancelled : int;
  faults_retried : int;
  retry_budget_left : int;
  responses_dropped : int;
  queue_high_water : int;
  pt_cache_hits : int;
  pt_cache_misses : int;
  executions : int;
  batches_dissolved : int;
  batch_histogram : int array;
  slots_occupied : int;
  slots_available : int;
}

let pt_hit_rate s =
  let total = s.pt_cache_hits + s.pt_cache_misses in
  if total = 0 then 0.0 else float_of_int s.pt_cache_hits /. float_of_int total

let slot_utilization s =
  if s.slots_available = 0 then 0.0
  else float_of_int s.slots_occupied /. float_of_int s.slots_available

(* Latencies live in a fixed ring so a long-lived daemon's memory stays
   bounded no matter how many requests stream through; the window is
   ample for p99 estimation over recent traffic. *)
let latency_window = 4096

(* A slot-batched width the dispatcher can pick: its lane count, the
   batched program, and that program's ready-list priority. *)
type variant = { lanes : int; vcompiled : Compile.compiled; priority : Ir.node -> float }

type t = {
  cfg : config;
  compiled : Compile.compiled;
  engine : Executor.engine;
  variants : variant array;
      (** slot-batched widths available to the dispatcher: power-of-two
          lane counts (ascending, starting at 1) paired with the batched
          program, bounded by [max_batch] and the context's slots *)
  eff_max_batch : int;  (** widest variant's lane count *)
  ctx_slots : int;  (** ciphertext capacity, for slot-utilization stats *)
  fault_for : int -> Fault.t option;
  respond : Wire.response -> unit;
  lock : Mutex.t;
  not_empty : Condition.t;
  queue : (Wire.request * float) Queue.t;  (** request, admission time *)
  shutdown_token : Cancel.token;  (** parent of every request token *)
  est_model_s : float;  (** modeled sequential seconds per request *)
  mutable ewma_exec_s : float;  (** measured, 0 until the first success *)
  mutable shedding : bool;  (** watermark hysteresis state *)
  mutable closed : bool;
  mutable served : int;
  mutable failed : int;
  mutable shed_count : int;
  mutable cancelled : int;
  mutable retried : int;
  mutable budget_left : int;
  mutable dropped : int;  (** responses lost to a broken client stream *)
  mutable high_water : int;
  mutable executions : int;  (** completed graph executions (any width) *)
  mutable dissolved : int;  (** failed batches re-run as singles *)
  batch_hist : int array;  (** [i] = executions with [i+1] live members *)
  mutable slots_occupied : int;
  mutable slots_available : int;
  lat_ring : float array;
  mutable lat_count : int;  (** total completions; ring index = count mod window *)
  mutable domains : unit Domain.t list;
  pt_base : int * int;  (** the engine's plaintext-cache counters at daemon start *)
}

let now = Unix.gettimeofday

(* A response the client can no longer receive must not take a worker
   domain (and with it the daemon) down: writes onto a vanished peer
   raise EPIPE/ECONNRESET (sockets) or Sys_error (channels); those are
   counted and dropped, everything else is still a bug and escapes. *)
let safe_respond t r =
  try t.respond r with
  | Sys_error _ | End_of_file | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
      Mutex.lock t.lock;
      t.dropped <- t.dropped + 1;
      Mutex.unlock t.lock

let take_retry_token t =
  Mutex.lock t.lock;
  let ok = t.budget_left > 0 in
  if ok then begin
    t.budget_left <- t.budget_left - 1;
    t.retried <- t.retried + 1
  end;
  Mutex.unlock t.lock;
  ok

let note_exec_time t dt =
  Mutex.lock t.lock;
  t.ewma_exec_s <- (if t.ewma_exec_s = 0.0 then dt else (0.8 *. t.ewma_exec_s) +. (0.2 *. dt));
  Mutex.unlock t.lock

(* Blended per-execution cost: measured once anything has completed,
   the analytic model at [Cost.default_coefficients] before that (not a
   per-host calibration; see ROADMAP item 12). *)
let est_service_s t = if t.ewma_exec_s > 0.0 then t.ewma_exec_s else t.est_model_s

(* Answer one admitted request and account for it. *)
let answer t (req : Wire.request) t_admit payload =
  safe_respond t { Wire.resp_id = req.Wire.req_id; payload };
  Mutex.lock t.lock;
  (match payload with
  | Ok _ -> t.served <- t.served + 1
  | Error d ->
      t.failed <- t.failed + 1;
      if d.Diag.code = Diag.exec_timeout then t.cancelled <- t.cancelled + 1);
  t.lat_ring.(t.lat_count mod latency_window) <- (now () -. t_admit) *. 1000.0;
  t.lat_count <- t.lat_count + 1;
  Mutex.unlock t.lock

(* One *completed* graph evaluation served [live] requests: the slot
   accounting pairs the lane-slots it filled against the ciphertext
   capacity it spent, so [slot_utilization] reads how much of the
   packing headroom batching actually used. *)
let note_batch t live =
  Mutex.lock t.lock;
  t.executions <- t.executions + 1;
  t.batch_hist.(live - 1) <- t.batch_hist.(live - 1) + 1;
  t.slots_occupied <- t.slots_occupied + (live * t.compiled.Compile.program.Ir.vec_size);
  t.slots_available <- t.slots_available + t.ctx_slots;
  Mutex.unlock t.lock

let deadline_of t (req : Wire.request) =
  match req.Wire.deadline_ms with Some _ as d -> d | None -> t.cfg.default_deadline_ms

(* One admitted request at dispatch: its own cancellation token carries
   its deadline (or the config default), parented to the daemon's
   shutdown token. *)
type member = {
  req : Wire.request;
  t_admit : float;
  deadline : int option;
  deadline_at : float option;
  token : Cancel.token;
}

(* A member's own EVA-E505 verdict once its token reads cancelled: its
   deadline lapsed [where], or the daemon is shutting down. *)
let verdict m where =
  match Cancel.cancelled m.token with
  | Some Cancel.Deadline when m.deadline <> None ->
      Some
        (Diag.make ~layer:Diag.Execute ~code:Diag.exec_timeout
           (Printf.sprintf "request %d exceeded its %dms deadline %s" m.req.Wire.req_id
              (Option.get m.deadline) where))
  | Some reason -> Some (Cancel.to_diag reason)
  | None -> None

(* The one serving path, for one request or a slot batch of several:
   the members ride one execution of the narrowest variant that holds
   them. A lone request is the width-1 variant — the program itself,
   encrypted by [rebind_batched ~seeds:[|request_seed|]], bit-identical
   to [rebind ~seed]. Per-request degradation semantics survive the
   shared ciphertext:

   - members already cancelled at pickup (a deadline that lapsed in the
     queue, or shutdown) are answered EVA-E505 individually and drop out
     before costing anything;
   - a lone request runs under its own token. A batch runs under a
     token whose deadline is the {e latest} member deadline, and only
     when every member carries one — an early member must never cancel
     its batchmates. Each batchmate is re-checked against its own token
     when results scatter (and on a batch-wide cancellation), so an
     early member is answered EVA-E505 while the others get theirs;
   - a worker death that exhausted the graph executor (EVA-E504) at
     width 1 is retried whole, paced by decorrelated jitter (seeded per
     request, so the schedule is reproducible) and charged against the
     daemon-wide retry budget — a persistently faulty daemon stops
     retrying instead of amplifying load;
   - any other classifiable failure of a batch — a worker death, one
     member's unbound input, a scheme-layer mismatch — dissolves it:
     members are re-dispatched one by one, restoring per-request
     retries, fault plans and verdicts. At width 1 it is that request's
     answer. Foreign exceptions are bugs and still escape.

   The token is checked before encryption, after it (a deadline that
   expired while the most expensive pre-graph step ran must not also
   pay for the graph) and per node inside the executor, so a deadline
   blown mid-graph stops within one node and the live ciphertexts are
   freed with the frame. *)
let rec dispatch t admitted =
  let live =
    List.filter_map
      (fun ((req : Wire.request), t_admit) ->
        let deadline = deadline_of t req in
        let deadline_at = Option.map (fun d -> t_admit +. (float_of_int d /. 1000.0)) deadline in
        let token = Cancel.make ?deadline_at ~parent:t.shutdown_token () in
        let m = { req; t_admit; deadline; deadline_at; token } in
        match verdict m "in the admission queue" with
        | Some d ->
            answer t m.req m.t_admit (Error d);
            None
        | None -> Some m)
      admitted
  in
  if live <> [] then execute t live

and execute t members =
  let n = List.length members in
  (* Smallest variant wide enough; [collect] bounds the member count by
     the widest, so the scan cannot fall off the end. Lanes beyond [n]
     are zero-padded and never scattered back. *)
  let v =
    let rec pick i = if t.variants.(i).lanes >= n then t.variants.(i) else pick (i + 1) in
    pick 0
  in
  let seeds = Array.of_list (List.map (fun m -> request_seed t.cfg m.req.Wire.req_id) members) in
  let bindings =
    Array.of_list
      (List.map
         (fun m -> List.map (fun (name, x) -> (name, Reference.Vec x)) m.req.Wire.req_inputs)
         members)
  in
  let token =
    match members with
    | [ m ] -> m.token
    | _ ->
        let latest =
          List.fold_left
            (fun acc m ->
              match (acc, m.deadline_at) with Some a, Some d -> Some (Float.max a d) | _ -> None)
            (Some neg_infinity) members
        in
        Cancel.make ?deadline_at:latest ~parent:t.shutdown_token ()
  in
  let interpose =
    Option.map Fault.interpose (List.find_map (fun m -> t.fault_for m.req.Wire.req_id) members)
  in
  let backoff = lazy (Backoff.make ~base_ms:0.5 ~cap_ms:50.0 ~seed:seeds.(0) ()) in
  let t_exec = now () in
  let rec attempt tries =
    match
      Cancel.check token;
      let e =
        Executor.rebind_batched ~seeds ~encrypt_workers:1 t.engine v.vcompiled bindings
      in
      Cancel.check token;
      let s =
        Executor.run_graph ?interpose ~cancel:token ~workers:t.cfg.graph_workers ~priority:v.priority e
          v.vcompiled
      in
      List.map (fun (name, x) -> (name, Executor.read_output e x)) s.Executor.raw_outputs
    with
    | outputs -> Ok outputs
    | exception Diag.Error d
      when n = 1
           && d.Diag.code = Diag.exec_workers_died
           && tries < t.cfg.max_request_retries
           && take_retry_token t ->
        Backoff.sleep ?limit_ms:(Cancel.remaining_ms token) (Lazy.force backoff);
        attempt (tries + 1)
    | exception e -> ( match Diag.classify e with Some d -> Error d | None -> raise e)
  in
  (* A member whose own token is the execution's gets the raw outcome;
     batchmates get their own verdict first. *)
  let own m where outcome =
    if m.token == token then outcome
    else match verdict m where with Some d -> Error d | None -> outcome
  in
  match attempt 0 with
  | Ok outputs ->
      note_exec_time t (now () -. t_exec);
      note_batch t n;
      List.iteri
        (fun b m ->
          let lane =
            List.map (fun (name, full) -> (name, Executor.extract_lane ~lanes:v.lanes ~lane:b full)) outputs
          in
          answer t m.req m.t_admit (own m "while its batch completed" (Ok (Compile.unpack_outputs t.compiled lane))))
        members
  | Error d when n = 1 || d.Diag.code = Diag.exec_timeout ->
      List.iter (fun m -> answer t m.req m.t_admit (own m "mid-batch" (Error d))) members
  | Error _ ->
      Mutex.lock t.lock;
      t.dissolved <- t.dissolved + 1;
      Mutex.unlock t.lock;
      List.iter (fun m -> dispatch t [ (m.req, m.t_admit) ]) members

(* Greedily move queued requests onto the end of [members], up to the
   widest variant; called with the lock held, never waits. *)
let rec top_up_locked t members =
  if List.length members < t.eff_max_batch && not (Queue.is_empty t.queue) then
    top_up_locked t (members @ [ Queue.take t.queue ])
  else members

(* Gather one batch for a worker, starting from an already-dequeued
   [first]. Called with the lock held; returns with it released.

   With spare width and a linger budget the worker waits (polling with
   the lock released, so admission keeps flowing) for the queue to offer
   more work — but never past the point where any collected member's
   deadline minus the blended service estimate says the batch must
   start. A worker therefore trades at most [batch_linger_ms] of p50
   latency for packing, and nothing at all when deadlines are tight. *)
let collect t first =
  let members = ref (top_up_locked t [ first ]) in
  let linger_s = t.cfg.batch_linger_ms /. 1000.0 in
  if List.length !members < t.eff_max_batch && linger_s > 0.0 then begin
    let t0 = now () in
    let wait_until () =
      let est = est_service_s t in
      List.fold_left
        (fun acc ((req : Wire.request), t_admit) ->
          match deadline_of t req with
          | None -> acc
          | Some d -> Float.min acc (t_admit +. (float_of_int d /. 1000.0) -. est))
        (t0 +. linger_s) !members
    in
    let rec linger () =
      if List.length !members < t.eff_max_batch && (not t.closed) && now () < wait_until () then begin
        Mutex.unlock t.lock;
        Unix.sleepf 0.0002;
        Mutex.lock t.lock;
        members := top_up_locked t !members;
        linger ()
      end
    in
    linger ()
  end;
  Mutex.unlock t.lock;
  !members

let worker t () =
  let rec loop () =
    Mutex.lock t.lock;
    let rec wait () =
      if not (Queue.is_empty t.queue) then Some (Queue.take t.queue)
      else if t.closed then None
      else begin
        Condition.wait t.not_empty t.lock;
        wait ()
      end
    in
    match wait () with
    | None ->
        Condition.broadcast t.not_empty;
        Mutex.unlock t.lock
    | Some first ->
        let members = collect t first in
        dispatch t members;
        loop ()
  in
  loop ()

let start ?(config = default_config) ?(fault_for = fun _ -> None) ~respond compiled engine =
  if config.queue_depth < 1 || config.pipeline < 0 || config.graph_workers < 1 then
    invalid_arg "Serve.start: queue_depth and graph_workers must be >= 1, pipeline >= 0";
  if config.max_batch < 1 || not (Float.is_finite config.batch_linger_ms) || config.batch_linger_ms < 0.0
  then invalid_arg "Serve.start: max_batch must be >= 1 and batch_linger_ms >= 0";
  (match config.shed with
  | Watermarks { high; low } when high < 1 || low < 0 || low >= high ->
      invalid_arg "Serve.start: shed watermarks need 0 <= low < high"
  | _ -> ());
  let ctx_slots = Executor.engine_degree engine / 2 in
  let log_n = int_of_float (Float.round (Float.log2 (float_of_int (Executor.engine_degree engine)))) in
  (* The analytic model prices every variant once, at the engine's
     actual ring degree and [Cost.default_coefficients] (no per-host
     calibration; see ROADMAP item 12): it orders the ready list as in
     [Parallel.execute_on], and the width-1 total seeds the admission
     controller's service estimate, which it blends with measured
     times. *)
  let priced l vcompiled =
    let priority, work = Parallel.priority ~log_n vcompiled in
    ({ lanes = l; vcompiled; priority }, work)
  in
  let variants, est_model_s =
    let priced =
      List.map
        (fun l -> priced l (Compile.batch compiled ~lanes:l))
        (Compile.batch_widths compiled ~max_batch:config.max_batch ~slots:ctx_slots)
    in
    (Array.of_list (List.map fst priced), snd (List.hd priced))
  in
  let eff_max_batch = variants.(Array.length variants - 1).lanes in
  (* Fail fast, not per batch: every width the dispatcher may pick must
     already have its Galois keys in the engine's keyset. *)
  Array.iter
    (fun v ->
      if v.lanes > 1 then
        match Executor.missing_rotations engine v.vcompiled with
        | [] -> ()
        | missing ->
            invalid_arg
              (Printf.sprintf
                 "Serve.start: engine lacks Galois keys for %d-lane batching (slot steps %s); \
                  prepare the engine with \
                  ~extra_rotations:(Compile.batch_rotations compiled ~max_lanes:%d)"
                 v.lanes
                 (String.concat ", " (List.map string_of_int missing))
                 eff_max_batch))
    variants;
  let t =
    {
      cfg = config;
      compiled;
      engine;
      variants;
      eff_max_batch;
      ctx_slots;
      fault_for;
      respond;
      lock = Mutex.create ();
      not_empty = Condition.create ();
      queue = Queue.create ();
      shutdown_token = Cancel.make ();
      est_model_s;
      ewma_exec_s = 0.0;
      shedding = false;
      closed = false;
      served = 0;
      failed = 0;
      shed_count = 0;
      cancelled = 0;
      retried = 0;
      budget_left = config.retry_budget;
      dropped = 0;
      high_water = 0;
      executions = 0;
      dissolved = 0;
      batch_hist = Array.make eff_max_batch 0;
      slots_occupied = 0;
      slots_available = 0;
      lat_ring = Array.make latency_window 0.0;
      lat_count = 0;
      domains = [];
      pt_base = Executor.pt_cache_counters engine;
    }
  in
  t.domains <- List.init config.pipeline (fun _ -> Domain.spawn (worker t));
  t

(* Admission control, called with the lock held. A request the daemon
   predicts it cannot serve is cheapest to refuse before it costs
   anything: with a deadline, the predicted completion time (queue ahead
   of it draining through the pipeline in batches of up to the widest
   variant, plus its own execution and linger, at the blended cost
   estimate) is compared against the deadline; without one, a
   high/low-watermark hysteresis on queue depth sheds sustained overload
   while letting bursts through. *)
let shed_check t (req : Wire.request) =
  match t.cfg.shed with
  | No_shedding -> None
  | Watermarks { high; low } -> (
      let qlen = Queue.length t.queue in
      match deadline_of t req with
      | Some d ->
          let est_s = est_service_s t in
          let lanes = float_of_int (max 1 t.cfg.pipeline) in
          let batches_ahead =
            Float.of_int ((qlen + t.eff_max_batch - 1) / t.eff_max_batch)
          in
          let eta_ms =
            ((batches_ahead *. est_s /. lanes) +. est_s +. (t.cfg.batch_linger_ms /. 1000.0))
            *. 1000.0
          in
          if eta_ms > float_of_int d then
            Some
              (Diag.make ~layer:Diag.Execute ~code:Diag.exec_overload
                 (Printf.sprintf
                    "request %d shed: estimated completion %.1fms exceeds its %dms deadline (queue \
                     %d, %.1fms/request)"
                    req.Wire.req_id eta_ms d qlen (est_s *. 1000.0)))
          else None
      | None ->
          if qlen >= high then t.shedding <- true
          else if qlen <= low then t.shedding <- false;
          if t.shedding then
            Some
              (Diag.make ~layer:Diag.Execute ~code:Diag.exec_overload
                 (Printf.sprintf "request %d shed: admission queue at %d past high watermark %d"
                    req.Wire.req_id qlen high))
          else None)

(* Admission backpressure is caller-runs: when the queue is full the
   submitting thread takes the oldest queued request and evaluates it
   itself before enqueuing. The queue stays bounded without anyone
   sleeping, and on a machine with fewer cores than pipeline + 1 the
   submitter's cycles go into requests instead of a blocked wait. *)
let rec submit t (req : Wire.request) =
  Mutex.lock t.lock;
  if t.closed then begin
    Mutex.unlock t.lock;
    invalid_arg "Serve.submit: daemon already drained"
  end;
  match shed_check t req with
  | Some d ->
      t.failed <- t.failed + 1;
      t.shed_count <- t.shed_count + 1;
      Mutex.unlock t.lock;
      safe_respond t { Wire.resp_id = req.Wire.req_id; payload = Error d }
  | None ->
      if Queue.length t.queue >= t.cfg.queue_depth then begin
        (* The queue is full, so there is no reason to linger: take a
           full-width batch straight off the front. *)
        let members = top_up_locked t [ Queue.take t.queue ] in
        Mutex.unlock t.lock;
        dispatch t members;
        submit t req
      end
      else begin
        Queue.add (req, now ()) t.queue;
        if Queue.length t.queue > t.high_water then t.high_water <- Queue.length t.queue;
        Condition.signal t.not_empty;
        Mutex.unlock t.lock
      end

(* An unparsable request never reaches the queue; it is answered (and
   counted as failed) directly, preserving one-response-per-frame. *)
let reject t ~id d =
  safe_respond t { Wire.resp_id = id; payload = Error d };
  Mutex.lock t.lock;
  t.failed <- t.failed + 1;
  Mutex.unlock t.lock

let stats_locked t =
  (* The cache counters run since keygen; report this daemon's share as
     the delta since [start]. *)
  let hits, misses = Executor.pt_cache_counters t.engine and base_hits, base_misses = t.pt_base in
  {
    requests_served = t.served;
    requests_failed = t.failed;
    requests_shed = t.shed_count;
    requests_cancelled = t.cancelled;
    faults_retried = t.retried;
    retry_budget_left = t.budget_left;
    responses_dropped = t.dropped;
    queue_high_water = t.high_water;
    pt_cache_hits = hits - base_hits;
    pt_cache_misses = misses - base_misses;
    executions = t.executions;
    batches_dissolved = t.dissolved;
    batch_histogram = Array.copy t.batch_hist;
    slots_occupied = t.slots_occupied;
    slots_available = t.slots_available;
  }

let live_stats t =
  Mutex.lock t.lock;
  let s = stats_locked t in
  Mutex.unlock t.lock;
  s

let latencies_ms t =
  Mutex.lock t.lock;
  let n = min t.lat_count latency_window in
  let r =
    if t.lat_count <= latency_window then Array.sub t.lat_ring 0 n
    else
      (* The ring wrapped: oldest surviving sample sits at the write
         cursor; unroll so the result is still in completion order. *)
      Array.init n (fun i -> t.lat_ring.((t.lat_count + i) mod latency_window))
  in
  Mutex.unlock t.lock;
  r

let latency_percentiles t =
  let l = latencies_ms t in
  if Array.length l = 0 then (0.0, 0.0)
  else begin
    Array.sort compare l;
    let at p = l.(min (Array.length l - 1) (int_of_float (p *. float_of_int (Array.length l)))) in
    (at 0.50, at 0.99)
  end

let queue_depth t =
  Mutex.lock t.lock;
  let n = Queue.length t.queue in
  Mutex.unlock t.lock;
  n

let shutdown ?drain_timeout_ms t =
  Mutex.lock t.lock;
  t.closed <- true;
  (match drain_timeout_ms with
  | Some ms ->
      Cancel.set_deadline ~reason:Cancel.Shutdown t.shutdown_token
        (Some (now () +. (float_of_int ms /. 1000.0)))
  | None -> ());
  Condition.broadcast t.not_empty;
  Mutex.unlock t.lock

let drain ?timeout_ms t =
  shutdown ?drain_timeout_ms:timeout_ms t;
  (* Help run the queue dry on the calling thread: with pipeline = 0
     this is the only execution; with workers it is one more hand. Once
     the drain deadline passes, every remaining request's token reads
     cancelled at pickup and is answered EVA-E505 without executing. *)
  let rec help () =
    Mutex.lock t.lock;
    match Queue.take_opt t.queue with
    | None -> Mutex.unlock t.lock
    | Some first ->
        let members = top_up_locked t [ first ] in
        Mutex.unlock t.lock;
        dispatch t members;
        help ()
  in
  help ();
  List.iter Domain.join t.domains;
  t.domains <- [];
  stats_locked t

(* ------------------------------------------------------------------ *)
(* Channel loop: the daemon's wire face                                *)
(* ------------------------------------------------------------------ *)

(* Best-effort id recovery from a payload whose full parse failed, so
   the error response still correlates with the client's request. *)
let salvage_id payload = try Scanf.sscanf payload " request %d" (fun i -> i) with _ -> -1

let wire_stats t =
  let s = live_stats t in
  let p50, p99 = latency_percentiles t in
  {
    Wire.st_served = s.requests_served;
    st_failed = s.requests_failed;
    st_shed = s.requests_shed;
    st_retried = s.faults_retried;
    st_queue = queue_depth t;
    st_p50_ms = p50;
    st_p99_ms = p99;
    st_executions = s.executions;
    st_batch_histogram = s.batch_histogram;
    st_slots_occupied = s.slots_occupied;
    st_slots_available = s.slots_available;
    st_pt_hits = s.pt_cache_hits;
    st_pt_misses = s.pt_cache_misses;
  }

let run_channels ?config ?fault_for ?max_frame ?(on_start = fun _ -> ()) compiled engine ic oc =
  let out_lock = Mutex.create () in
  let write payload =
    Mutex.lock out_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock out_lock) (fun () -> Wire.write_frame oc payload)
  in
  let respond r = write (Wire.to_string Wire.write_response r) in
  let t = start ?config ?fault_for ~respond compiled engine in
  on_start t;
  let rec loop () =
    match Wire.read_frame ?max_frame ic with
    | None -> ()
    | Some payload when String.trim payload = Wire.stats_probe ->
        (* Health is observable mid-stream without draining anything;
           the reply shares the response stream (and its lock). A probe
           whose reply cannot be written (client already gone) is
           dropped like any other response on a broken stream. *)
        (try write (Wire.to_string Wire.write_stats (wire_stats t))
         with Sys_error _ | End_of_file -> ());
        loop ()
    | Some payload ->
        (match Wire.read_request payload ~pos:(ref 0) with
        | req -> submit t req
        | exception Diag.Error d -> reject t ~id:(salvage_id payload) d);
        loop ()
    | exception Diag.Error d ->
        (* A corrupt frame header leaves no boundary to resynchronize
           on: answer what we can and stop reading this stream. Queued
           requests still complete below. *)
        reject t ~id:(-1) d
    | exception (End_of_file | Sys_error _) ->
        (* The client vanished mid-frame: its stream is over, but the
           daemon is not — admitted requests still drain below (their
           responses are dropped by [safe_respond] if the write side is
           equally dead). *)
        ()
  in
  loop ();
  drain t
