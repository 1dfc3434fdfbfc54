(* The four workloads. Each calls only the library's public APIs, draws
   every input (database rows, queries, images, weights, arrival gaps)
   from the run's seed, checks every answer against a plaintext
   reference, and fills a Harness.report.

   End-to-end metrics come from an untraced run; the per-layer probes
   (per-node recording, kernel timings, the parallel executor, the
   noise estimate, a serve replay) run only when [mode.traced]. *)

module B = Eva_core.Builder
module Ir = Eva_core.Ir
module Compile = Eva_core.Compile
module Params = Eva_core.Params
module Reference = Eva_core.Reference
module Executor = Eva_core.Executor
module Noise = Eva_core.Noise
module Analysis = Eva_core.Analysis
module N = Eva_tensor.Network
module Nets = Eva_tensor.Networks
module Parallel = Eva_schedule.Parallel
module Serve = Eva_schedule.Serve
module Wire = Eva_ckks.Wire
module Ctx = Eva_ckks.Context
module Keys = Eva_ckks.Keys
module Eval = Eva_ckks.Eval
module Rp = Eva_poly.Rns_poly
open Harness

type mode = {
  seed : int;
  budget : float;  (** seconds the measured phases are sized for *)
  smoke : bool;  (** toy sizes: N <= 2^9, a few requests *)
  traced : bool;  (** run the per-layer probes too *)
}

let span = Trace.span
let ms s = s *. 1e3
let uniform st = Random.State.float st 2.0 -. 1.0
let scaled m per_second ~min = max min (int_of_float (Float.round (per_second *. m.budget)))

(* Set-up is measured several times and reported as the median, so a
   change that moves work into set-up shows in setup_s: at least three
   times, and until two seconds of set-up have run, so a cheap set-up's
   median spans more than one burst of co-tenant load. The last result
   is the one the workload goes on to use. *)
let setup_median m r f =
  (* Only the latest result stays reachable, so earlier set-ups are
     garbage by the next collection and do not inflate peak memory. *)
  let rec go times spent =
    Gc.full_major ();
    let v, t = time f in
    let times = t :: times and spent = spent +. t in
    let k = List.length times in
    if m.smoke || m.traced || (k >= 3 && (spent >= 2.0 || k >= 100)) then (v, times) else go times spent
  in
  let v, times = go [] 0.0 in
  e2e r "setup_s" (median times) "s";
  v

let count p pred = List.length (List.filter (fun n -> pred n.Ir.op) p.Ir.all_nodes)

(* What the per-layer metrics need from a compiled program, so a large
   compiled network need not stay alive to be reported. *)
type summary = {
  nodes : int;
  rescales : int;
  modswitches : int;
  relins : int;
  rotation_steps : int;
  vectorized : bool;
  params : Params.t;
}

let summarize (c : Compile.compiled) =
  let p = c.Compile.program in
  {
    nodes = Ir.node_count p;
    rescales = count p (function Ir.Rescale _ -> true | _ -> false);
    modswitches = count p (function Ir.Mod_switch -> true | _ -> false);
    relins = count p (function Ir.Relinearize -> true | _ -> false);
    rotation_steps = List.length c.Compile.params.Params.rotations;
    vectorized = c.Compile.packing <> None;
    params = c.Compile.params;
  }

let compile_layer r summaries =
  let sum f = float_of_int (List.fold_left (fun acc s -> acc + f s) 0 summaries) in
  layer r "Compile.nodes" (sum (fun s -> s.nodes)) "count";
  layer r "Compile.rescales" (sum (fun s -> s.rescales)) "count";
  layer r "Compile.modswitches" (sum (fun s -> s.modswitches)) "count";
  layer r "Compile.relins" (sum (fun s -> s.relins)) "count";
  layer r "Compile.rotation_steps" (sum (fun s -> s.rotation_steps)) "count";
  layer r "Compile.vectorized" (sum (fun s -> Bool.to_int s.vectorized)) "count"

let params_layer ?(suffix = "") r (p : Params.t) =
  let kind = if suffix = "" then layer else extra in
  kind r ("Params.log_n" ^ suffix) (float_of_int p.Params.log_n) "log2";
  kind r ("Params.log_q" ^ suffix) (float_of_int p.Params.log_q) "bits";
  kind r ("Params.r" ^ suffix) (float_of_int (List.length p.Params.bit_sizes)) "count"

let stamp_context r ~log_n ~secure (c : Compile.compiled) =
  r.log_n <- log_n;
  r.chain <- List.length c.Compile.params.Params.context_data_bits;
  r.secure <- secure

let context_for ~log_n (c : Compile.compiled) =
  let p = c.Compile.params in
  Ctx.make ~ignore_security:true ~n:(1 lsl log_n) ~data_bits:p.Params.context_data_bits
    ~special_bits:p.Params.special_bits ()

let galois_elts ctx steps = List.map (fun s -> Ctx.galois_elt_rotate ctx (if s >= 0 then s else Ctx.slots ctx + s)) steps

let decrypt_outputs e (s : Executor.run_stats) =
  List.map (fun (name, v) -> (name, Executor.read_output e v)) s.Executor.raw_outputs

(* ------------------------------------------------------------------ *)
(* Serving: one generator on the main domain, one daemon worker        *)
(* ------------------------------------------------------------------ *)

type pattern =
  | Closed  (** one client, one request in flight *)
  | Open of float array  (** due times, seconds after the phase starts *)
  | Burst  (** back to back; caller-runs backpressure paces the generator *)

type phase = {
  lat_ms : float list;  (** answered requests in submit order: due (or submit) to respond *)
  late_ms : float list;  (** open loop: how late the generator submitted *)
  wall : float;  (** first submit to last response, seconds *)
  answered : int;  (** Ok responses *)
  stats : Serve.stats;
}

let next_rid = ref 0

(* Runs one phase through a fresh daemon on a shared engine (its warm
   plaintext cache carries over between phases). [check i outputs]
   verifies request [i]'s answer; error responses and missing answers
   count as failed. *)
let drive r ~config c engine pattern ~(inputs : (string * float array) list array) ~check =
  let n = Array.length inputs in
  let base = !next_rid in
  next_rid := base + n;
  let results = Hashtbl.create (2 * n) and lock = Mutex.create () and cond = Condition.create () in
  let respond (resp : Wire.response) =
    let t = now () in
    Trace.request_end resp.Wire.resp_id t;
    Mutex.lock lock;
    Hashtbl.replace results resp.Wire.resp_id (t, resp.Wire.payload);
    Condition.broadcast cond;
    Mutex.unlock lock
  in
  let daemon = span "Serve.start" (fun () -> Serve.start ~config ~respond c engine) in
  let t_ref = Array.make n 0.0 and late = ref [] in
  let submit i =
    Trace.request_begin (base + i) (now ());
    span "Serve.submit" (fun () ->
        Serve.submit daemon { Wire.req_id = base + i; deadline_ms = None; req_inputs = inputs.(i) })
  in
  let t_start = now () in
  (match pattern with
  | Closed ->
      for i = 0 to n - 1 do
        t_ref.(i) <- now ();
        submit i;
        Mutex.lock lock;
        while not (Hashtbl.mem results (base + i)) do
          Condition.wait cond lock
        done;
        Mutex.unlock lock
      done
  | Burst ->
      for i = 0 to n - 1 do
        t_ref.(i) <- now ();
        submit i
      done
  | Open dues ->
      for i = 0 to n - 1 do
        let due = t_start +. dues.(i) in
        let wait = due -. now () in
        if wait > 0.0 then Unix.sleepf wait;
        late := ms (now () -. due) :: !late;
        t_ref.(i) <- due;
        submit i
      done);
  let stats = span "Serve.drain" (fun () -> Serve.drain daemon) in
  let last = ref t_start and lat = ref [] in
  for i = 0 to n - 1 do
    match Hashtbl.find_opt results (base + i) with
    | Some (t, Ok outputs) ->
        last := Float.max !last t;
        lat := ms (t -. t_ref.(i)) :: !lat;
        check i outputs
    | Some (t, Error _) ->
        last := Float.max !last t;
        fail r
    | None -> fail r
  done;
  { lat_ms = List.rev !lat; late_ms = !late; wall = !last -. t_start; answered = List.length !lat; stats }

let widest_batch ~max_batch ~vs ~log_n =
  let slots = (1 lsl log_n) / 2 in
  let rec go l = if 2 * l <= max_batch && 2 * l * vs <= slots then go (2 * l) else l in
  go 1

let total_stats f phases = List.fold_left (fun acc p -> acc + f p.stats) 0 phases

(* Requests served per graph execution. *)
let batch_mean phases =
  float_of_int (total_stats (fun s -> s.Serve.requests_served) phases)
  /. float_of_int (max 1 (total_stats (fun s -> s.Serve.executions) phases))

(* One execution at the batch width the daemon used most, replayed
   outside the daemon: rebind_batched + run_graph + read_output. *)
let service_replay ~smoke c engine (phases : phase list) ~bindings =
  let hist = Array.make (List.fold_left (fun m p -> max m (Array.length p.stats.Serve.batch_histogram)) 1 phases) 0 in
  List.iter (fun p -> Array.iteri (fun i k -> hist.(i) <- hist.(i) + k) p.stats.Serve.batch_histogram) phases;
  let modal = ref 0 in
  Array.iteri (fun i k -> if k > hist.(!modal) then modal := i) hist;
  let width = !modal + 1 in
  let rec pow2 l = if l >= width then l else pow2 (2 * l) in
  let cb = Compile.batch c ~lanes:(pow2 1) in
  let members = Array.init width bindings in
  let seeds = Array.init width (fun i -> i + 1) in
  let once () =
    let e = Executor.rebind_batched ~encrypt_workers:1 ~seeds engine cb members in
    ignore (decrypt_outputs e (Executor.run_graph e cb))
  in
  span "Serve.replay" (fun () -> ms (time_median ~budget:(if smoke then 0.0 else 0.3) ~min_reps:1 once))

(* Daemon-layer metrics over every phase of a run. [loaded] is the phase
   whose median latency, minus the replayed service time, gives the time
   a request spent waiting (queue, linger, batch-mates). *)
let serve_layer ~smoke r c engine phases ~loaded ~bindings =
  let sum f = total_stats f phases in
  let hits = sum (fun s -> s.Serve.pt_cache_hits) and misses = sum (fun s -> s.Serve.pt_cache_misses) in
  let service = service_replay ~smoke c engine phases ~bindings in
  layer r "Serve.executions" (float_of_int (sum (fun s -> s.Serve.executions))) "count";
  layer r "Serve.batch_mean" (batch_mean phases) "requests";
  layer r "Serve.slot_util"
    (float_of_int (sum (fun s -> s.Serve.slots_occupied)) /. float_of_int (max 1 (sum (fun s -> s.Serve.slots_available))))
    "ratio";
  layer r "Serve.queue_high_water"
    (float_of_int (List.fold_left (fun acc p -> max acc p.stats.Serve.queue_high_water) 0 phases))
    "count";
  layer r "Serve.dissolved" (float_of_int (sum (fun s -> s.Serve.batches_dissolved))) "count";
  layer r "Serve.retried" (float_of_int (sum (fun s -> s.Serve.faults_retried))) "count";
  layer r "Serve.pt_hit_rate" (float_of_int hits /. float_of_int (max 1 (hits + misses))) "ratio";
  layer r "Serve.service_ms" service "ms";
  (* Derived, not measured: median latency of the loaded phase minus
     the replayed service time. *)
  layer r "Serve.wait_ms" (median loaded.lat_ms -. service) "ms"

(* ------------------------------------------------------------------ *)
(* Per-layer probes shared by every workload                           *)
(* ------------------------------------------------------------------ *)

(* A compiled program on a prepared engine, with a seeded input source
   and an answer check (on outputs already unpacked to the source
   program's names). *)
type target = {
  c : Compile.compiled;
  engine : Executor.engine;
  exec_log_n : int;
  bindings : int -> (string * Reference.binding) list;
  check : int -> (string * float array) list -> unit;
}

let probe_input = 1_000_000

let op_kind types (n : Ir.node) =
  match n.Ir.op with
  | Ir.Rotate_left _ | Ir.Rotate_right _ -> Some "rotate"
  | Ir.Relinearize -> Some "relinearize"
  | Ir.Rescale _ -> Some "rescale"
  | Ir.Mod_switch -> Some "modswitch"
  | Ir.Add | Ir.Sub | Ir.Negate -> Some "add"
  | Ir.Multiply ->
      let cipher (p : Ir.node) = Hashtbl.find_opt types p.Ir.id = Some Ir.Cipher in
      Some (if Array.for_all cipher n.Ir.parms then "multiply" else "multiply_plain")
  | _ -> None

let node_kinds = [ "rotate"; "relinearize"; "rescale"; "modswitch"; "multiply"; "multiply_plain"; "add" ]

(* Coarse groups, each non-empty in every workload's program (the
   retrieval program has no rescale, so rescale time is an extra). *)
let node_groups = [ ("keyswitch", [ "rotate"; "relinearize" ]); ("mult", [ "multiply"; "multiply_plain" ]); ("linear", [ "add" ]) ]

let executor_probe r t =
  let i = probe_input in
  let e, rebind_s =
    time (fun () -> span "Executor.rebind" (fun () -> Executor.rebind ~encrypt_workers:2 t.engine t.c (t.bindings i)))
  in
  let s = span "Executor.run_graph" (fun () -> Executor.run_graph e t.c) in
  let hits, misses = Executor.pt_cache_counters e in
  let outs, decrypt_s = time (fun () -> span "Executor.read_output" (fun () -> decrypt_outputs e s)) in
  t.check i (Compile.unpack_outputs t.c outs);
  layer r "Executor.rebind_ms" (ms rebind_s) "ms";
  layer r "Executor.eval_ms" (ms s.Executor.elapsed_seconds) "ms";
  layer r "Executor.decrypt_ms" (ms decrypt_s) "ms";
  let o = s.Executor.op_counts in
  layer r "Executor.ops.multiplies" (float_of_int o.Executor.multiplies) "count";
  layer r "Executor.ops.relinearizations" (float_of_int o.Executor.relinearizations) "count";
  layer r "Executor.ops.rescales" (float_of_int o.Executor.rescales) "count";
  layer r "Executor.ops.rotations" (float_of_int o.Executor.rotations) "count";
  layer r "Executor.peak_live" (float_of_int s.Executor.peak_live_values) "count";
  layer r "Executor.pt_hits" (float_of_int hits) "count";
  layer r "Executor.pt_misses" (float_of_int misses) "count";
  (* Per-node breakdown from a second, recorded run. *)
  let sn = span "Executor.run_graph" (fun () -> Executor.run_graph ~record_per_node:true e t.c) in
  let types = Analysis.types t.c.Compile.program in
  let nodes = Hashtbl.create 1024 in
  List.iter (fun (n : Ir.node) -> Hashtbl.replace nodes n.Ir.id n) t.c.Compile.program.Ir.all_nodes;
  let by_kind = Hashtbl.create 8 in
  List.iter
    (fun (id, _, secs) ->
      match Option.bind (Hashtbl.find_opt nodes id) (op_kind types) with
      | Some k -> Hashtbl.replace by_kind k (secs +. Option.value (Hashtbl.find_opt by_kind k) ~default:0.0)
      | None -> ())
    sn.Executor.node_seconds;
  let total k = Option.value (Hashtbl.find_opt by_kind k) ~default:0.0 in
  List.iter (fun k -> extra r ("Executor.node." ^ k ^ "_ms") (ms (total k)) "ms") node_kinds;
  List.iter
    (fun (g, ks) -> layer r ("Executor.node." ^ g ^ "_ms") (ms (List.fold_left (fun a k -> a +. total k) 0.0 ks)) "ms")
    node_groups;
  s.Executor.elapsed_seconds

let parallel_probe r t ~sequential_s =
  let i = probe_input + 1 in
  let e = span "Executor.rebind" (fun () -> Executor.rebind ~encrypt_workers:2 t.engine t.c (t.bindings i)) in
  let p = span "Parallel.execute_on" (fun () -> Parallel.execute_on ~workers:2 e t.c) in
  t.check i (Compile.unpack_outputs t.c p.Parallel.outputs);
  let eval_s = p.Parallel.timings.Executor.execute_seconds in
  layer r "Parallel.eval_ms" (ms eval_s) "ms";
  layer r "Parallel.speedup" (sequential_s /. eval_s) "x";
  layer r "Parallel.peak_live" (float_of_int p.Parallel.peak_live_values) "count"

let noise_probe r t =
  let est = span "Noise.estimate" (fun () -> Noise.estimate ~log_n:t.exec_log_n t.c) in
  let predicted = List.fold_left (fun m (_, e) -> Float.max m e.Noise.abs_error) 0.0 est in
  layer r "Noise.predicted_err" predicted "abs";
  layer r "Noise.max_abs_err" r.max_err "abs";
  layer r "Noise.err_ratio" (r.max_err /. predicted) "ratio"

(* Scheme kernels, each timed by calling the public function at the
   workload's own degree and top-level chain. [keys] comes from a timed
   Keys.generate call the caller made ([generate_s]). *)
let kernel_probe ~smoke r ctx ~keys:(secret, (ks : Keys.keyset)) ~generate_s =
  let budget = if smoke then 0.0 else 0.15 and min_reps = if smoke then 1 else 3 in
  let us name f = layer r name (1e6 *. span name (fun () -> time_median ~budget ~min_reps f)) "us" in
  let rng = Random.State.make [| 7 |] in
  let level = Ctx.chain_length ctx in
  let c = Rp.sample_uniform rng ~tables:(Ctx.tables_for_level ctx level) in
  layer r "Keys.generate_s" generate_s "s";
  let w = Rp.copy c in
  us "Ntt.roundtrip_us" (fun () ->
      Rp.to_coeff w;
      Rp.to_ntt w);
  us "Keys.decompose_us" (fun () -> ignore (Keys.decompose ctx ~level c));
  let d = Keys.decompose ctx ~level c and g = Ctx.galois_elt_rotate ctx 1 in
  us "Keys.apply_us" (fun () -> ignore (Keys.apply_decomposed ~galois:g ctx ks.Keys.relin d));
  let v = Array.init (Ctx.slots ctx) (fun _ -> uniform rng) and scale = Float.ldexp 1.0 30 in
  us "Eval.encode_us" (fun () -> ignore (Eval.encode ctx ~level ~scale v));
  let pt = Eval.encode ctx ~level ~scale v in
  us "Eval.encrypt_us" (fun () -> ignore (Eval.encrypt ctx ks rng pt));
  let ct = Eval.encrypt ctx ks rng pt in
  us "Eval.decrypt_us" (fun () -> ignore (Eval.decrypt ctx secret ct));
  us "Eval.rescale_us" (fun () -> ignore (Eval.rescale ctx ct));
  us "Eval.multiply_us" (fun () -> ignore (Eval.multiply ct ct))

let timed_keygen ctx steps =
  let rng = Random.State.make [| 5 |] in
  time (fun () -> span "Keys.generate" (fun () -> Keys.generate ctx rng ~galois_elts:(galois_elts ctx steps)))

(* The kernels' context: the target program's chain at its execution
   degree, with its rotation keys. *)
let target_kernels t =
  let ctx = context_for ~log_n:t.exec_log_n t.c in
  let keys, generate_s = timed_keygen ctx t.c.Compile.params.Params.rotations in
  (ctx, keys, generate_s)

(* Every probe except the daemon's, on a target the caller has already
   compiled and prepared; kernels run in [ctx]. *)
let layer_probes ~smoke r t (ctx, keys, generate_s) =
  let sequential_s = executor_probe r t in
  parallel_probe r t ~sequential_s;
  kernel_probe ~smoke r ctx ~keys ~generate_s

let wire_inputs bindings =
  List.map (function name, Reference.Vec v -> (name, v) | name, Reference.Scal x -> (name, [| x |])) bindings

(* Workloads that do not serve still report the daemon layer: a short
   burst of the target program through a daemon at library defaults. *)
let serve_probe ~smoke r t ~requests =
  let inputs = Array.init requests (fun i -> wire_inputs (t.bindings (probe_input + 10 + i))) in
  let p =
    span "phase.serve_probe" (fun () ->
        drive r ~config:Serve.default_config t.c t.engine Burst ~inputs ~check:(fun i -> t.check (probe_input + 10 + i)))
  in
  serve_layer ~smoke r t.c t.engine [ p ] ~loaded:p ~bindings:t.bindings

(* ------------------------------------------------------------------ *)
(* serve-batched and serve-wide                                        *)
(* ------------------------------------------------------------------ *)

(* The retrieval program of the repository's serve and batch
   experiments: an encrypted query dotted with a plaintext database row. *)
let retrieval vs =
  let b = B.create ~name:"retrieval" ~vec_size:vs () in
  let q = B.input b ~scale:30 "q" in
  let w = B.vector_input b ~scale:30 "w" in
  B.output b "score" ~scale:30 (B.sum_slots b ~span:vs (B.mul q w));
  B.program b

(* The measured requests come in [rounds]: each round is [idle]
   closed-loop requests, then a burst of [burst] back-to-back requests
   drained before the next round. Latency and saturation are each the
   best of several blocks (Harness.fastest_block), and interleaving the
   rounds spreads both over the whole run. *)
type serve_size = {
  vs : int;
  log_n : int;
  rows : int;
  warm : int;
  rounds : int;
  idle : int;
  burst : int;
  open_n : int;
  open_rate : float;
}

let serve_size ~wide m =
  match (wide, m.smoke) with
  | false, true -> { vs = 64; log_n = 9; rows = 8; warm = 2; rounds = 2; idle = 3; burst = 4; open_n = 8; open_rate = 200.0 }
  | true, true -> { vs = 256; log_n = 9; rows = 64; warm = 2; rounds = 2; idle = 3; burst = 6; open_n = 0; open_rate = 0.0 }
  (* Sized on a 2-core host: saturation ~200 req/s, so 100 req/s is about
     half load; 1080 open-loop requests (at 18 s) leave 10 samples beyond
     p99. *)
  | false, false ->
      {
        vs = 64;
        log_n = 11;
        rows = 8;
        warm = 16;
        rounds = 10;
        idle = scaled m 0.5 ~min:10;
        burst = scaled m 6.0 ~min:40;
        open_n = scaled m 60.0 ~min:100;
        open_rate = 100.0;
      }
  (* 2048 distinct rows: four times the 512-entry plaintext cache. *)
  | true, false ->
      {
        vs = 512;
        log_n = 10;
        rows = 2048;
        warm = 8;
        rounds = 10;
        idle = scaled m 1.0 ~min:10;
        burst = scaled m 5.0 ~min:40;
        open_n = 0;
        open_rate = 0.0;
      }

let serve ~wide m =
  let z = serve_size ~wide m in
  let r = report () in
  let st = Random.State.make [| m.seed; 1 |] in
  let db = Array.init z.rows (fun _ -> Array.init z.vs (fun _ -> uniform st)) in
  let gen = Random.State.make [| m.seed; 2 |] in
  let request () = (Array.init z.vs (fun _ -> uniform gen), Random.State.int gen z.rows) in
  let check_request (q, row) outputs =
    let w = db.(row) in
    let dot = ref 0.0 in
    Array.iteri (fun j x -> dot := !dot +. (x *. w.(j))) q;
    match List.assoc_opt "score" outputs with
    | Some got -> Harness.check r ~expected:[| !dot |] ~got
    | None -> fail r
  in
  let max_batch = 8 in
  let lanes = widest_batch ~max_batch ~vs:z.vs ~log_n:z.log_n in
  let setup () =
    let p, build_s = time (fun () -> span "Frontend.build" (fun () -> retrieval z.vs)) in
    let c, compile_s = time (fun () -> span "Compile.run" (fun () -> Compile.run p)) in
    let extra_rotations = if lanes > 1 then Compile.batch_rotations c ~max_lanes:lanes else [] in
    let zero = [ ("q", Reference.Vec (Array.make z.vs 0.0)); ("w", Reference.Vec (Array.make z.vs 0.0)) ] in
    let engine, prepare_s =
      time (fun () ->
          span "Executor.prepare" (fun () ->
              Executor.prepare ~ignore_security:true ~log_n:z.log_n ~encrypt_workers:2 ~extra_rotations c zero))
    in
    (c, engine, build_s, compile_s, prepare_s)
  in
  let c, engine, build_s, compile_s, prepare_s = span "phase.setup" (fun () -> setup_median m r setup) in
  stamp_context r ~log_n:z.log_n ~secure:false c;
  let config =
    { Serve.default_config with Serve.pipeline = 1; queue_depth = 8; max_batch; batch_linger_ms = 2.0 }
  in
  let phase name pattern n =
    let reqs = Array.init n (fun _ -> request ()) in
    let inputs = Array.map (fun (q, row) -> [ ("q", q); ("w", db.(row)) ]) reqs in
    (* Each phase starts from a collected heap, so the garbage of a burst
       is not billed to the idle requests after it. *)
    Gc.full_major ();
    span ("phase." ^ name) (fun () -> drive r ~config c engine pattern ~inputs ~check:(fun i -> check_request reqs.(i)))
  in
  (* Warm-up requests fill the plaintext cache; they are checked but not
     timed. *)
  let warm = phase "warm" Closed z.warm in
  let rounds =
    List.init z.rounds (fun _ ->
        let idle = phase "idle" Closed z.idle in
        (idle, phase "burst" Burst z.burst))
  in
  let idles = List.map fst rounds and bursts = List.map snd rounds in
  let idle_ms = List.concat_map (fun p -> p.lat_ms) idles in
  let opened =
    if z.open_n = 0 then None
    else
      let dues =
        let t = ref 0.0 in
        Array.init z.open_n (fun _ ->
            t := !t -. (Float.log (1.0 -. Random.State.float gen 1.0) /. z.open_rate);
            !t)
      in
      Some (phase "open" (Open dues) z.open_n)
  in
  e2e r "latency_ms" (fastest_block ~size:10 idle_ms) "ms";
  e2e r "throughput_per_s"
    (List.fold_left (fun best b -> Float.max best (float_of_int b.answered /. b.wall)) 0.0 bursts)
    "1/s";
  extra r "idle.p50_ms" (median idle_ms) "ms";
  extra r "idle.p90_ms" (percentile 0.9 idle_ms) "ms";
  extra r "burst.p50_ms" (median (List.concat_map (fun b -> b.lat_ms) bursts)) "ms";
  extra r "burst.batch_mean" (batch_mean bursts) "requests";
  Option.iter
    (fun o ->
      extra r "open.rate_per_s" z.open_rate "1/s";
      extra r "open.requests" (float_of_int z.open_n) "count";
      extra r "open.p50_ms" (median o.lat_ms) "ms";
      extra r "open.p99_ms" (percentile 0.99 o.lat_ms) "ms";
      extra r "open.gen_late_p99_ms" (percentile 0.99 o.late_ms) "ms";
      extra r "open.batch_mean" (batch_mean [ o ]) "requests")
    opened;
  if m.traced then begin
    let phases = (warm :: idles) @ bursts @ Option.to_list opened in
    layer r "Frontend.build_s" build_s "s";
    layer r "Compile.run_s" compile_s "s";
    layer r "Executor.prepare_s" prepare_s "s";
    layer r "Executor.keygen_s" (Executor.engine_context_seconds engine) "s";
    compile_layer r [ summarize c ];
    params_layer r c.Compile.params;
    let probe_request = memo (fun _ -> request ()) in
    let bindings i =
      let q, row = probe_request i in
      [ ("q", Reference.Vec q); ("w", Reference.Vec db.(row)) ]
    in
    let t = { c; engine; exec_log_n = z.log_n; bindings; check = (fun i -> check_request (probe_request i)) } in
    span "phase.probes" (fun () ->
        serve_layer ~smoke:m.smoke r c engine phases ~loaded:(Option.value opened ~default:(List.hd bursts)) ~bindings;
        (* The daemon shared this engine's cache: its counters are the
           serving path's, not the probe's fresh one. *)
        let hits, misses = Executor.pt_cache_counters engine in
        layer_probes ~smoke:m.smoke r t (target_kernels t);
        layer r "Executor.pt_hits" (float_of_int hits) "count";
        layer r "Executor.pt_misses" (float_of_int misses) "count";
        noise_probe r t)
  end;
  r

(* ------------------------------------------------------------------ *)
(* lenet-infer                                                         *)
(* ------------------------------------------------------------------ *)

(* Smoke size: one conv and one FC layer of the same kernels. *)
let toy_lenet =
  {
    N.net_name = "toy-LeNet";
    input_channels = 1;
    input_height = 8;
    input_width = 8;
    layers = [ N.Conv { out_channels = 2; kernel = 3; stride = 1 }; N.Square; N.Avg_pool 2; N.Fc 4; N.Square ];
  }

let lenet m =
  let net = if m.smoke then toy_lenet else Nets.mini_lenet in
  let log_n = if m.smoke then 9 else 10 in
  let pairs = if m.smoke then 1 else scaled m 0.55 ~min:3 in
  let r = report () in
  let weights = N.random_weights net ~seed:m.seed in
  let st = Random.State.make [| m.seed; 3 |] in
  let size = net.N.input_channels * net.N.input_height * net.N.input_width in
  let image =
    memo (fun _ ->
        let x = Array.init size (fun _ -> uniform st) in
        (x, span "Reference.infer_plain" (fun () -> N.infer_plain net weights x)))
  in
  let setup () =
    let lowered, lower_s =
      time (fun () -> span "Network.lower" (fun () -> N.lower ~mode:`Eva ~scales:(Nets.scales_for net) net weights))
    in
    let c, compile_s = time (fun () -> span "Compile.run" (fun () -> Compile.run lowered.N.program)) in
    let engine, prepare_s =
      time (fun () ->
          span "Executor.prepare" (fun () ->
              Executor.prepare ~ignore_security:true ~log_n ~encrypt_workers:2 c (N.bindings lowered (fst (image 0)))))
    in
    (lowered, c, engine, lower_s, compile_s, prepare_s)
  in
  let lowered, c, engine, lower_s, compile_s, prepare_s = span "phase.setup" (fun () -> setup_median m r setup) in
  stamp_context r ~log_n ~secure:false c;
  let check i outputs =
    let enc = span "Network.read_outputs" (fun () -> N.read_outputs lowered outputs) in
    Harness.check r ~expected:(snd (image i)) ~got:enc
  in
  (* One inference: rebind + evaluate + decrypt + reassemble. *)
  let infer ~parallel i =
    let x, _ = image i in
    let enc, secs =
      time (fun () ->
          let e =
            span "Executor.rebind" (fun () -> Executor.rebind ~encrypt_workers:2 engine c (N.bindings lowered x))
          in
          let outs =
            if parallel then (span "Parallel.execute_on" (fun () -> Parallel.execute_on ~workers:2 e c)).Parallel.outputs
            else
              let s = span "Executor.run_graph" (fun () -> Executor.run_graph e c) in
              span "Executor.read_output" (fun () -> decrypt_outputs e s)
          in
          span "Network.read_outputs" (fun () -> N.read_outputs lowered (Compile.unpack_outputs c outs)))
    in
    Harness.check r ~expected:(snd (image i)) ~got:enc;
    secs
  in
  if not m.smoke then ignore (span "phase.warm" (fun () -> infer ~parallel:false 1));
  (* Sequential and 2-worker inferences alternate, so both see the whole
     run's share of co-tenant load. *)
  let seq, par =
    List.split
      (List.init pairs (fun k ->
           let s = span "phase.seq" (fun () -> infer ~parallel:false (2 + (2 * k))) in
           (s, span "phase.w2" (fun () -> infer ~parallel:true (3 + (2 * k))))))
  in
  e2e r "latency_ms" (ms (fastest_block ~size:1 seq)) "ms";
  e2e r "throughput_per_s" (1.0 /. fastest_block ~size:1 par) "1/s";
  extra r "infer_s" (median seq) "s";
  extra r "infer_w2_s" (median par) "s";
  if m.traced then begin
    layer r "Frontend.build_s" lower_s "s";
    layer r "Compile.run_s" compile_s "s";
    layer r "Executor.prepare_s" prepare_s "s";
    layer r "Executor.keygen_s" (Executor.engine_context_seconds engine) "s";
    compile_layer r [ summarize c ];
    params_layer r c.Compile.params;
    let t = { c; engine; exec_log_n = log_n; bindings = (fun i -> N.bindings lowered (fst (image i))); check } in
    span "phase.probes" (fun () ->
        layer_probes ~smoke:m.smoke r t (target_kernels t);
        serve_probe ~smoke:m.smoke r t ~requests:(if m.smoke then 1 else 3);
        noise_probe r t)
  end;
  r

(* ------------------------------------------------------------------ *)
(* compile-nets                                                        *)
(* ------------------------------------------------------------------ *)

(* The scalar-shaped programs of the repository's vectorize experiment:
   a k-element dot product and a per-element polynomial, one ciphertext
   per element before auto-vectorization packs them. *)
let scalar_dot k =
  let b = B.create ~name:(Printf.sprintf "dot%d" k) ~vec_size:1 () in
  let term i = B.mul (B.input b ~scale:30 (Printf.sprintf "x%d" i)) (B.input b ~scale:30 (Printf.sprintf "y%d" i)) in
  B.output b "dot" ~scale:30 (List.fold_left B.add (term 0) (List.init (k - 1) (fun i -> term (i + 1))));
  B.program b

let scalar_poly m =
  let b = B.create ~name:(Printf.sprintf "poly%d" m) ~vec_size:1 () in
  let half = B.const_scalar b ~scale:30 0.5 in
  List.iteri
    (fun i x -> B.output b (Printf.sprintf "y%d" i) ~scale:30 (B.add (B.mul (B.mul x x) half) x))
    (List.init m (fun i -> B.input b ~scale:30 (Printf.sprintf "x%d" i)));
  B.program b

type source = Net of N.t | Scalar of string * (unit -> Ir.program)

let source_name = function Net n -> n.N.net_name | Scalar (name, _) -> name

let compile_nets m =
  let r = report () in
  let sources =
    if m.smoke then [ Net Nets.lenet5_small; Scalar ("dot64", fun () -> scalar_dot 64) ]
    else
      List.map (fun n -> Net n) Nets.all
      @ [ Scalar ("dot64", fun () -> scalar_dot 64); Scalar ("poly16", fun () -> scalar_poly 16) ]
  in
  let weights = List.filter_map (function Net n -> Some (n.N.net_name, N.random_weights n ~seed:m.seed) | _ -> None) sources in
  let frontend = function
    | Net n ->
        span "Network.lower" (fun () ->
            (N.lower ~mode:`Eva ~scales:(Nets.scales_for n) n (List.assoc n.N.net_name weights)).N.program)
    | Scalar (_, build) -> span "Frontend.build" build
  in
  (* Set-up: program in hand to ready to answer for LeNet-5-small at its
     selected secure parameters, with the relinearization key and two
     Galois keys (the paper's Table 7 protocol). *)
  let setup () =
    let p = frontend (Net Nets.lenet5_small) in
    let c = span "Compile.run" (fun () -> Compile.run p) in
    let params = c.Compile.params in
    let log_n = if m.smoke then 9 else params.Params.log_n in
    let ctx =
      span "Context.make" (fun () ->
          Ctx.make ~ignore_security:m.smoke ~n:(1 lsl log_n) ~data_bits:params.Params.context_data_bits
            ~special_bits:params.Params.special_bits ())
    in
    let keys, generate_s = timed_keygen ctx (List.filteri (fun i _ -> i < 2) params.Params.rotations) in
    (c, ctx, log_n, keys, generate_s)
  in
  let lenet_c, ctx, setup_log_n, keys, generate_s = span "phase.setup" (fun () -> setup_median m r setup) in
  stamp_context r ~log_n:setup_log_n ~secure:(not m.smoke) lenet_c;
  (* Every program compiles at least twice, and again while it has spent
     less than a sixteenth of the budget (at most 30 times), in
     interleaved passes: each program's fastest compile is then taken
     over as many samples as the budget allows. The two compiles of
     SqueezeNet-CIFAR (about 5 s each) are half the budget; LeNet-5-small
     gets about ten. *)
  let share = m.budget /. 16.0 and fewest = if m.smoke then 1 else 2 in
  let results = Hashtbl.create 64 and attempts = Hashtbl.create 8 and broken = Hashtbl.create 2 in
  (* From each program's first compile: its summary, and the scalar
     programs themselves (which run below). *)
  let summaries = Hashtbl.create 8 and scalars = Hashtbl.create 2 in
  let samples name = Hashtbl.find_all results name in
  let compile_once src =
    let name = source_name src in
    Hashtbl.replace attempts name (1 + Option.value (Hashtbl.find_opt attempts name) ~default:0);
    (* Every compile starts from a collected heap, so one program's
       garbage is not billed to the next. *)
    Gc.full_major ();
    match
      let p, front_s = time (fun () -> frontend src) in
      let c, compile_s = time (fun () -> span "Compile.run" (fun () -> Compile.run p)) in
      (p, c, front_s, compile_s)
    with
    | p, c, front_s, compile_s ->
        r.attempted <- r.attempted + 1;
        Hashtbl.add results name (front_s, compile_s);
        if not (Hashtbl.mem summaries name) then begin
          Hashtbl.replace summaries name (summarize c);
          match src with Scalar _ -> Hashtbl.replace scalars name (p, c) | Net _ -> ()
        end
    | exception e ->
        Printf.eprintf "compile of %s failed: %s\n%!" name (Printexc.to_string e);
        Hashtbl.replace broken name ();
        fail r
  in
  let wanted src =
    let name = source_name src in
    let k = Option.value (Hashtbl.find_opt attempts name) ~default:0 in
    let spent = List.fold_left (fun acc (a, b) -> acc +. a +. b) 0.0 (samples name) in
    (not (Hashtbl.mem broken name)) && (k < fewest || ((not m.smoke) && k < 30 && spent < share))
  in
  let rec passes () =
    match List.filter wanted sources with
    | [] -> ()
    | todo ->
        span "phase.pass" (fun () -> List.iter compile_once todo);
        passes ()
  in
  passes ();
  let names = List.filter (fun n -> samples n <> []) (List.map source_name sources) in
  let fastest name f = fastest_block ~size:1 (List.map f (samples name)) in
  let total f = List.fold_left (fun acc name -> acc +. fastest name f) 0.0 names in
  (* The suite's typical program: the geometric mean of the programs'
     fastest lower + compile times, so each program weighs the same and a
     ratio between two commits is the geometric mean of the per-program
     ratios. *)
  let typical = geomean (List.map (fun name -> fastest name (fun (a, b) -> a +. b)) names) in
  e2e r "latency_ms" (ms typical) "ms";
  e2e r "throughput_per_s" (1.0 /. typical) "1/s";
  extra r "suite_ms" (ms (total (fun (a, b) -> a +. b))) "ms";
  List.iter
    (fun name ->
      extra r ("compile_ms." ^ name) (ms (fastest name (fun (a, b) -> a +. b))) "ms";
      extra r ("compiles." ^ name) (float_of_int (List.length (samples name))) "count")
    names;
  (* The compiler's output is checked by running the scalar programs
     (small enough to execute) against the reference interpreter. *)
  let exec_log_n = if m.smoke then 9 else 10 in
  let st = Random.State.make [| m.seed; 4 |] in
  let target name =
    let p, c = Hashtbl.find scalars name in
    let inputs = List.sort (fun (a : Ir.node) b -> compare a.Ir.id b.Ir.id) (Ir.inputs p) in
    let bindings =
      memo (fun _ ->
          List.filter_map
            (fun (n : Ir.node) ->
              match n.Ir.op with Ir.Input (_, x) -> Some (x, Reference.Scal (uniform st)) | _ -> None)
            inputs)
    in
    let check i outputs =
      let expected = span "Reference.execute" (fun () -> Reference.execute p (bindings i)) in
      match List.map (fun (o, e) -> (e.(0), (List.assoc o outputs).(0))) expected with
      | pairs -> Harness.check r ~expected:(Array.of_list (List.map fst pairs)) ~got:(Array.of_list (List.map snd pairs))
      | exception Not_found -> fail r
    in
    let engine =
      span "Executor.prepare" (fun () ->
          Executor.prepare ~ignore_security:true ~log_n:exec_log_n ~encrypt_workers:2 c (bindings 0))
    in
    { c; engine; exec_log_n; bindings; check }
  in
  let runs = if m.smoke then 1 else 4 in
  let targets = List.filter_map (fun n -> if Hashtbl.mem scalars n then Some (n, target n) else None) names in
  span "phase.check" (fun () ->
      List.iter
        (fun (_, t) ->
          for i = 1 to runs do
            let e = Executor.rebind ~encrypt_workers:2 t.engine t.c (t.bindings i) in
            let s = Executor.run_graph e t.c in
            t.check i (Compile.unpack_outputs t.c (decrypt_outputs e s))
          done)
        targets);
  if m.traced then begin
    layer r "Frontend.build_s" (total fst) "s";
    layer r "Compile.run_s" (total snd) "s";
    compile_layer r (List.filter_map (Hashtbl.find_opt summaries) names);
    params_layer r lenet_c.Compile.params;
    Hashtbl.iter
      (fun name sm ->
        params_layer ~suffix:("." ^ name) r sm.params;
        extra r ("Compile.nodes." ^ name) (float_of_int sm.nodes) "count";
        extra r ("Compile.vectorized." ^ name) (if sm.vectorized then 1.0 else 0.0) "count";
        extra r ("Compile.run_s." ^ name) (fastest name snd) "s")
      summaries;
    let t = List.assoc "dot64" targets in
    span "phase.probes" (fun () ->
        layer r "Executor.prepare_s" (Executor.engine_context_seconds t.engine +. Executor.engine_encrypt_seconds t.engine) "s";
        layer r "Executor.keygen_s" (Executor.engine_context_seconds t.engine) "s";
        (* Kernels at LeNet-5-small's secure degree, where set-up pays. *)
        layer_probes ~smoke:m.smoke r t (ctx, keys, generate_s);
        serve_probe ~smoke:m.smoke r t ~requests:(if m.smoke then 4 else 16);
        noise_probe r t)
  end;
  r

(* Domains a workload keeps busy at once: the generator plus one daemon
   worker, or the two workers of the parallel executor (and the two
   encrypt workers of a rebind). The kernel pool adds its lanes beyond
   the caller's. *)
let busy_domains = 2

type workload = { name : string; run : mode -> report }

let all =
  [
    { name = "serve-batched"; run = serve ~wide:false };
    { name = "serve-wide"; run = serve ~wide:true };
    { name = "lenet-infer"; run = lenet };
    { name = "compile-nets"; run = compile_nets };
  ]
