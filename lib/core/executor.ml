module Ctx = Eva_ckks.Context
module Keys = Eva_ckks.Keys
module Eval = Eva_ckks.Eval
module Diag = Eva_diag.Diag

type op_counts = {
  multiplies : int;
  relinearizations : int;
  rescales : int;
  rotations : int;
}

let zero_op_counts = { multiplies = 0; relinearizations = 0; rescales = 0; rotations = 0 }

(* Count only ciphertext results: the same opcode over a Plain operand is
   a semantic passthrough, not an FHE kernel invocation. *)
let count_ct_op op c =
  match op with
  | Ir.Multiply -> { c with multiplies = c.multiplies + 1 }
  | Ir.Relinearize -> { c with relinearizations = c.relinearizations + 1 }
  | Ir.Rescale _ -> { c with rescales = c.rescales + 1 }
  | Ir.Rotate_left _ | Ir.Rotate_right _ -> { c with rotations = c.rotations + 1 }
  | _ -> c

type timings = {
  context_seconds : float;
  encrypt_seconds : float;
  execute_seconds : float;
  decrypt_seconds : float;
  per_node : (int * Ir.op * float) list;
  pt_cache_hits : int;
  pt_cache_misses : int;
  op_counts : op_counts;
}

type result = { outputs : (string * float array) list; timings : timings }

type value = Ct of Eval.ciphertext | Plain of float array

(* One cached encoding. [referenced] is the CLOCK bit: set on every hit,
   cleared when the eviction hand sweeps past — an entry is only evicted
   after surviving a full sweep untouched, so a hot working set is never
   dropped by a cold stream (second-chance eviction). *)
type pt_entry = { plain : float array; pt : Eval.plaintext; mutable referenced : bool }

(* The cache is engine state: [keygen] creates it and every engine bound
   from it shares it, so each constant is encoded once per (level, scale)
   for the engine's whole life and the counters run since keygen. All
   fields are guarded by [lock]. *)
type pt_cache = {
  table : (int * int * float, pt_entry list) Hashtbl.t;
  clock : ((int * int * float) * pt_entry) Queue.t;  (** every entry once, in CLOCK-hand order *)
  mutable hits : int;
  mutable misses : int;
  lock : Mutex.t;
}

type engine = {
  ctx : Ctx.t;
  secret : Keys.secret;
  keyset : Keys.keyset;
  rng : Random.State.t;
  vec_size : int;
  node_scales : (int, int) Hashtbl.t;
  pt_cache : pt_cache;
  inputs : (int * value) list;
  context_seconds : float;
  encrypt_seconds : float;
}

let now = Unix.gettimeofday

(* Resolve the binding list against the program's input set up front,
   reporting EVERY missing name in one error rather than dying on the
   first: a user fixing a long binding list gets the whole picture. *)
let binding_fn p bindings =
  let input_names =
    List.filter_map
      (fun n -> match n.Ir.op with Ir.Input (_, name) -> Some name | _ -> None)
      p.Ir.all_nodes
  in
  let missing =
    List.sort_uniq compare
      (List.filter (fun name -> not (List.mem_assoc name bindings)) input_names)
  in
  (match missing with
  | [] -> ()
  | _ ->
      Diag.error ~layer:Diag.Execute ~code:Diag.exec_missing_inputs "missing input binding%s %s"
        (if List.length missing > 1 then "s" else "")
        (String.concat ", " (List.map (Printf.sprintf "%S") missing)));
  fun name -> List.assoc name bindings

let plain_of_binding vs = function
  | Reference.Vec v -> Reference.tile vs v
  | Reference.Scal s -> Array.make vs s

(* Auto-vectorization shim: callers keep binding the source program's
   per-element names; packed inputs are synthesized block by block just
   before encryption ({!Vectorize.pack_bindings}). Identity for
   programs the pass left alone. *)
let shim compiled bindings =
  match compiled.Compile.packing with
  | None -> bindings
  | Some pk -> Vectorize.pack_bindings pk bindings

(* Slot-batching layout helpers: lane [b] of a B-lane batch owns the
   strided slot set {i*B + b}. [interleave] packs per-lane vectors into
   one full-width vector; [extract_lane] is its inverse for one lane. *)
let interleave lanes =
  let b = Array.length lanes in
  if b = 0 then invalid_arg "Executor.interleave: no lanes";
  let n = Array.length lanes.(0) in
  let out = Array.make (b * n) 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to b - 1 do
      out.((i * b) + j) <- lanes.(j).(i)
    done
  done;
  out

let extract_lane ~lanes ~lane v =
  if lane < 0 || lane >= lanes || Array.length v mod lanes <> 0 then
    invalid_arg "Executor.extract_lane";
  Array.init (Array.length v / lanes) (fun i -> v.((i * lanes) + lane))

(* Encode + encrypt the bound inputs. [value_of name] gives the input's
   full-width slot vector (lane-interleaved when batched): cipher inputs
   encode and encrypt it at the top level, plain inputs carry it as is.
   Each Cipher input splits a private stream from [rng] up front
   (sequentially, so results are independent of [workers]), then the
   per-input work runs on [workers] domains (default: the recommended
   domain count). Returns the inputs and the seconds spent. *)
let encrypt_inputs ?workers ctx keyset rng ~value_of all_nodes =
  let workers = Option.value workers ~default:(Domain.recommended_domain_count ()) in
  let top_level = Ctx.chain_length ctx in
  let t0 = now () in
  let jobs =
    List.filter_map
      (fun n ->
        match n.Ir.op with
        | Ir.Input (Ir.Cipher, name) ->
            Some (n, name, Some (Random.State.split rng))
        | Ir.Input (_, name) -> Some (n, name, None)
        | _ -> None)
      (List.rev all_nodes)
  in
  let inputs =
    Eva_ckks.Fanout.map ~workers
      (fun (n, name, child) ->
        let v = value_of name in
        match child with
        | Some child_rng ->
            let pt = Eval.encode ctx ~level:top_level ~scale:(Float.ldexp 1.0 n.Ir.decl_scale) v in
            (n.Ir.id, Ct (Eval.encrypt ctx keyset child_rng pt))
        | None -> (n.Ir.id, Plain v))
      jobs
  in
  (inputs, now () -. t0)

(* The one input binder behind [prepare], [rebind] and [rebind_batched].
   It re-aims [e] at [compiled] (its vector width and scale table; same
   context, keys and plaintext cache), resolves every member's bindings
   up front (each member's missing inputs raise EVA-E501 before any
   encryption work), then encrypts with [rng]:
   member [b] fills lane [b] of the program's [lanes] interleaved lanes
   (vectors tiled or zero-padded to the lane width, scalars broadcast)
   and lanes beyond the members are zero. An unbatched program has one
   lane spanning the whole vector. *)
let bind ?workers ~rng e compiled members =
  let members = Array.map (shim compiled) members in
  let p = compiled.Compile.program in
  let vs = p.Ir.vec_size in
  let lanes = compiled.Compile.lanes in
  let live = Array.length members in
  if live = 0 || live > lanes then
    Diag.error ~layer:Diag.Execute ~code:Diag.exec_config "Executor: %d members for %d lanes" live
      lanes;
  if Ctx.slots e.ctx < vs then
    Diag.error ~layer:Diag.Execute ~code:Diag.exec_config
      "Executor: degree %d gives %d slots, too small for vector size %d" (Ctx.degree e.ctx)
      (Ctx.slots e.ctx) vs;
  let binding_fns = Array.map (binding_fn p) members in
  let lane_size = vs / lanes in
  let dead_lane = lazy (Array.make lane_size 0.0) in
  let value_of name =
    interleave
      (Array.init lanes (fun b ->
           if b < live then plain_of_binding lane_size (binding_fns.(b) name)
           else Lazy.force dead_lane))
  in
  let inputs, encrypt_seconds = encrypt_inputs ?workers e.ctx e.keyset rng ~value_of p.Ir.all_nodes in
  { e with vec_size = vs; node_scales = Analysis.scales p; inputs; encrypt_seconds }

let keygen ?(seed = 1) ?(ignore_security = false) ?log_n ?(extra_rotations = []) compiled =
  let vs = compiled.Compile.program.Ir.vec_size in
  let params = compiled.Compile.params in
  let log_n = Option.value log_n ~default:params.Params.log_n in
  let rng = Random.State.make [| seed |] in
  let t0 = now () in
  let ctx =
    Ctx.make ~ignore_security ~n:(1 lsl log_n) ~data_bits:params.Params.context_data_bits
      ~special_bits:params.Params.special_bits ()
  in
  (* Ciphertexts are periodic in vec_size (inputs replicate), so any
     rotation step congruent mod vec_size acts identically; keys are
     generated for the same left-normalized steps the evaluator uses. *)
  let kd = params.Params.key_depths in
  let base =
    List.map (fun (step, d) -> (Ctx.galois_elt_rotate ctx (((step mod vs) + vs) mod vs), d)) kd.Params.rotation_depths
  in
  let galois_elts = List.map fst base in
  (* [extra_rotations] are slot-space steps (already lane-normalized by
     e.g. {!Compile.batch_rotations}); they must not be re-reduced modulo
     this program's narrower vec_size. Appended after the base list so a
     caller passing none gets a bit-identical keyset. *)
  let extra_elts = List.sort_uniq compare (List.map (Ctx.galois_elt_rotate ctx) extra_rotations) in
  let galois_elts = galois_elts @ List.filter (fun g -> not (List.mem g galois_elts)) extra_elts in
  (* Each key is cut to the deepest level the program uses it at. Extra
     steps carry no level, so their keys (shared ones included) keep the
     full chain. *)
  let depths =
    {
      Keys.relin_depth = kd.Params.relin_depth;
      galois_depths = base @ List.map (fun g -> (g, Ctx.chain_length ctx)) extra_elts;
    }
  in
  let secret, keyset = Keys.generate ~depths ctx rng ~galois_elts in
  {
    ctx;
    secret;
    keyset;
    rng;
    vec_size = vs;
    node_scales = Hashtbl.create 0;
    pt_cache = { table = Hashtbl.create 32; clock = Queue.create (); hits = 0; misses = 0; lock = Mutex.create () };
    inputs = [];
    context_seconds = now () -. t0;
    encrypt_seconds = 0.0;
  }

(* Binding draws from the RNG that keygen left off, so a prepared
   engine's ciphertexts are a function of the seed alone. *)
let prepare ?seed ?ignore_security ?log_n ?encrypt_workers ?extra_rotations compiled bindings =
  let e = keygen ?seed ?ignore_security ?log_n ?extra_rotations compiled in
  bind ?workers:encrypt_workers ~rng:e.rng e compiled [| bindings |]

let engine_context_seconds e = e.context_seconds
let engine_encrypt_seconds e = e.encrypt_seconds
let engine_degree e = Ctx.degree e.ctx

(* With [seed] the fresh inputs are a pure function of (seed, bindings):
   the engine's own RNG is not consulted, so concurrent rebinds from a
   serving loop produce ciphertexts independent of interleaving. *)
let rebind ?seed ?encrypt_workers e compiled bindings =
  let rng = match seed with Some s -> Random.State.make [| s |] | None -> e.rng in
  bind ?workers:encrypt_workers ~rng e compiled [| bindings |]

let rebind_batched ?encrypt_workers ~seeds e compiled members =
  if Array.length seeds <> Array.length members then
    Diag.error ~layer:Diag.Execute ~code:Diag.exec_config
      "Executor.rebind_batched: %d seeds for %d members" (Array.length seeds) (Array.length members);
  bind ?workers:encrypt_workers ~rng:(Random.State.make seeds) e compiled members

(* Slot-space rotation steps of [compiled], with the depth it uses each
   at, whose Galois key the engine lacks or holds too shallow: non-empty
   means [prepare] was not given the [extra_rotations] this (typically
   batched) variant needs. *)
let missing_rotations e compiled =
  List.filter
    (fun (step, depth) ->
      match Keys.find_galois e.keyset (Ctx.galois_elt_rotate e.ctx step) with
      | None -> true
      | Some key -> Keys.switch_key_depth key < depth)
    (Compile.slot_rotation_depths compiled)

let key_footprint e = Keys.footprint e.ctx e.keyset

(* The encoding cache is keyed by plaintext *content* — the same mask
   vector reaching the executor through different IR nodes (BSGS kernels
   re-emit identical diagonal masks per block) encodes once. Hash
   collisions are resolved by a bitwise compare of the slot values
   (Int64 bit patterns, so NaN payloads and -0.0 are distinguished and
   float [=] pitfalls avoided). Bounded at [pt_cache_capacity] entries
   by second-chance (CLOCK) eviction: the hand walks insertion order,
   giving every entry whose referenced bit is set one more lap before it
   is eligible, so a stream of cold one-shot encodes evicts itself while
   the hot working set stays resident — a long-running server never
   oscillates between warm and stone-cold. *)
let pt_cache_capacity = 512

let digest_floats (a : float array) =
  let h = ref (5381 + Array.length a) in
  for i = 0 to Array.length a - 1 do
    let b = Int64.to_int (Int64.bits_of_float (Array.unsafe_get a i)) in
    h := ((!h lsl 5) + !h) lxor b
  done;
  !h land max_int

let floats_bitwise_equal a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  for i = 0 to Array.length a - 1 do
    if Int64.bits_of_float a.(i) <> Int64.bits_of_float b.(i) then ok := false
  done;
  !ok

let pt_cache_counters e =
  let c = e.pt_cache in
  Mutex.protect c.lock (fun () -> (c.hits, c.misses))

(* Evict exactly one entry under the cache lock. The hand pops the
   oldest entry: a set referenced bit buys it one more lap (cleared,
   re-queued); a clear bit evicts it from its bucket. One pass over the
   queue suffices — after every bit is cleared the next pop evicts — so
   the loop is bounded by the queue length plus one. *)
let evict_one c =
  let rec hand budget =
    match Queue.take_opt c.clock with
    | None -> ()
    | Some (key, entry) ->
        if entry.referenced && budget > 0 then begin
          entry.referenced <- false;
          Queue.add (key, entry) c.clock;
          hand (budget - 1)
        end
        else begin
          let bucket = List.filter (fun e' -> e' != entry) (Option.value (Hashtbl.find_opt c.table key) ~default:[]) in
          if bucket = [] then Hashtbl.remove c.table key else Hashtbl.replace c.table key bucket
        end
  in
  hand (Queue.length c.clock)

(* One locked lookup-and-insert: one hit or one miss per lookup, and a
   miss encodes under the lock, so one content is never encoded twice. *)
let encode_cached e plain ~level ~scale =
  let c = e.pt_cache in
  let key = (digest_floats plain, level, scale) in
  Mutex.protect c.lock (fun () ->
      let bucket = Option.value (Hashtbl.find_opt c.table key) ~default:[] in
      match List.find_opt (fun e' -> floats_bitwise_equal e'.plain plain) bucket with
      | Some entry ->
          c.hits <- c.hits + 1;
          entry.referenced <- true;
          entry.pt
      | None ->
          c.misses <- c.misses + 1;
          let pt = Eval.encode e.ctx ~level ~scale plain in
          if Queue.length c.clock >= pt_cache_capacity then evict_one c;
          let entry = { plain = Array.copy plain; pt; referenced = false } in
          (* Re-read the bucket: the eviction above may have shrunk it. *)
          Hashtbl.replace c.table key (entry :: Option.value (Hashtbl.find_opt c.table key) ~default:[]);
          Queue.add (key, entry) c.clock;
          pt)

let scale_of e n = Float.ldexp 1.0 (Hashtbl.find e.node_scales n.Ir.id)

(* Ciphertext arms only: a node whose operands are all plaintext takes
   the reference semantics ([Reference.eval_op]) verbatim, so the two
   can never drift. *)
let eval_node e n parents =
  let vs = e.vec_size in
  let rotate_ct ct k =
    let k = ((k mod vs) + vs) mod vs in
    Eval.rotate e.ctx e.keyset ct k
  in
  match (n.Ir.op, parents) with
  | Ir.Input _, _ -> invalid_arg "Executor.eval_node: inputs are prepared, not evaluated"
  | Ir.Negate, [ Ct a ] -> Ct (Eval.negate a)
  | Ir.Add, [ Ct a; Ct b ] -> Ct (Eval.add a b)
  | Ir.Add, [ Ct a; Plain p ] -> Ct (Eval.add_plain a (encode_cached e p ~level:a.Eval.level ~scale:a.Eval.scale))
  | Ir.Add, [ Plain p; Ct b ] -> Ct (Eval.add_plain b (encode_cached e p ~level:b.Eval.level ~scale:b.Eval.scale))
  | Ir.Sub, [ Ct a; Ct b ] -> Ct (Eval.sub a b)
  | Ir.Sub, [ Ct a; Plain p ] -> Ct (Eval.sub_plain a (encode_cached e p ~level:a.Eval.level ~scale:a.Eval.scale))
  | Ir.Sub, [ Plain p; Ct b ] ->
      Ct (Eval.negate (Eval.sub_plain b (encode_cached e p ~level:b.Eval.level ~scale:b.Eval.scale)))
  | Ir.Multiply, [ Ct a; Ct b ] -> Ct (Eval.multiply a b)
  | Ir.Multiply, [ Ct a; Plain p ] ->
      Ct (Eval.multiply_plain a (encode_cached e p ~level:a.Eval.level ~scale:(scale_of e n.Ir.parms.(1))))
  | Ir.Multiply, [ Plain p; Ct b ] ->
      Ct (Eval.multiply_plain b (encode_cached e p ~level:b.Eval.level ~scale:(scale_of e n.Ir.parms.(0))))
  | Ir.Rotate_left k, [ Ct a ] -> Ct (rotate_ct a k)
  | Ir.Rotate_right k, [ Ct a ] -> Ct (rotate_ct a (-k))
  | Ir.Relinearize, [ Ct a ] -> Ct (Eval.relinearize e.ctx e.keyset a)
  | Ir.Mod_switch, [ Ct a ] -> Ct (Eval.mod_switch e.ctx a)
  | Ir.Rescale k, [ Ct a ] ->
      let elem = a.Eval.level - 1 in
      let bits = Float.log2 (Ctx.element_value e.ctx elem) in
      if Float.abs (bits -. float_of_int k) > 1.0 then
        Diag.error ~node_id:n.Ir.id ~op:(Ir.op_name n.Ir.op) ~layer:Diag.Execute
          ~code:Diag.exec_rescale_mismatch
          "rescale by 2^%d but the next chain element has %.2f bits" k bits;
      (* Paper footnote 1: the message is divided by the exact prime
         product but the tracked scale by 2^k, so paths reconciled by
         MODSWITCH (which leaves scales untouched) still match. The
         residual distortion is part of the CKKS approximation. *)
      let ct' = Eval.rescale e.ctx a in
      Ct { ct' with Eval.scale = a.Eval.scale /. Float.ldexp 1.0 k }
  | Ir.Output _, [ (Ct _ as v) ] -> v
  | op, _ -> (
      match List.filter_map (function Plain a -> Some a | Ct _ -> None) parents with
      | plains when List.compare_lengths plains parents = 0 -> Plain (Reference.eval_op vs op plains)
      | _ ->
          let kind = function Ct _ -> "cipher" | Plain _ -> "plain" in
          Diag.error ~node_id:n.Ir.id ~op:(Ir.op_name op) ~layer:Diag.Execute
            ~code:Diag.exec_bad_operands "bad operands (%s) for %s"
            (String.concat ", " (List.map kind parents))
            (Ir.op_name op))

(* Evaluate a RotateMany hoist group as one unit: digit-decompose the
   shared source once and apply every member's Galois key to the cached
   decomposition (Eval.rotate_hoisted). Each output is returned under
   its own member node, in member order, so callers publish them under
   the original ids — downstream consumers never see the grouping. The
   step normalization matches [eval_node]'s rotate path exactly, keeping
   grouped and ungrouped execution bit-identical. *)
let eval_rotation_group e g src =
  let vs = e.vec_size in
  let members = g.Optimize.hoist_rotations in
  match src with
  | Plain _ -> List.map (fun m -> (m, eval_node e m [ src ])) members
  | Ct a ->
      let step_of m =
        match m.Ir.op with
        | Ir.Rotate_left k -> ((k mod vs) + vs) mod vs
        | Ir.Rotate_right k -> ((-k mod vs) + vs) mod vs
        | _ -> invalid_arg "Executor.eval_rotation_group: member is not a rotation"
      in
      let cts = Eval.rotate_hoisted e.ctx e.keyset a (List.map step_of members) in
      List.map2 (fun m ct -> (m, Ct ct)) members cts

(* Anchor a failure that surfaced while evaluating [n] to that node:
   already-classified errors keep their code and gain the node context;
   foreign exceptions are wrapped as EVA-E507. *)
let node_failure n e =
  let op = Ir.op_name n.Ir.op in
  match Diag.classify e with
  | Some d ->
      Diag.Error
        {
          d with
          Diag.node_id = Some (Option.value d.Diag.node_id ~default:n.Ir.id);
          op = Some (Option.value d.Diag.op ~default:op);
        }
  | None ->
      Diag.Error
        (Diag.make ~node_id:n.Ir.id ~op ~layer:Diag.Execute ~code:Diag.exec_node_failed
           (Printexc.to_string e))

let read_output e = function
  | Plain a -> a
  | Ct ct -> Array.sub (Eval.decrypt e.ctx e.secret ct) 0 e.vec_size

type run_stats = {
  raw_outputs : (string * value) list;
  elapsed_seconds : float;
  node_seconds : (int * Ir.op * float) list;
  peak_live_values : int;
  op_counts : op_counts;
}

exception Worker_died

(* The one graph scheduler, for every worker count: [execute],
   [Parallel.execute_on] and the serving tier are all thin wrappers, so
   no two execution paths can drift. [workers] domains (the caller's
   included; one worker spawns nothing) claim ready nodes from a shared
   list ordered by [priority], highest first — by default topological
   position, which at one worker reproduces program order (a hoist
   group runs at its leader's position). A node is
   ready once all its parameters are computed; each node writes only its
   own slot, so workers never conflict (Section 6.1). Remaining-use
   counts drive buffer release: a value is dropped as soon as its last
   consumer has run, and the high-water mark of simultaneously stored
   values is recorded.

   With [hoist] (the default) each RotateMany hoist group is one unit of
   work: only its leader (lowest-id member) is claimable, and claiming
   it publishes every member's value under its own id. The shared
   decomposition is computed once, on first demand; each member then
   passes through [interpose] on its own, so a transient failure retried
   in place re-reads the member's value from it.

   Failure policy: an evaluation error is anchored to its node
   ([node_failure]) and ends the run. [Worker_died] from [interpose] is
   a worker death: the claimed node (or whole group) is requeued — safe,
   because parent values release only on completion, so whoever picks
   it up re-reads identical inputs — and the worker exits for good. With
   no worker left and work outstanding the run ends in EVA-E504 rather
   than deadlocking (every state change broadcasts, so no waiter is
   stranded).

   [cancel] is the cooperative-cancellation checkpoint: the token is
   checked before every node evaluation, so a request whose deadline
   passes (or whose daemon is draining) stops within one node as a
   structured EVA-E505, and its live intermediates are dropped with
   this frame instead of being carried to graph completion. *)
let run_graph ?(record_per_node = false) ?(interpose = fun _ eval -> eval ()) ?(cancel = Cancel.never)
    ?(hoist = true) ?(workers = 1) ?priority e compiled =
  if workers < 1 then invalid_arg "Executor.run_graph: workers >= 1";
  let p = compiled.Compile.program in
  let t0 = now () in
  let order = Ir.topological p in
  let priority =
    match priority with
    | Some f -> f
    | None ->
        let pos = Hashtbl.create 64 in
        List.iteri (fun i n -> Hashtbl.replace pos n.Ir.id i) order;
        fun n -> -.float_of_int (Hashtbl.find pos n.Ir.id)
  in
  let group_of_leader : (int, Optimize.hoist_group) Hashtbl.t = Hashtbl.create 8 in
  let satellite : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  if hoist then
    List.iter
      (fun g ->
        match g.Optimize.hoist_rotations with
        | leader :: rest ->
            Hashtbl.replace group_of_leader leader.Ir.id g;
            List.iter (fun m -> Hashtbl.replace satellite m.Ir.id ()) rest
        | [] -> ())
      (Optimize.rotation_groups p);
  let lock = Mutex.create () and wake = Condition.create () in
  let ready = Fheap.create () in
  let push n = if not (Hashtbl.mem satellite n.Ir.id) then Fheap.push ready (-.priority n) n in
  let values : (int, value) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun (id, v) -> Hashtbl.replace values id v) e.inputs;
  (* An engine from [keygen], or one bound to another program, may lack
     inputs; report them all before any worker starts. *)
  (match
     List.filter_map
       (fun n ->
         match n.Ir.op with
         | Ir.Input (_, name) when not (Hashtbl.mem values n.Ir.id) -> Some name
         | _ -> None)
       order
   with
  | [] -> ()
  | missing ->
      Diag.error ~layer:Diag.Execute ~code:Diag.exec_missing_inputs "no bound value for input%s %s"
        (if List.length missing > 1 then "s" else "")
        (String.concat ", " (List.map (Printf.sprintf "%S") missing)));
  let remaining = Hashtbl.create 64 and pending = Hashtbl.create 64 in
  let outstanding = ref 0 in
  List.iter
    (fun n ->
      Hashtbl.replace remaining n.Ir.id (List.length n.Ir.uses);
      match n.Ir.op with
      | Ir.Input _ -> ()
      | _ ->
          incr outstanding;
          let waiting =
            Array.fold_left
              (fun k m -> match m.Ir.op with Ir.Input _ -> k | _ -> k + 1)
              0 n.Ir.parms
          in
          Hashtbl.replace pending n.Ir.id waiting;
          if waiting = 0 then push n)
    order;
  let peak = ref (Hashtbl.length values) and ops = ref zero_op_counts and per_node = ref [] in
  let live_workers = ref workers and failure = ref None in
  (* Evaluate a claimed unit off the lock, member by member. *)
  let evaluate n parents =
    let one m eval =
      Cancel.check ~node_id:m.Ir.id ~op:(Ir.op_name m.Ir.op) cancel;
      let tm = if record_per_node then now () else 0.0 in
      let v =
        try interpose m eval with Worker_died -> raise Worker_died | ex -> raise (node_failure m ex)
      in
      (m, v, if record_per_node then now () -. tm else 0.0)
    in
    match Hashtbl.find_opt group_of_leader n.Ir.id with
    | None -> [ one n (fun () -> eval_node e n parents) ]
    | Some g ->
        let group = lazy (eval_rotation_group e g (List.hd parents)) in
        List.map (fun m -> one m (fun () -> List.assq m (Lazy.force group))) g.Optimize.hoist_rotations
  in
  (* Under the lock: store the unit's values, then release parents whose
     last consumer just ran and unblock children. *)
  let publish results =
    List.iter
      (fun (m, v, dt) ->
        Hashtbl.replace values m.Ir.id v;
        decr outstanding;
        (match v with Ct _ -> ops := count_ct_op m.Ir.op !ops | Plain _ -> ());
        if record_per_node then per_node := (m.Ir.id, m.Ir.op, dt) :: !per_node)
      results;
    peak := max !peak (Hashtbl.length values);
    List.iter
      (fun (m, _, _) ->
        Array.iter
          (fun parent ->
            let r = Hashtbl.find remaining parent.Ir.id - 1 in
            Hashtbl.replace remaining parent.Ir.id r;
            match parent.Ir.op with
            | Ir.Output _ -> ()
            | _ -> if r = 0 then Hashtbl.remove values parent.Ir.id)
          m.Ir.parms;
        List.iter
          (fun c ->
            let d = Hashtbl.find pending c.Ir.id - 1 in
            Hashtbl.replace pending c.Ir.id d;
            if d = 0 then push c)
          m.Ir.uses)
      results
  in
  let rec worker () =
    Mutex.lock lock;
    let rec claim () =
      if !failure <> None || !outstanding = 0 then None
      else if Fheap.is_empty ready then begin
        Condition.wait wake lock;
        claim ()
      end
      else Some (snd (Fheap.pop ready))
    in
    match claim () with
    | None ->
        Condition.broadcast wake;
        Mutex.unlock lock
    | Some n ->
        let parents = Array.to_list (Array.map (fun m -> Hashtbl.find values m.Ir.id) n.Ir.parms) in
        Mutex.unlock lock;
        let outcome = try Ok (evaluate n parents) with ex -> Error ex in
        Mutex.lock lock;
        let alive =
          match outcome with
          | Ok results ->
              publish results;
              true
          | Error Worker_died ->
              push n;
              decr live_workers;
              if !live_workers = 0 && !failure = None then
                failure :=
                  Some
                    (Diag.Error
                       (Diag.make ~node_id:n.Ir.id ~op:(Ir.op_name n.Ir.op) ~layer:Diag.Execute
                          ~code:Diag.exec_workers_died
                          (Printf.sprintf "all %d workers died with %d instructions outstanding"
                             workers !outstanding)));
              false
          | Error ex ->
              if !failure = None then failure := Some ex;
              true
        in
        Condition.broadcast wake;
        Mutex.unlock lock;
        if alive then worker ()
  in
  let domains = List.init (workers - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join domains;
  Option.iter raise !failure;
  {
    raw_outputs =
      List.filter_map
        (fun n ->
          match n.Ir.op with Ir.Output name -> Some (name, Hashtbl.find values n.Ir.id) | _ -> None)
        order;
    elapsed_seconds = now () -. t0;
    node_seconds = List.rev !per_node;
    peak_live_values = !peak;
    op_counts = !ops;
  }

let decode e s =
  let t1 = now () in
  let outputs = List.map (fun (name, v) -> (name, read_output e v)) s.raw_outputs in
  let decrypt_seconds = now () -. t1 in
  let pt_cache_hits, pt_cache_misses = pt_cache_counters e in
  ( outputs,
    {
      context_seconds = e.context_seconds;
      encrypt_seconds = e.encrypt_seconds;
      execute_seconds = s.elapsed_seconds;
      decrypt_seconds;
      per_node = s.node_seconds;
      pt_cache_hits;
      pt_cache_misses;
      op_counts = s.op_counts;
    } )

let execute ?seed ?ignore_security ?log_n ?encrypt_workers compiled bindings =
  let e = prepare ?seed ?ignore_security ?log_n ?encrypt_workers compiled bindings in
  let outputs, timings = decode e (run_graph ~record_per_node:true e compiled) in
  { outputs = Compile.unpack_outputs compiled outputs; timings }

let max_abs_error a b =
  List.fold_left
    (fun acc (name, va) ->
      match List.assoc_opt name b with
      | None -> acc
      | Some vb ->
          let len = min (Array.length va) (Array.length vb) in
          let m = ref acc in
          for i = 0 to len - 1 do
            m := Float.max !m (Float.abs (va.(i) -. vb.(i)))
          done;
          !m)
    0.0 a
