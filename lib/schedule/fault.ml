module Ir = Eva_core.Ir
module Executor = Eva_core.Executor
module Eval = Eva_ckks.Eval
module Diag = Eva_diag.Diag

type kind = Wrong_level | Wrong_scale

type action = Proceed | Die | Fail | Delay of float | Timeout of float | Corrupt of kind

type counters = {
  mutable deaths : int;
  mutable failures : int;
  mutable delays : int;
  mutable timeouts : int;
  mutable corruptions : int;
  mutable retries : int;
}

type source =
  | Scripted of (int, action list ref) Hashtbl.t
  | Random of { rng : Random.State.t; death_p : float; fail_p : float; corrupt_p : float }
  | Silent

type t = {
  lock : Mutex.t;
  source : source;
  max_retries : int;
  counters : counters;
  retry_counts : (int, int) Hashtbl.t;
  backoff : Backoff.t;
}

let fresh_counters () = { deaths = 0; failures = 0; delays = 0; timeouts = 0; corruptions = 0; retries = 0 }

(* Retries granted by this plan pace themselves on a decorrelated-jitter
   schedule instead of re-attempting back to back; the default bounds
   keep test plans fast while still de-syncing concurrent retriers. *)
let default_backoff () = Backoff.make ~base_ms:0.2 ~cap_ms:20.0 ~seed:0 ()

let make ?(max_retries = 3) ?backoff source =
  {
    lock = Mutex.create ();
    source;
    max_retries;
    counters = fresh_counters ();
    retry_counts = Hashtbl.create 16;
    backoff = (match backoff with Some b -> b | None -> default_backoff ());
  }

let plan ?max_retries ?backoff actions =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (id, acts) -> Hashtbl.replace tbl id (ref acts)) actions;
  make ?max_retries ?backoff (Scripted tbl)

let random ?max_retries ?backoff ~seed ~death_p ~fail_p ~corrupt_p () =
  make ?max_retries ?backoff
    (Random { rng = Random.State.make [| seed |]; death_p; fail_p; corrupt_p })

let none () = make Silent

let counters t = t.counters

(* Advance the jitter schedule under the plan's lock, sleep outside it:
   a pausing retrier must never hold up other workers drawing actions. *)
let retry_pause t =
  Mutex.lock t.lock;
  let d = Backoff.next_ms t.backoff in
  Mutex.unlock t.lock;
  if d > 0.0 then Unix.sleepf (d /. 1000.0)

let record t = function
  | Proceed -> ()
  | Die -> t.counters.deaths <- t.counters.deaths + 1
  | Fail -> t.counters.failures <- t.counters.failures + 1
  | Delay _ -> t.counters.delays <- t.counters.delays + 1
  | Timeout _ -> t.counters.timeouts <- t.counters.timeouts + 1
  | Corrupt _ -> t.counters.corruptions <- t.counters.corruptions + 1

let next_action t ~node_id =
  match t.source with
  | Silent -> Proceed
  | _ ->
      Mutex.lock t.lock;
      let a =
        match t.source with
        | Silent -> Proceed
        | Scripted tbl -> (
            match Hashtbl.find_opt tbl node_id with
            | None | Some { contents = [] } -> Proceed
            | Some q ->
                let a = List.hd !q in
                q := List.tl !q;
                a)
        | Random { rng; death_p; fail_p; corrupt_p } ->
            let x = Random.State.float rng 1.0 in
            if x < death_p then Die
            else if x < death_p +. fail_p then Fail
            else if x < death_p +. fail_p +. corrupt_p then Corrupt Wrong_scale
            else Proceed
      in
      record t a;
      Mutex.unlock t.lock;
      a

let note_retry t ~node_id =
  Mutex.lock t.lock;
  let n = Option.value (Hashtbl.find_opt t.retry_counts node_id) ~default:0 + 1 in
  Hashtbl.replace t.retry_counts node_id n;
  let verdict =
    if n > t.max_retries then `Exhausted
    else begin
      t.counters.retries <- t.counters.retries + 1;
      `Retry
    end
  in
  Mutex.unlock t.lock;
  verdict

(* Metadata-only tampering: the polynomial data stays intact, so the
   corruption is exactly the class the scheme-layer guards (level and
   scale checks) exist to catch downstream. *)
let corrupt_value kind v =
  match (v, kind) with
  | Executor.Plain _, _ -> v
  | Executor.Ct ct, Wrong_level -> Executor.Ct { ct with Eval.level = max 1 (ct.Eval.level - 1) }
  | Executor.Ct ct, Wrong_scale -> Executor.Ct { ct with Eval.scale = ct.Eval.scale *. 2.0 }

exception Injected of int

let retry_error t n ~code what =
  Diag.error ~node_id:n.Ir.id ~op:(Ir.op_name n.Ir.op) ~layer:Diag.Execute ~code
    "%s at node %d beyond the %d-retry budget" what n.Ir.id t.max_retries

let interpose t n eval =
  let rec attempt () =
    match next_action t ~node_id:n.Ir.id with
    | Proceed -> eval ()
    | Delay dt ->
        Unix.sleepf dt;
        eval ()
    | Corrupt kind -> corrupt_value kind (eval ())
    | Die -> raise Executor.Worker_died
    | Fail -> retry ~code:Diag.exec_retry_exhausted "transient failure"
    | Timeout dt ->
        Unix.sleepf dt;
        retry ~code:Diag.exec_timeout "timeout"
  (* Idempotent node evaluation: a failed attempt left no state, so
     re-running in place on the same worker is exact. *)
  and retry ~code what =
    match note_retry t ~node_id:n.Ir.id with
    | `Retry ->
        retry_pause t;
        attempt ()
    | `Exhausted -> retry_error t n ~code what
  in
  attempt ()
