(* What every workload shares: timing and order statistics, the report a
   run fills in, answer checking, and the stamp that says what machine
   and configuration a record came from. *)

let now = Unix.gettimeofday

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l =
  match sorted l with
  | [||] -> nan
  | a ->
      let m = Array.length a in
      if m mod 2 = 1 then a.(m / 2) else (a.((m / 2) - 1) +. a.(m / 2)) /. 2.0

(* Python's [statistics.quantiles(data, n=4)] (the default "exclusive"
   method), so the spreads this program reports are the ones a reader
   recomputes from the records with the standard library. *)
let quartiles l =
  let a = sorted l in
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let n = 4 and m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta)) /. float_of_int n
    in
    (q 1, q 2, q 3)

(* A shared host slows a process down in bursts shorter than a second
   (co-tenants on sibling hyperthreads, caches and memory bandwidth), so
   a run's timing is the best of several consecutive blocks of samples,
   each summarised by its median: the best block reflects the software,
   the others also the neighbours. Across runs, medians are compared. *)
let fastest_block ~size samples =
  let rec go best = function
    | [] -> best
    | l ->
        let block = List.filteri (fun i _ -> i < size) l and rest = List.filteri (fun i _ -> i >= size) l in
        go (Float.min best (median block)) rest
  in
  go infinity samples

let geomean l = Float.exp (List.fold_left (fun acc x -> acc +. Float.log x) 0.0 l /. float_of_int (List.length l))

(* Nearest-rank percentile. *)
let percentile p l =
  match sorted l with
  | [||] -> nan
  | a ->
      let m = Array.length a in
      a.(max 0 (min (m - 1) (int_of_float (Float.ceil (p *. float_of_int m)) - 1)))

(* [f] memoized: seeded inputs are drawn once, on first use, so a
   workload's answers and their references agree. *)
let memo f =
  let t = Hashtbl.create 16 in
  fun k ->
    match Hashtbl.find_opt t k with
    | Some v -> v
    | None ->
        let v = f k in
        Hashtbl.replace t k v;
        v

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Median wall time of [f] over as many calls as fit in [budget] seconds
   after one warm-up call (at least [min_reps], at most 200). *)
let time_median ~budget ~min_reps f =
  let _, once = time f in
  let reps = max min_reps (min 200 (int_of_float (budget /. Float.max once 1e-6))) in
  median (List.init reps (fun _ -> snd (time f)))

(* ------------------------------------------------------------------ *)
(* The report a run fills in                                           *)
(* ------------------------------------------------------------------ *)

type kind =
  | E2e  (** listed under end_to_end in BENCHMARK.json *)
  | Layer  (** listed under per_layer *)
  | Extra  (** workload-specific detail: printed and recorded only *)

type metric = { name : string; value : float; unit : string; kind : kind }

type report = {
  mutable metrics : metric list;  (** newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable max_err : float;
  mutable sum_sq_err : float;
  mutable err_count : int;
  mutable log_n : int;  (** degree the workload's keys were generated at *)
  mutable chain : int;  (** data elements of that context's modulus chain *)
  mutable secure : bool;  (** false: a reduced, insecure test degree *)
}

let report () =
  {
    metrics = [];
    attempted = 0;
    failed = 0;
    max_err = 0.0;
    sum_sq_err = 0.0;
    err_count = 0;
    log_n = 0;
    chain = 0;
    secure = false;
  }

let add r kind name value unit =
  r.metrics <- { name; value; unit; kind } :: List.filter (fun m -> m.name <> name) r.metrics

let e2e r = add r E2e
let layer r = add r Layer
let extra r = add r Extra
let metrics r = List.rev r.metrics
let find r name = List.find_opt (fun m -> m.name = name) r.metrics

(* An answer is correct when every slot lies within 1e-2 * (1 + |ref|)
   of the plaintext reference (the tolerance the repository's serve and
   batch experiments assert). A short answer or a NaN is wrong. *)
let check r ~expected ~got =
  let ok = ref (Array.length got >= Array.length expected) in
  Array.iteri
    (fun i e ->
      if i < Array.length got then begin
        let err = Float.abs (got.(i) -. e) in
        if not (err <= 1e-2 *. (1.0 +. Float.abs e)) then ok := false;
        if Float.is_finite err then begin
          r.max_err <- Float.max r.max_err err;
          r.sum_sq_err <- r.sum_sq_err +. (err *. err);
          r.err_count <- r.err_count + 1
        end
      end)
    expected;
  r.attempted <- r.attempted + 1;
  if not !ok then r.failed <- r.failed + 1

let fail r =
  r.attempted <- r.attempted + 1;
  r.failed <- r.failed + 1

let rms_err r = if r.err_count = 0 then nan else Float.sqrt (r.sum_sq_err /. float_of_int r.err_count)

(* ------------------------------------------------------------------ *)
(* Stamp                                                               *)
(* ------------------------------------------------------------------ *)

(* Reads to end of file: /proc files report a length of 0. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The commit being measured, read from .git directly rather than by
   running git, so the benchmark reads nothing outside its checkout.
   "unknown" outside a git checkout. *)
let git_rev () =
  let trim = String.trim in
  try
    let head = trim (read_file ".git/HEAD") in
    if String.length head > 5 && String.sub head 0 5 = "ref: " then begin
      let name = String.sub head 5 (String.length head - 5) in
      try trim (read_file (Filename.concat ".git" name))
      with Sys_error _ ->
        let packed = String.split_on_char '\n' (read_file ".git/packed-refs") in
        match
          List.find_map
            (fun line ->
              match String.split_on_char ' ' (trim line) with
              | [ sha; n ] when n = name -> Some sha
              | _ -> None)
            packed
        with
        | Some sha -> sha
        | None -> "unknown"
    end
    else head
  with Sys_error _ -> "unknown"

let cores () = Domain.recommended_domain_count ()

(* Peak resident set of the process (VmHWM), in MiB. Unlike the GC heap
   this counts the off-heap Bigarray rows that hold every polynomial. *)
let peak_rss_mib () =
  try
    String.split_on_char '\n' (read_file "/proc/self/status")
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | [ "VmHWM"; v ] -> (
               match String.split_on_char ' ' (String.trim v) with
               | kb :: _ -> Option.map (fun k -> float_of_int k /. 1024.0) (int_of_string_opt kb)
               | [] -> None)
           | _ -> None)
    |> Option.value ~default:nan
  with Sys_error _ -> nan

let stamp r ~workload ~seed ~seconds ~traced ~busy_domains =
  Json.Obj
    [
      ("workload", Json.Str workload);
      ("seed", Json.Num (float_of_int seed));
      ("seconds", Json.Num seconds);
      ("trace", Json.Num (if traced then 1.0 else 0.0));
      ("cores", Json.Num (float_of_int (cores ())));
      ("pool_lanes", Json.Num (float_of_int (Eva_pool.Pool.workers ())));
      ("busy_domains", Json.Num (float_of_int busy_domains));
      ("log_n", Json.Num (float_of_int r.log_n));
      ("chain_length", Json.Num (float_of_int r.chain));
      ("secure_degree", Json.Bool r.secure);
      ("git_rev", Json.Str (git_rev ()));
      ("ocaml", Json.Str Sys.ocaml_version);
    ]

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end
