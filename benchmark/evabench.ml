(* evabench: one benchmark for the EVA stack, four workloads, end-to-end
   and per-layer metrics. See benchmark/README.md.

     evabench --workload W --seed N --seconds S --trace 0|1
     evabench run W --seed N [--trace FILE]          (--trace may name the file)
     evabench smoke                                  (toy sizes, asserts)
     evabench compare DIR_A DIR_B

   A run prints every metric as "name value unit", then, as its last
   line, one JSON object: {"correct", "attempted", "failed", "metrics"}
   with the end-to-end metrics (untraced) or the per-layer metrics
   (--trace 1). A fuller record with the run's stamp goes to
   --record-dir. *)

open Harness

let traced_share = 0.7

(* The end-to-end metrics of an untraced run; with [traced], a short
   untraced run (30% of the budget) followed by the traced run whose
   per-layer metrics are the result, the difference between the two
   reported as trace.overhead. *)
let measure (w : Workloads.workload) ~seed ~seconds ~smoke ~traced ~trace_file =
  let mode budget traced = { Workloads.seed; budget; smoke; traced } in
  if not traced then begin
    let r = w.Workloads.run (mode seconds false) in
    e2e r "peak_rss_mib" (peak_rss_mib ()) "MiB";
    extra r "max_abs_err" r.max_err "abs";
    extra r "rms_err" (rms_err r) "abs";
    r
  end
  else begin
    let u = w.Workloads.run (mode ((1.0 -. traced_share) *. seconds) false) in
    Trace.start ();
    let r = w.Workloads.run (mode (traced_share *. seconds) true) in
    Trace.stop ();
    let spans = Trace.all () in
    (* Under tracing the end-to-end numbers are not the result; they are
       kept, as extras, for the overhead comparison. *)
    r.metrics <- List.map (fun m -> if m.kind = E2e then { m with kind = Extra } else m) r.metrics;
    List.iter
      (fun (m : metric) ->
        match find r m.name with
        | Some t ->
            let ov = if m.unit = "1/s" then (m.value /. t.value) -. 1.0 else (t.value /. m.value) -. 1.0 in
            extra r ("trace.overhead." ^ m.name) ov "ratio"
        | None -> ())
      (List.filter (fun (m : metric) -> m.kind = E2e) (metrics u));
    (match find r "trace.overhead.latency_ms" with
    | Some m -> layer r "trace.overhead" m.value "ratio"
    | None -> ());
    layer r "trace.spans" (float_of_int (List.length spans)) "count";
    List.iter
      (fun (name, self, n) ->
        extra r ("self." ^ name ^ "_ms") (1e3 *. self) "ms";
        extra r ("spans." ^ name) (float_of_int n) "count")
      (Trace.self_times spans);
    mkdir_p (Filename.dirname trace_file);
    Trace.write_chrome trace_file spans;
    r.attempted <- r.attempted + u.attempted;
    r.failed <- r.failed + u.failed;
    extra r "peak_rss_mib" (peak_rss_mib ()) "MiB";
    r
  end

let metric_json ?(with_kind = false) m =
  let kind = match m.kind with E2e -> "end_to_end" | Layer -> "per_layer" | Extra -> "extra" in
  Json.Obj
    ([ ("value", Json.Num m.value); ("unit", Json.Str m.unit) ] @ if with_kind then [ ("kind", Json.Str kind) ] else [])

let result r ~traced =
  let kind = if traced then Layer else E2e in
  Json.Obj
    [
      ("correct", Json.Bool (r.failed = 0 && r.attempted > 0));
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("metrics", Json.Obj (List.filter_map (fun m -> if m.kind = kind then Some (m.name, metric_json m) else None) (metrics r)));
    ]

let write_record r ~dir ~workload ~seed ~seconds ~traced =
  mkdir_p dir;
  let rec free i =
    let f = Filename.concat dir (Printf.sprintf "%s-trace%d-seed%d-%d.json" workload (Bool.to_int traced) seed i) in
    if Sys.file_exists f then free (i + 1) else f
  in
  let path = free 1 in
  Json.write_file path
    (Json.Obj
       [
         ("stamp", stamp r ~workload ~seed ~seconds ~traced ~busy_domains:(Workloads.busy_domains + max 0 (Eva_pool.Pool.workers () - 1)));
         ("correct", Json.Bool (r.failed = 0 && r.attempted > 0));
         ("attempted", Json.Num (float_of_int r.attempted));
         ("failed", Json.Num (float_of_int r.failed));
         ("metrics", Json.Obj (List.map (fun m -> (m.name, metric_json ~with_kind:true m)) (metrics r)));
       ]);
  path

let find_workload name =
  match List.find_opt (fun (w : Workloads.workload) -> w.Workloads.name = name) Workloads.all with
  | Some w -> w
  | None ->
      Printf.eprintf "unknown workload %S; one of: %s\n" name
        (String.concat ", " (List.map (fun (w : Workloads.workload) -> w.Workloads.name) Workloads.all));
      exit 2

let run_command args =
  let workload = ref None and seed = ref 1 and seconds = ref 18.0 and traced = ref false in
  let trace_file = ref None and record_dir = ref "benchmark/out/records" and smoke = ref false in
  let bad fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt in
  let int_arg flag v = match int_of_string_opt v with Some n -> n | None -> bad "%s expects an integer, got %S" flag v in
  let rec parse = function
    | "--workload" :: w :: rest ->
        workload := Some w;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_arg "--seed" v;
        parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0.0 -> seconds := s
        | _ -> bad "--seconds expects a positive number, got %S" v);
        parse rest
    | "--trace" :: v :: rest ->
        (* 0 or 1, or the path of the Chrome trace file to write. *)
        (match v with
        | "0" -> traced := false
        | "1" -> traced := true
        | file ->
            traced := true;
            trace_file := Some file);
        parse rest
    | "--record-dir" :: d :: rest ->
        record_dir := d;
        parse rest
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | w :: rest when !workload = None && String.length w > 0 && w.[0] <> '-' ->
        workload := Some w;
        parse rest
    | a :: _ -> bad "unexpected argument %S" a
    | [] -> ()
  in
  parse args;
  let name = match !workload with Some w -> w | None -> bad "no workload given (--workload W)" in
  let w = find_workload name in
  let busy = Workloads.busy_domains + max 0 (Eva_pool.Pool.workers () - 1) in
  if busy > cores () then begin
    Printf.eprintf "%s would keep %d domains busy (kernel pool: %d lanes) on %d cores; refusing to measure\n" name busy
      (Eva_pool.Pool.workers ()) (cores ());
    exit 3
  end;
  let trace_file = Option.value !trace_file ~default:(Printf.sprintf "benchmark/out/trace-%s-seed%d.json" name !seed) in
  let r = measure w ~seed:!seed ~seconds:!seconds ~smoke:!smoke ~traced:!traced ~trace_file in
  let record = write_record r ~dir:!record_dir ~workload:name ~seed:!seed ~seconds:!seconds ~traced:!traced in
  List.iter (fun m -> Printf.printf "%s %s %s\n" m.name (Json.number m.value) m.unit) (metrics r);
  Printf.printf "# record %s\n" record;
  if !traced then Printf.printf "# trace %s\n" trace_file;
  print_endline (Json.to_string (result r ~traced:!traced))

(* ------------------------------------------------------------------ *)
(* Smoke: every workload at toy size, asserted                         *)
(* ------------------------------------------------------------------ *)

let smoke () =
  let t0 = now () in
  let spec = Json.read_file "BENCHMARK.json" in
  let listed key =
    Json.to_list (Option.value (Json.member key spec) ~default:Json.Null)
    |> List.filter_map (fun m ->
           match (Option.bind (Json.member "name" m) Json.to_str, Option.bind (Json.member "unit" m) Json.to_str) with
           | Some n, Some u -> Some (n, u)
           | _ -> None)
    |> List.sort compare
  in
  let problems = ref [] in
  let expect ok fmt = Printf.ksprintf (fun s -> if not ok then problems := s :: !problems) fmt in
  let workload_names = List.map (fun (w : Workloads.workload) -> w.Workloads.name) Workloads.all in
  let spec_workloads =
    List.filter_map
      (fun m -> Option.bind (Json.member "name" m) Json.to_str)
      (Json.to_list (Option.value (Json.member "workloads" spec) ~default:Json.Null))
  in
  expect (spec_workloads = workload_names) "BENCHMARK.json workloads [%s] differ from [%s]"
    (String.concat ", " spec_workloads) (String.concat ", " workload_names);
  let same_names what kind want r =
    let got = List.sort compare (List.filter_map (fun m -> if m.kind = kind then Some (m.name, m.unit) else None) (metrics r)) in
    let show l = String.concat ", " (List.map (fun (n, u) -> n ^ " " ^ u) l) in
    expect (got = want) "%s: emitted {%s}, BENCHMARK.json lists {%s}" what
      (show (List.filter (fun x -> not (List.mem x want)) got))
      (show (List.filter (fun x -> not (List.mem x got)) want))
  in
  let counters r =
    List.filter_map (fun m -> if Compare.deterministic m.name m.unit then Some (m.name, m.value) else None) (metrics r)
  in
  List.iter
    (fun (w : Workloads.workload) ->
      let name = w.Workloads.name in
      let trace_file = Printf.sprintf "benchmark/out/smoke-trace-%s.json" name in
      let run traced = measure w ~seed:1 ~seconds:1.0 ~smoke:true ~traced ~trace_file in
      let u = run false in
      let t1 = run true in
      let t2 = run true in
      List.iter
        (fun (what, r) ->
          expect (r.attempted > 0 && r.failed = 0) "%s %s: %d of %d answers failed" name what r.failed r.attempted)
        [ ("untraced", u); ("traced", t1); ("traced again", t2) ];
      same_names (name ^ " untraced") E2e (listed "end_to_end") u;
      same_names (name ^ " traced") Layer (listed "per_layer") t1;
      expect (counters t1 = counters t2 && counters t1 <> []) "%s: deterministic counters differ between repetitions" name;
      let events =
        try Json.to_list (Option.value (Json.member "traceEvents" (Json.read_file trace_file)) ~default:Json.Null)
        with Json.Parse_error _ | Sys_error _ -> []
      in
      expect (events <> []) "%s: no events in %s" name trace_file;
      Printf.printf "smoke %-14s %d answers, %d counters, %d trace events\n%!" name (u.attempted + t1.attempted)
        (List.length (counters t1)) (List.length events))
    Workloads.all;
  Printf.printf "smoke total %.1fs\n" (now () -. t0);
  match !problems with
  | [] -> ()
  | ps ->
      List.iter (fun p -> Printf.printf "FAIL %s\n" p) (List.rev ps);
      exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "smoke" ] -> smoke ()
  | [ "compare"; a; b ] -> Compare.run a b
  | "run" :: rest -> run_command rest
  | args -> run_command args
