(* evabench compare DIR_A DIR_B: every metric of every workload, A
   (parent) against B (change), judged under the bound BENCHMARK.json
   fixes for it.

   Verdicts for an end-to-end metric:
   - unresolved: the run-to-run spread (interquartile range over median)
     of either side exceeds the bound, unless every B run reads better
     than every A run;
   - worse / better: the medians differ by more than the bound;
   - no change: otherwise.
   Deterministic counters must match exactly. Other per-layer and
   workload-specific metrics have no bound and are shown for reading.
   The exit code is 1 when any end-to-end metric is worse or a
   workload's failed fraction rose. *)

open Harness

type sample = { workload : string; traced : bool; correct : bool; attempted : float; failed : float; metrics : (string * (float * string)) list }

let load_record path =
  let j = Json.read_file path in
  let num k = Option.value (Option.bind (Json.member k j) Json.to_num) ~default:nan in
  let stamp = Option.value (Json.member "stamp" j) ~default:Json.Null in
  let metrics =
    match Json.member "metrics" j with
    | Some (Json.Obj kv) ->
        List.filter_map
          (fun (name, m) ->
            match (Option.bind (Json.member "value" m) Json.to_num, Option.bind (Json.member "unit" m) Json.to_str) with
            | Some v, Some u -> Some (name, (v, u))
            | _ -> None)
          kv
    | _ -> []
  in
  {
    workload = Option.value (Option.bind (Json.member "workload" stamp) Json.to_str) ~default:"?";
    traced = Option.bind (Json.member "trace" stamp) Json.to_num = Some 1.0;
    correct = Json.member "correct" j = Some (Json.Bool true);
    attempted = num "attempted";
    failed = num "failed";
    metrics;
  }

let load_dir dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.filter_map (fun f ->
         try Some (load_record (Filename.concat dir f))
         with Json.Parse_error _ | Sys_error _ ->
           Printf.eprintf "skipping %s: not a run record\n" f;
           None)

(* Deterministic counters: compile output, selected parameters and
   executed op counts repeat exactly for a given program and seed. *)
let deterministic name unit =
  let prefixed p = String.length name > String.length p && String.sub name 0 (String.length p) = p in
  (prefixed "Compile." || prefixed "Params." || prefixed "Executor.ops.") && not (List.mem unit [ "s"; "ms"; "us" ])

type bound = { bound : float; lower_is_better : bool }

let bounds spec =
  List.filter_map
    (fun m ->
      match
        ( Option.bind (Json.member "name" m) Json.to_str,
          Option.bind (Json.member "bound" m) Json.to_num,
          Option.bind (Json.member "better" m) Json.to_str )
      with
      | Some n, Some b, Some better -> Some (n, { bound = b; lower_is_better = better = "lower" })
      | _ -> None)
    (Json.to_list (Option.value (Json.member "end_to_end" spec) ~default:Json.Null))

let verdict { bound; lower_is_better } a b =
  let _, ma, _ = quartiles a and _, mb, _ = quartiles b in
  let spread l =
    let q1, m, q3 = quartiles l in
    if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m
  in
  let better x y = if lower_is_better then x < y else x > y in
  let worse_by = (if lower_is_better then mb -. ma else ma -. mb) /. Float.abs ma in
  if Float.max (spread a) (spread b) > bound then
    if List.for_all (fun x -> List.for_all (fun y -> better x y) a) b then "better" else "unresolved"
  else if worse_by > bound then "worse"
  else if worse_by < -.bound then "better"
  else "no change"

let fmt v = if Float.is_integer v && Float.abs v < 1e9 then Printf.sprintf "%.0f" v else Printf.sprintf "%.4g" v

let show l =
  match l with
  | [] -> "-"
  | _ ->
      let q1, m, q3 = quartiles l in
      Printf.sprintf "%s [%s..%s]" (fmt m) (fmt q1) (fmt q3)

let failed_frac l =
  let att = List.fold_left (fun acc s -> acc +. s.attempted) 0.0 l in
  if att = 0.0 then 0.0 else List.fold_left (fun acc s -> acc +. s.failed) 0.0 l /. att

(* One workload's runs on both sides; true when B is worse. *)
let compare_group bounds ~traced sa sb =
  let fa = failed_frac sa and fb = failed_frac sb in
  Printf.printf "  %-34s %12s %12s  %s\n" "failed_frac" (fmt fa) (fmt fb) (if fb > fa then "WORSE" else "ok");
  let bad = ref (fb > fa || List.exists (fun s -> not s.correct) sb) in
  let names = List.sort_uniq compare (List.concat_map (fun s -> List.map fst s.metrics) (sa @ sb)) in
  List.iter
    (fun name ->
      let values l = List.filter_map (fun s -> Option.map fst (List.assoc_opt name s.metrics)) l in
      let unit = List.find_map (fun s -> Option.map snd (List.assoc_opt name s.metrics)) (sa @ sb) |> Option.value ~default:"" in
      let va = values sa and vb = values sb in
      let v =
        match (va, vb) with
        | [], _ | _, [] -> "missing on one side"
        | _ when deterministic name unit -> if List.length (List.sort_uniq compare (va @ vb)) = 1 then "same" else "COUNTER CHANGED"
        | _ -> ( match List.assoc_opt name bounds with Some bd when not traced -> verdict bd va vb | _ -> "")
      in
      if v = "worse" then bad := true;
      Printf.printf "  %-34s %-28s %-28s %-6s %s\n" name (show va) (show vb) unit v)
    names;
  !bad

let run dir_a dir_b =
  let bounds = bounds (Json.read_file "BENCHMARK.json") in
  let a = load_dir dir_a and b = load_dir dir_b in
  let groups = List.sort_uniq compare (List.map (fun s -> (s.workload, s.traced)) (a @ b)) in
  let bad =
    List.fold_left
      (fun bad (w, traced) ->
        let side l = List.filter (fun s -> s.workload = w && s.traced = traced) l in
        let sa = side a and sb = side b in
        Printf.printf "\n== %s (%s): %d runs in A, %d in B\n" w (if traced then "traced" else "untraced") (List.length sa)
          (List.length sb);
        if sa = [] || sb = [] then begin
          Printf.printf "  (nothing to compare)\n";
          bad
        end
        else compare_group bounds ~traced sa sb || bad)
      false groups
  in
  if bad then exit 1
