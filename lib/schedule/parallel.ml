module Ir = Eva_core.Ir
module Executor = Eva_core.Executor

type result = {
  outputs : (string * float array) list;
  timings : Executor.timings;
  peak_live_values : int;
}

let priority ?cost ?log_n ?(hoist = true) compiled =
  let program = compiled.Eva_core.Compile.program in
  let cost, work =
    match cost with
    | Some c -> (c, List.fold_left (fun acc n -> acc +. c n) 0.0 program.Ir.all_nodes)
    | None ->
        let costs = Cost.program_costs ?log_n ~hoist Cost.default_coefficients compiled in
        ( (fun n -> Option.value (Hashtbl.find_opt costs n.Ir.id) ~default:0.0),
          Hashtbl.fold (fun _ c acc -> acc +. c) costs 0.0 )
  in
  let bottom = Makespan.bottom_levels program ~cost in
  ((fun n -> Hashtbl.find bottom n.Ir.id), work)

(* The fault plan rides the core's [interpose] seam. *)
let execute_on ?cost ?fault ?cancel ?(hoist = true) ~workers engine compiled =
  if workers < 1 then invalid_arg "Parallel.execute_on: workers >= 1";
  let priority, _ = priority ?cost ~hoist compiled in
  let s =
    Executor.run_graph ~record_per_node:true ?interpose:(Option.map Fault.interpose fault) ?cancel
      ~hoist ~workers ~priority engine compiled
  in
  let outputs, timings = Executor.decode engine s in
  {
    outputs;
    timings =
      {
        timings with
        Executor.per_node = List.sort (fun (a, _, _) (b, _, _) -> compare a b) timings.Executor.per_node;
      };
    peak_live_values = s.Executor.peak_live_values;
  }
