module Ir = Eva_core.Ir

type stats = { makespan : float; work : float; critical_path : float; busy_fraction : float }

module Fheap = Eva_core.Fheap

(* Bottom level (critical-path-to-exit) of every node in the
   topologically ordered [nodes]: the node's own cost plus the longest
   cost path through its consumers. *)
let bottoms nodes ~cost ~children_in =
  let bottom = Hashtbl.create 64 in
  List.iter
    (fun n ->
      let below =
        List.fold_left (fun acc c -> Float.max acc (Hashtbl.find bottom c.Ir.id)) 0.0 (children_in n)
      in
      Hashtbl.replace bottom n.Ir.id (cost n +. below))
    (List.rev nodes);
  bottom

(* Used both for the modeled schedule and as the real executor's ready
   priority, so measured and modeled orders agree. *)
let bottom_levels p ~cost = bottoms (Ir.topological p) ~cost ~children_in:(fun n -> n.Ir.uses)

(* Greedy list scheduling of [nodes] (must be closed under in-group
   dependencies described by [parents_in]) with priority = bottom level. *)
let schedule_nodes nodes ~cost ~workers ~parents_in ~children_in =
  let bottom = bottoms nodes ~cost ~children_in in
  let indeg = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace indeg n.Ir.id (List.length (parents_in n))) nodes;
  (* Ready queue keyed by negated bottom level: longest path first. *)
  let ready = Fheap.create () in
  List.iter (fun n -> if Hashtbl.find indeg n.Ir.id = 0 then Fheap.push ready (-.Hashtbl.find bottom n.Ir.id) n) nodes;
  let running = Fheap.create () in
  let time = ref 0.0 and free = ref workers and makespan = ref 0.0 in
  let continue = ref true in
  while !continue do
    while !free > 0 && not (Fheap.is_empty ready) do
      let _, n = Fheap.pop ready in
      decr free;
      Fheap.push running (!time +. cost n) n
    done;
    if Fheap.is_empty running then continue := false
    else begin
      let t, n = Fheap.pop running in
      time := t;
      makespan := Float.max !makespan t;
      incr free;
      List.iter
        (fun c ->
          let d = Hashtbl.find indeg c.Ir.id - 1 in
          Hashtbl.replace indeg c.Ir.id d;
          if d = 0 then Fheap.push ready (-.Hashtbl.find bottom c.Ir.id) c)
        (children_in n)
    end
  done;
  let work = List.fold_left (fun acc n -> acc +. cost n) 0.0 nodes in
  let critical_path = List.fold_left (fun acc n -> Float.max acc (Hashtbl.find bottom n.Ir.id)) 0.0 nodes in
  (!makespan, work, critical_path)

let stats_of ~workers (makespan, work, critical_path) =
  {
    makespan;
    work;
    critical_path;
    busy_fraction = (if makespan > 0.0 then work /. (makespan *. float_of_int workers) else 1.0);
  }

let hoist_clusters groups =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun g ->
      match g.Eva_core.Optimize.hoist_rotations with
      | leader :: _ as members ->
          List.iter (fun m -> Hashtbl.replace tbl m.Ir.id leader.Ir.id) members
      | [] -> ())
    groups;
  tbl

let simulate ?clusters p ~cost ~workers =
  if workers < 1 then invalid_arg "Makespan.simulate: workers >= 1";
  let nodes = Ir.topological p in
  match clusters with
  | None ->
      let parents_in n = Array.to_list n.Ir.parms in
      let children_in n = n.Ir.uses in
      stats_of ~workers (schedule_nodes nodes ~cost ~workers ~parents_in ~children_in)
  | Some cl ->
      (* Coarsened DAG: every cluster collapses onto its representative,
         which runs the whole cluster's work on one worker (that is what
         the parallel executor does for a hoist group — satellites are
         never separately claimable). External edges are re-pointed at
         representatives and deduplicated so indegrees stay exact;
         representative order inherits the topological order, so the
         coarse node list stays dependency-closed. *)
      let rep_id n = Option.value (Hashtbl.find_opt cl n.Ir.id) ~default:n.Ir.id in
      let members : (int, Ir.node list) Hashtbl.t = Hashtbl.create 64 in
      List.iter
        (fun n ->
          let r = rep_id n in
          Hashtbl.replace members r (n :: Option.value (Hashtbl.find_opt members r) ~default:[]))
        (List.rev nodes);
      let reps = List.filter (fun n -> rep_id n = n.Ir.id) nodes in
      let node_by_id = Hashtbl.create 64 in
      List.iter (fun n -> Hashtbl.replace node_by_id n.Ir.id n) reps;
      let cluster_cost n =
        List.fold_left (fun acc m -> acc +. cost m) 0.0 (Hashtbl.find members n.Ir.id)
      in
      let neighbors proj n =
        Hashtbl.find members n.Ir.id
        |> List.concat_map (fun m ->
               List.filter_map
                 (fun q ->
                   let r = rep_id q in
                   if r = n.Ir.id then None else Some r)
                 (proj m))
        |> List.sort_uniq compare
        |> List.map (Hashtbl.find node_by_id)
      in
      let parents_in n = neighbors (fun m -> Array.to_list m.Ir.parms) n in
      let children_in n = neighbors (fun m -> m.Ir.uses) n in
      stats_of ~workers (schedule_nodes reps ~cost:cluster_cost ~workers ~parents_in ~children_in)

let simulate_bulk_synchronous p ~cost ~workers ~group =
  if workers < 1 then invalid_arg "Makespan.simulate_bulk_synchronous: workers >= 1";
  let nodes = Ir.topological p in
  List.iter
    (fun n ->
      Array.iter
        (fun parent ->
          if group parent > group n then
            invalid_arg "Makespan.simulate_bulk_synchronous: group assignment violates dependencies")
        n.Ir.parms)
    nodes;
  let by_group = Hashtbl.create 16 in
  List.iter
    (fun n ->
      let g = group n in
      Hashtbl.replace by_group g (n :: (Option.value (Hashtbl.find_opt by_group g) ~default:[])))
    (List.rev nodes);
  let group_ids = List.sort_uniq compare (List.map group nodes) in
  let total_makespan = ref 0.0 and total_work = ref 0.0 and total_cp = ref 0.0 in
  List.iter
    (fun g ->
      let members = Hashtbl.find by_group g in
      let in_group m = group m = g in
      let parents_in n = List.filter in_group (Array.to_list n.Ir.parms) in
      let children_in n = List.filter in_group n.Ir.uses in
      let ms, w, cp = schedule_nodes members ~cost ~workers ~parents_in ~children_in in
      total_makespan := !total_makespan +. ms;
      total_work := !total_work +. w;
      total_cp := !total_cp +. cp)
    group_ids;
  stats_of ~workers (!total_makespan, !total_work, !total_cp)
