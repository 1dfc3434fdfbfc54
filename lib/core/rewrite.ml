let run order p rule =
  let changed = ref false in
  List.iter (fun n -> if rule n then changed := true) (order p);
  !changed

let forward p rule = run Ir.topological p rule

let until_quiescence ?(max_rounds = 100) passes =
  let rec go round =
    if round > max_rounds then failwith "Rewrite.until_quiescence: no fixpoint reached";
    let changed = List.fold_left (fun acc pass -> pass () || acc) false passes in
    if changed then go (round + 1)
  in
  go 1
