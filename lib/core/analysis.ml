exception Analysis_error of string

let () =
  Eva_diag.Diag.register_classifier (function
    | Analysis_error m ->
        Some (Eva_diag.Diag.make ~layer:Eva_diag.Diag.Validate ~code:Eva_diag.Diag.validate_structure m)
    | _ -> None)

let fail fmt = Format.kasprintf (fun s -> raise (Analysis_error s)) fmt

type chain = int option list

let types p =
  let tbl = Hashtbl.create 64 in
  let get n = Hashtbl.find tbl n.Ir.id in
  List.iter
    (fun n ->
      let t =
        match n.Ir.op with
        | Ir.Input (t, _) -> t
        | Ir.Constant (Ir.Const_vector _) -> Ir.Vector
        | Ir.Constant (Ir.Const_scalar _) -> Ir.Scalar
        | _ ->
            let parm_types = Array.to_list (Array.map get n.Ir.parms) in
            if List.mem Ir.Cipher parm_types then Ir.Cipher
            else if List.mem Ir.Vector parm_types then Ir.Vector
            else Ir.Scalar
      in
      Hashtbl.replace tbl n.Ir.id t)
    (Ir.topological p);
  tbl

let scale_formula ~is_cipher ~get n =
  match n.Ir.op with
  | Ir.Input _ | Ir.Constant _ -> n.Ir.decl_scale
  | Ir.Negate | Ir.Rotate_left _ | Ir.Rotate_right _ | Ir.Relinearize | Ir.Mod_switch | Ir.Output _ ->
      get n.Ir.parms.(0)
  | Ir.Rescale k -> get n.Ir.parms.(0) - k
  | Ir.Multiply -> get n.Ir.parms.(0) + get n.Ir.parms.(1)
  | Ir.Add | Ir.Sub ->
      let a = n.Ir.parms.(0) and b = n.Ir.parms.(1) in
      if is_cipher a then get a else if is_cipher b then get b else max (get a) (get b)

let scales p =
  let ty = types p in
  let tbl = Hashtbl.create 64 in
  let get n = Hashtbl.find tbl n.Ir.id in
  let is_cipher n = Hashtbl.find ty n.Ir.id = Ir.Cipher in
  List.iter
    (fun n -> Hashtbl.replace tbl n.Ir.id (scale_formula ~is_cipher ~get n))
    (Ir.topological p);
  tbl

let chain_entries_equal a b = match (a, b) with Some x, Some y -> x = y | _ -> true

let merge_chains ~where a b =
  if List.length a <> List.length b then
    fail "%s: rescale chains have different lengths (%d vs %d)" where (List.length a) (List.length b)
  else
    List.map2
      (fun x y ->
        if not (chain_entries_equal x y) then fail "%s: rescale chains disagree" where
        else match x with Some _ -> x | None -> y)
      a b

let chains p =
  let ty = types p in
  let is_cipher n = Hashtbl.find ty n.Ir.id = Ir.Cipher in
  let tbl = Hashtbl.create 64 in
  let get n = Hashtbl.find tbl n.Ir.id in
  List.iter
    (fun n ->
      if is_cipher n then begin
        let c =
          match n.Ir.op with
          | Ir.Input _ -> []
          | Ir.Constant _ -> fail "node %d: Cipher constants are not allowed" n.Ir.id
          | Ir.Rescale k -> get n.Ir.parms.(0) @ [ Some k ]
          | Ir.Mod_switch -> get n.Ir.parms.(0) @ [ None ]
          | Ir.Add | Ir.Sub | Ir.Multiply -> begin
              let cipher_parms = List.filter is_cipher (Array.to_list n.Ir.parms) in
              match cipher_parms with
              | [ a ] -> get a
              | [ a; b ] -> merge_chains ~where:(Printf.sprintf "%s node %d" (Ir.op_name n.Ir.op) n.Ir.id) (get a) (get b)
              | _ -> fail "node %d: binary op with %d cipher operands" n.Ir.id (List.length cipher_parms)
            end
          | Ir.Negate | Ir.Rotate_left _ | Ir.Rotate_right _ | Ir.Relinearize | Ir.Output _ -> get n.Ir.parms.(0)
        in
        Hashtbl.replace tbl n.Ir.id c
      end)
    (Ir.topological p);
  tbl

let levels p =
  let c = chains p in
  let tbl = Hashtbl.create 64 in
  Hashtbl.iter (fun id ch -> Hashtbl.replace tbl id (List.length ch)) c;
  tbl

let rlevels p =
  let ty = types p in
  let is_cipher n = Hashtbl.find ty n.Ir.id = Ir.Cipher in
  let tbl = Hashtbl.create 64 in
  let get n = Hashtbl.find tbl n.Ir.id in
  List.iter
    (fun n ->
      if is_cipher n then begin
        let self = match n.Ir.op with Ir.Rescale _ | Ir.Mod_switch -> 1 | _ -> 0 in
        let child_levels = List.filter_map (fun c -> if is_cipher c then Some (get c) else None) n.Ir.uses in
        let below =
          match child_levels with
          | [] -> 0
          | v :: rest ->
              List.iter
                (fun w -> if w <> v then fail "node %d: children have non-conforming transpose levels (%d vs %d)" n.Ir.id v w)
                rest;
              v
        in
        Hashtbl.replace tbl n.Ir.id (self + below)
      end)
    (Ir.reverse_topological p);
  tbl

let num_polys p =
  let ty = types p in
  let is_cipher n = Hashtbl.find ty n.Ir.id = Ir.Cipher in
  let tbl = Hashtbl.create 64 in
  let get n = Hashtbl.find tbl n.Ir.id in
  List.iter
    (fun n ->
      let k =
        if not (is_cipher n) then 0
        else begin
          match n.Ir.op with
          | Ir.Input _ -> 2
          | Ir.Relinearize -> 2
          | Ir.Multiply ->
              let a = n.Ir.parms.(0) and b = n.Ir.parms.(1) in
              if is_cipher a && is_cipher b then get a + get b - 1 else max (get a) (get b)
          | _ ->
              Array.fold_left (fun acc parent -> max acc (get parent)) 0 n.Ir.parms
        end
      in
      Hashtbl.replace tbl n.Ir.id k)
    (Ir.topological p);
  tbl

(* Left steps are positive, right steps negative. A right step cannot be
   folded to [vec_size - k]: the ciphertext slot count may exceed vec_size
   (tiled inputs), and only the executor knows it. [None] for a node
   that needs no rotation key. *)
let rotation_step p n =
  let norm k = ((k mod p.Ir.vec_size) + p.Ir.vec_size) mod p.Ir.vec_size in
  match n.Ir.op with
  | Ir.Rotate_left k when norm k <> 0 -> Some (norm k)
  | Ir.Rotate_right k when norm k <> 0 -> Some (-norm k)
  | _ -> None

let rotation_steps p =
  let ty = types p in
  let steps = Hashtbl.create 16 in
  List.iter
    (fun n ->
      if Hashtbl.find ty n.Ir.id = Ir.Cipher then Option.iter (fun step -> Hashtbl.replace steps step ()) (rotation_step p n))
    p.Ir.all_nodes;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) steps [])

(* [chains] holds exactly the Cipher nodes, so it doubles as their type. *)
let key_levels p ~chains =
  let least = Hashtbl.create 16 in
  List.iter
    (fun n ->
      match Hashtbl.find_opt chains n.Ir.id with
      | None -> ()
      | Some ch ->
          let note key =
            let l = List.length ch in
            Hashtbl.replace least key (min l (Option.value (Hashtbl.find_opt least key) ~default:l))
          in
          (match (n.Ir.op, rotation_step p n) with
          | _, Some step -> note (Some step)
          | Ir.Relinearize, None -> note None
          | _ -> ()))
    p.Ir.all_nodes;
  let steps = Hashtbl.fold (fun key l acc -> match key with Some s -> (s, l) :: acc | None -> acc) least [] in
  (List.sort compare steps, Hashtbl.find_opt least None)

let multiplicative_depth p =
  let ty = types p in
  let tbl = Hashtbl.create 64 in
  let get n = Hashtbl.find tbl n.Ir.id in
  let depth = ref 0 in
  List.iter
    (fun n ->
      let d =
        let base = Array.fold_left (fun acc parent -> max acc (get parent)) 0 n.Ir.parms in
        match n.Ir.op with
        | Ir.Multiply when Hashtbl.find ty n.Ir.id = Ir.Cipher -> base + 1
        | _ -> base
      in
      Hashtbl.replace tbl n.Ir.id d;
      depth := max !depth d)
    (Ir.topological p);
  !depth
