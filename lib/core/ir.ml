type value_type = Cipher | Vector | Scalar

type constant_value = Const_vector of float array | Const_scalar of float

type op =
  | Constant of constant_value
  | Input of value_type * string  (* runtime binding name *)
  | Negate
  | Add
  | Sub
  | Multiply
  | Rotate_left of int
  | Rotate_right of int
  | Relinearize
  | Mod_switch
  | Rescale of int
  | Output of string

type node = {
  id : int;
  mutable op : op;
  mutable parms : node array;
  mutable uses : node list;
  mutable decl_scale : int;
}

type program = {
  prog_name : string;
  vec_size : int;
  mutable next_id : int;
  mutable all_nodes : node list;
}

let create_program ?(name = "program") ~vec_size () =
  if vec_size < 1 || vec_size land (vec_size - 1) <> 0 then
    invalid_arg "Ir.create_program: vec_size must be a power of two";
  { prog_name = name; vec_size; next_id = 0; all_nodes = [] }

let add_node ?(decl_scale = 0) p op parms =
  let n = { id = p.next_id; op; parms = Array.of_list parms; uses = []; decl_scale } in
  p.next_id <- p.next_id + 1;
  List.iter (fun parent -> parent.uses <- n :: parent.uses) parms;
  p.all_nodes <- n :: p.all_nodes;
  n

let remove_use parent child = parent.uses <- List.filter (fun u -> u != child) parent.uses

(* The same parent may appear in several parameter slots; drop exactly one
   use edge. *)
let drop_one_use parent child =
  let dropped = ref false in
  let rec go = function
    | [] -> []
    | u :: rest when (not !dropped) && u == child ->
        dropped := true;
        rest
    | u :: rest -> u :: go rest
  in
  parent.uses <- go parent.uses

let set_parm n i m =
  let old = n.parms.(i) in
  if old != m then begin
    drop_one_use old n;
    n.parms.(i) <- m;
    m.uses <- n :: m.uses
  end

let insert_between ?(decl_scale = 0) ?(child_filter = fun _ -> true) p n op extra_parms =
  let old_uses = List.filter child_filter n.uses in
  let m = add_node ~decl_scale p op (n :: extra_parms) in
  List.iter
    (fun child ->
      if child != m then
        Array.iteri (fun i parent -> if parent == n then set_parm child i m) child.parms)
    old_uses;
  m

let is_instruction n = match n.op with Constant _ | Input _ -> false | _ -> true
let is_fhe_specific = function Relinearize | Mod_switch | Rescale _ -> true | _ -> false

let outputs p = List.rev (List.filter (fun n -> match n.op with Output _ -> true | _ -> false) p.all_nodes)
let inputs p = List.rev (List.filter (fun n -> match n.op with Input _ -> true | _ -> false) p.all_nodes)
let constants p = List.rev (List.filter (fun n -> match n.op with Constant _ -> true | _ -> false) p.all_nodes)

let prune p =
  let live = Hashtbl.create 64 in
  let rec mark n =
    if not (Hashtbl.mem live n.id) then begin
      Hashtbl.replace live n.id ();
      Array.iter mark n.parms
    end
  in
  List.iter mark (outputs p);
  let keep, drop = List.partition (fun n -> Hashtbl.mem live n.id) p.all_nodes in
  List.iter (fun dead -> Array.iter (fun parent -> remove_use parent dead) dead.parms) drop;
  p.all_nodes <- keep

let copy ?vec_size ?(map_op = fun op -> op) p =
  let vec_size =
    match vec_size with
    | None -> p.vec_size
    | Some vs ->
        if vs < 1 || vs land (vs - 1) <> 0 then
          invalid_arg "Ir.copy: vec_size must be a power of two";
        vs
  in
  let q = { p with vec_size; all_nodes = []; next_id = 0 } in
  let map = Hashtbl.create 64 in
  let rec clone n =
    match Hashtbl.find_opt map n.id with
    | Some m -> m
    | None ->
        let parms = Array.to_list (Array.map clone n.parms) in
        let m = add_node ~decl_scale:n.decl_scale q (map_op n.op) parms in
        Hashtbl.replace map n.id m;
        m
  in
  List.iter (fun n -> ignore (clone n)) (List.rev p.all_nodes);
  q

(* A small mutable min-heap on node ids, so topological order is
   deterministic (smallest ready id first). Determinism makes serialized
   output canonical: a parsed program re-serializes to the same text. *)
module Heap = struct
  type 'a t = { mutable data : (int * 'a) array; mutable size : int }

  let create () = { data = [||]; size = 0 }

  let push h key v =
    if h.size = Array.length h.data then begin
      let bigger = Array.make (max 16 (2 * h.size)) (key, v) in
      Array.blit h.data 0 bigger 0 h.size;
      h.data <- bigger
    end;
    h.data.(h.size) <- (key, v);
    let i = ref h.size in
    h.size <- h.size + 1;
    while !i > 0 && fst h.data.((!i - 1) / 2) > fst h.data.(!i) do
      let parent = (!i - 1) / 2 in
      let tmp = h.data.(parent) in
      h.data.(parent) <- h.data.(!i);
      h.data.(!i) <- tmp;
      i := parent
    done

  let pop h =
    let top = snd h.data.(0) in
    h.size <- h.size - 1;
    h.data.(0) <- h.data.(h.size);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.size && fst h.data.(l) < fst h.data.(!smallest) then smallest := l;
      if r < h.size && fst h.data.(r) < fst h.data.(!smallest) then smallest := r;
      if !smallest = !i then continue := false
      else begin
        let tmp = h.data.(!smallest) in
        h.data.(!smallest) <- h.data.(!i);
        h.data.(!i) <- tmp;
        i := !smallest
      end
    done;
    top

  let is_empty h = h.size = 0
end

let topological p =
  let nodes = List.rev p.all_nodes in
  let indeg = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace indeg n.id (Array.length n.parms)) nodes;
  let heap = Heap.create () in
  List.iter (fun n -> if Array.length n.parms = 0 then Heap.push heap n.id n) nodes;
  let order = ref [] and emitted = ref 0 in
  while not (Heap.is_empty heap) do
    let n = Heap.pop heap in
    order := n :: !order;
    incr emitted;
    List.iter
      (fun u ->
        let d = Hashtbl.find indeg u.id - 1 in
        Hashtbl.replace indeg u.id d;
        if d = 0 then Heap.push heap u.id u)
      n.uses
  done;
  if !emitted <> List.length nodes then failwith "Ir.topological: cycle detected";
  List.rev !order

let reverse_topological p = List.rev (topological p)

let node_count p = List.length p.all_nodes

let value_type_name = function Cipher -> "cipher" | Vector -> "vector" | Scalar -> "scalar"

let op_name = function
  | Constant _ -> "constant"
  | Input _ -> "input"
  | Negate -> "negate"
  | Add -> "add"
  | Sub -> "sub"
  | Multiply -> "multiply"
  | Rotate_left _ -> "rotate_left"
  | Rotate_right _ -> "rotate_right"
  | Relinearize -> "relinearize"
  | Mod_switch -> "modswitch"
  | Rescale _ -> "rescale"
  | Output _ -> "output"
