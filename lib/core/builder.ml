type t = { prog : Ir.program; mutable declared : (string * Ir.value_type) list }
type expr = { b : t; node : Ir.node }

let create ?name ~vec_size () = { prog = Ir.create_program ?name ~vec_size (); declared = [] }

let declare b name vtype scale =
  if List.mem_assoc name b.declared then invalid_arg (Printf.sprintf "Builder: duplicate input %S" name);
  b.declared <- (name, vtype) :: b.declared;
  { b; node = Ir.add_node ~decl_scale:scale b.prog (Ir.Input (vtype, name)) [] }

let input b ~scale name = declare b name Ir.Cipher scale
let vector_input b ~scale name = declare b name Ir.Vector scale
let scalar_input b ~scale name = declare b name Ir.Scalar scale

let const_vector b ~scale values =
  { b; node = Ir.add_node ~decl_scale:scale b.prog (Ir.Constant (Ir.Const_vector (Array.copy values))) [] }

let const_scalar b ~scale v =
  { b; node = Ir.add_node ~decl_scale:scale b.prog (Ir.Constant (Ir.Const_scalar v)) [] }

let same_program a c = if a.b != c.b then invalid_arg "Builder: expressions from different programs"

let unary e op = { e with node = Ir.add_node e.b.prog op [ e.node ] }

let binary a c op =
  same_program a c;
  { a with node = Ir.add_node a.b.prog op [ a.node; c.node ] }

let neg e = unary e Ir.Negate
let add a c = binary a c Ir.Add
let sub a c = binary a c Ir.Sub
let mul a c = binary a c Ir.Multiply
let rotate_left e k = unary e (Ir.Rotate_left k)
let rotate_right e k = unary e (Ir.Rotate_right k)

let rec power e k =
  if k < 1 then invalid_arg "Builder.power: exponent must be >= 1"
  else if k = 1 then e
  else begin
    let half = power e (k / 2) in
    let sq = mul half half in
    if k land 1 = 0 then sq else mul sq e
  end

let sum_slots b ~span e =
  if span < 1 || span land (span - 1) <> 0 then invalid_arg "Builder.sum_slots: span must be a power of two";
  ignore b;
  Simd.rotate_and_sum ~add ~rotate:rotate_left ~count:span ~step:1 e

let polynomial b ~scale coeffs x =
  let terms = List.mapi (fun i c -> (i, c)) coeffs |> List.filter (fun (_, c) -> c <> 0.0) in
  match terms with
  | [] -> mul x (const_scalar b ~scale 0.0)
  | _ ->
      let term (i, c) = if i = 0 then None else Some (mul (power x i) (const_scalar b ~scale c)) in
      let monomials = List.filter_map term terms in
      let sum =
        match monomials with
        | [] -> mul x (const_scalar b ~scale 0.0)
        | m :: rest -> List.fold_left add m rest
      in
      if List.mem_assoc 0 terms then add sum (const_scalar b ~scale (List.assoc 0 terms)) else sum

let output b name ~scale e =
  if e.b != b then invalid_arg "Builder.output: expression from a different program";
  ignore (Ir.add_node ~decl_scale:scale b.prog (Ir.Output name) [ e.node ])

let program b = b.prog
let ir_node e = e.node

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( ~- ) = neg
  let ( << ) = rotate_left
  let ( >> ) = rotate_right
end
