type layer = Parse | Validate | Compile | Wire | Execute | Crypto

type t = {
  code : int;
  layer : layer;
  message : string;
  node_id : int option;
  op : string option;
  pos : (int * int) option;
}

exception Error of t

let parse_syntax = 101
let parse_number = 102
let parse_unknown_name = 103
let parse_duplicate = 104
let parse_structure = 105
let validate_arity = 201
let validate_scale = 202
let validate_poly_count = 203
let validate_rescale = 204
let validate_structure = 205
let validate_relin_placement = 206
let validate_batch = 207
let validate_packing = 208
let compile_pass_state = 301
let compile_selection = 302
let wire_truncated = 401
let wire_token = 402
let wire_length = 403
let wire_mismatch = 404
let exec_missing_inputs = 501
let exec_bad_operands = 502
let exec_rescale_mismatch = 503
let exec_workers_died = 504
let exec_timeout = 505
let exec_retry_exhausted = 506
let exec_node_failed = 507
let exec_config = 508
let exec_overload = 509
let crypto_level = 601
let crypto_scale = 602
let crypto_size = 603
let crypto_missing_key = 604
let crypto_context = 605
let crypto_security = 606
let crypto_key_depth = 607

let layer_of_code code =
  match code / 100 with
  | 1 -> Parse
  | 2 -> Validate
  | 3 -> Compile
  | 4 -> Wire
  | 5 -> Execute
  | _ -> Crypto

let exit_code = function
  | Parse -> 3
  | Validate -> 4
  | Compile -> 5
  | Wire -> 6
  | Execute -> 7
  | Crypto -> 8

let make ?node_id ?op ?pos ~layer ~code message = { code; layer; message; node_id; op; pos }

let error ?node_id ?op ?pos ~layer ~code fmt =
  Format.kasprintf (fun message -> raise (Error (make ?node_id ?op ?pos ~layer ~code message))) fmt

let code_string t = Printf.sprintf "EVA-E%03d" t.code

let to_string ?file t =
  let where =
    match (file, t.pos) with
    | Some f, Some (line, col) -> Printf.sprintf " %s:%d:%d:" f line col
    | Some f, None -> Printf.sprintf " %s:" f
    | None, Some (line, col) -> Printf.sprintf " %d:%d:" line col
    | None, None -> ""
  in
  let anchor =
    match (t.node_id, t.op) with
    | Some id, Some op -> Printf.sprintf " [node %d, %s]" id op
    | Some id, None -> Printf.sprintf " [node %d]" id
    | None, _ -> ""
  in
  Printf.sprintf "%s%s %s%s" (code_string t) where t.message anchor

(* Classifiers translate legacy exception types (the scheme layer's
   typed mismatches, the parser's positioned error) into [t] without
   this base library depending on the layers that define them. The list
   is only ever appended to, at module-initialization time. *)
let classifiers : (exn -> t option) list ref = ref []

let register_classifier f = classifiers := f :: !classifiers

let classify = function
  | Error t -> Some t
  | e ->
      let rec go = function
        | [] -> None
        | f :: rest -> ( match f e with Some t -> Some t | None -> go rest)
      in
      go !classifiers

let describe ?file e = Option.map (to_string ?file) (classify e)
