(** The EVA language: programs as term graphs (DAGs).

    A program is a set of nodes (Table 2 of the paper): constants and
    inputs are roots; instructions compute values from their parameters;
    every program output is a distinct [Output] leaf node, so graph
    rewrites that splice a node between an instruction and its children
    automatically cover outputs.

    Scales are tracked in log2 throughout ("30" means a scale of 2^30);
    the paper's protobuf stores absolute doubles, but every scale arising
    in EVA is a power of two (inputs are declared so, MULTIPLY adds
    exponents, RESCALE subtracts them). *)

type value_type =
  | Cipher  (** encrypted vector of fixed-point values *)
  | Vector  (** plaintext vector of 64-bit floats *)
  | Scalar  (** single 64-bit float, broadcast over slots *)

type constant_value = Const_vector of float array | Const_scalar of float

type op =
  | Constant of constant_value
  | Input of value_type * string  (** runtime binding name *)
  | Negate
  | Add
  | Sub
  | Multiply
  | Rotate_left of int
  | Rotate_right of int
  | Relinearize  (** compiler-inserted only *)
  | Mod_switch  (** compiler-inserted only *)
  | Rescale of int  (** compiler-inserted only; log2 of the divisor *)
  | Output of string

type node = private {
  id : int;
  mutable op : op;
  mutable parms : node array;
  mutable uses : node list;  (** children, including [Output] leaves *)
  (* Declared log2 scale: meaningful for [Input], [Constant] (encoding
     scale) and [Output] (desired output scale). *)
  mutable decl_scale : int;
}

type program = {
  prog_name : string;
  vec_size : int;
  mutable next_id : int;
  mutable all_nodes : node list;  (** reverse creation order *)
}

val create_program : ?name:string -> vec_size:int -> unit -> program

(** [add_node p op parms] appends a fresh node and links use edges. *)
val add_node : ?decl_scale:int -> program -> op -> node list -> node

(** [set_parm n i m] redirects parameter [i] of [n] to [m], maintaining use
    lists on both sides. *)
val set_parm : node -> int -> node -> unit

(** [insert_between p n ~child_filter op ~decl_scale extra_parms] creates a
    node [m] with parameters [n :: extra_parms] and redirects every present
    use of [n] accepted by [child_filter] to go through [m]. Returns [m]. *)
val insert_between :
  ?decl_scale:int -> ?child_filter:(node -> bool) -> program -> node -> op -> node list -> node

(** Remove nodes unreachable from outputs (used after rewrites). *)
val prune : program -> unit

(** Deep copy (fresh nodes, same structure); the transformation passes
    mutate programs in place, so callers compiling one source under
    several policies copy first. [?vec_size] gives the copy a different
    slot width (must be a power of two); [?map_op] rewrites each node's
    op during cloning — both are the substrate for the slot-batching
    rewrite in {!Passes.batch}. *)
val copy : ?vec_size:int -> ?map_op:(op -> op) -> program -> program

val is_instruction : node -> bool
val is_fhe_specific : op -> bool

val outputs : program -> node list
val inputs : program -> node list
val constants : program -> node list

(** Nodes in parents-before-children order. *)
val topological : program -> node list

(** Nodes in children-before-parents order. *)
val reverse_topological : program -> node list

val node_count : program -> int

(** Canonical lowercase name of a value type ("cipher" / "vector" /
    "scalar") — the one mapping shared by the printer, the serializer
    and the CLI. *)
val value_type_name : value_type -> string

val op_name : op -> string
