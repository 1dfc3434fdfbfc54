(** Network descriptions and their two interpretations: plain inference
    (via {!Tensor}) and homomorphic lowering to EVA IR (via {!Kernels}).

    This module plays the role of CHET's tensor-program frontend: a
    network is a list of high-level layers; [lower] emits one EVA input
    program per network, either in [`Eva] mode (plain arithmetic, the
    compiler inserts FHE instructions globally) or in [`Chet] mode
    (per-kernel scale normalization, reproducing CHET's expert-local
    policy). *)

type layer =
  | Conv of { out_channels : int; kernel : int; stride : int }
  | Avg_pool of int
  | Global_avg_pool
  | Restride  (** explicit gather to a dense grid (layout optimization) *)
  | Fc of int
  | Square
  | Poly of float list

type t = {
  net_name : string;
  input_channels : int;
  input_height : int;
  input_width : int;
  layers : layer list;
}

type layer_weights = Lw_conv of float array array array array | Lw_fc of float array array | Lw_none

type weights = layer_weights array

(** Seeded uniform weights in [-a, a] with a = sqrt(3 / fan-in), keeping
    activations O(1) — the paper evaluates its proprietary network with
    random weights the same way. *)
val random_weights : t -> seed:int -> weights

(** Plain (unencrypted) inference; input and output are CHW arrays. *)
val infer_plain : t -> weights -> float array -> float array

(** The vector size the lowered program uses. *)
val vec_size : t -> int

type scales = { cipher : int; weight : int; output : int }

type lowered = {
  program : Eva_core.Ir.program;
  input_layout : Kernels.layout;
  output_layout : Kernels.layout;
  scales : scales;
}

(** [lower ~mode ~scales net w] builds the EVA input program; the image
    input is named "image" (split as "image_0", ...), outputs "scores_0",
    ... *)
val lower : mode:Kernels.mode -> scales:scales -> t -> weights -> lowered

(** Runtime bindings for an input image. *)
val bindings : lowered -> float array -> (string * Eva_core.Reference.binding) list

(** Reassemble the logical output vector from named output vectors. *)
val read_outputs : lowered -> (string * float array) list -> float array

(** Count of homomorphic multiplications, rotations and additions in a
    lowered program (for reporting). *)
val op_counts : Eva_core.Ir.program -> (string * int) list
