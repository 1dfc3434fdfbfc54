(** Homomorphic tensor kernels emitting EVA IR, in the style of CHET's
    kernel library.

    A tensor is held in one or more ciphertexts in a {e strided CHW}
    layout (CHET's data layout selection): each ciphertext carries a
    group of [cpc] channels, and logical element (c, i, j) of channel
    group [c / cpc] sits at slot [(c mod cpc)*G + i*si*gw + j*sj] over a
    physical [gh x gw] grid with [G = gh*gw]. Strided convolutions and
    pools fold their stride into the layout, so each kernel needs one
    rotation per {e relative} offset and ciphertext pair, independent of
    position; a restride gathers the data back to a dense grid in three
    mask-and-rotate stages. Fully-connected layers use the
    baby-step/giant-step diagonal method per input ciphertext on a tiled
    power-of-two vector.

    Two lowering modes mirror the paper's comparison: [`Eva] emits plain
    arithmetic and lets the compiler place FHE instructions globally;
    [`Chet] additionally normalizes the working scale back to the cipher
    scale after every kernel (a multiply by 1 that the waterline pass
    turns into one rescale per kernel) — the per-kernel expert policy the
    paper attributes to CHET's runtime. *)

type mode = [ `Eva | `Chet ]

type ctx = {
  builder : Eva_core.Builder.t;
  weight_scale : int;  (** log2 scale for weights and FC diagonals *)
  mask_scale : int;  (** log2 scale for 0/1 selection masks (default 15) *)
  cipher_scale : int;  (** the waterline the Chet mode normalizes to *)
  s_f : int;
  mode : mode;
  rot_memo : (int * int, Eva_core.Builder.expr) Hashtbl.t;
      (** (source node id, step) -> rotation, so each distinct rotation of
          a ciphertext is emitted once and fans out of its source — the
          shape {!Eva_core.Optimize.rotation_groups} hoists. *)
}

val make_ctx :
  ?s_f:int -> ?mask_scale:int -> mode:mode -> weight_scale:int -> cipher_scale:int -> Eva_core.Builder.t -> ctx

type layout = {
  channels : int;
  height : int;  (** logical dimensions *)
  width : int;
  gh : int;  (** physical grid *)
  gw : int;
  si : int;  (** physical strides *)
  sj : int;
  cpc : int;  (** channels per ciphertext *)
}

type image = { exprs : Eva_core.Builder.expr array; layout : layout }

(** Slot index of logical element (c, i, j) within its ciphertext. *)
val slot : layout -> int -> int -> int -> int

val num_cts : layout -> int

(** Dense layout for a [c x h x w] tensor at vector size [vs]. Raises if
    the grid alone exceeds [vs]. *)
val dense : vs:int -> channels:int -> height:int -> width:int -> layout

(** Declare the encrypted inputs ("<name>_0", "<name>_1", ...) for a
    dense image. *)
val input_image : ctx -> scale:int -> name:string -> channels:int -> height:int -> width:int -> image

(** Runtime bindings for {!input_image}: slices a CHW array into the
    per-ciphertext vectors. *)
val image_bindings :
  vs:int -> layout:layout -> name:string -> float array -> (string * Eva_core.Reference.binding) list

(** Read back the logical CHW array from per-ciphertext output vectors
    (the inverse of {!image_bindings} for any layout). *)
val read_image : layout -> (int -> float array) -> float array

(** Emit one output node per ciphertext ("<name>_0", ...). *)
val output_image : ctx -> scale:int -> name:string -> image -> unit

(** 'same'-padded convolution; [weights.(o).(c).(di).(dj)], odd kernel. *)
val conv2d : ctx -> image -> weights:float array array array array -> stride:int -> image

(** Non-overlapping [k x k] average pool. *)
val avg_pool : ctx -> image -> k:int -> image

(** Mean over each channel; output is dense [channels x 1 x 1]. *)
val global_avg_pool : ctx -> image -> image

(** Gather to a dense [h x w] grid (no-op when already dense). *)
val restride_dense : ctx -> image -> image

(** Matrix-vector product via BSGS diagonals; output is dense
    [f x 1 x 1] in a single ciphertext. Restrides internally. *)
val fully_connected : ctx -> image -> weights:float array array -> image

(** k-term encrypted dot product: pairwise ciphertext products summed as
    a balanced tree — one relinearize for the whole reduction under the
    compiler's lazy placement, k under [--eager-relin]. *)
val dot : Eva_core.Builder.expr array -> Eva_core.Builder.expr array -> Eva_core.Builder.expr

(** 'same'-padded stride-1 convolution with encrypted weights
    [weights.(o).(c).(di).(dj)] (each a ciphertext with the scalar
    weight replicated across slots). Accumulates per output ciphertext
    in a balanced tree of cipher-cipher products. *)
val conv2d_cipher :
  ctx -> image -> weights:Eva_core.Builder.expr array array array array -> image

val square : ctx -> image -> image

(** Pointwise polynomial with plaintext coefficients. *)
val poly_act : ctx -> float list -> image -> image
