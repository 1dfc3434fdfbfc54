(** A small domain-specific frontend for image processing on encrypted
    images, in the spirit of the paper's Section 7: a frontend library
    that emits EVA input programs, leaving all FHE-specific reasoning to
    the compiler.

    Images are square, one per ciphertext vector, row-major. Stencils
    become rotate-and-scale sums; pointwise nonlinearities become
    polynomial approximations (homomorphic evaluation cannot branch or
    compare, so thresholding and similar operations stay client-side).

    The Sobel and Harris applications of Table 8 are expressible in a
    handful of lines on top of this module; see
    [examples/image_pipeline.ml]. *)

type t
type image

(** [create ~dim ()] starts a pipeline for [dim x dim] images ([dim] a
    power of two; the vector size is [dim * dim]). *)
val create : ?name:string -> ?cipher_scale:int -> ?weight_scale:int -> dim:int -> unit -> t

val dim : t -> int

(** Declare an encrypted input image. *)
val input : t -> string -> image

(** [stencil t k img] applies a centered odd-sized square stencil
    [k.(di).(dj)] with zero padding outside the image: one rotation and
    one scalar multiply per nonzero tap, plus border-correction masks. *)
val stencil : t -> float array array -> image -> image

(** Classic stencils. *)
val sobel_x : t -> image -> image

val sobel_y : t -> image -> image
val gaussian3 : t -> image -> image
val laplacian : t -> image -> image
val box3 : t -> image -> image

(** Gradient magnitude via the paper's cubic sqrt approximation. *)
val magnitude : t -> image -> image -> image

val add : image -> image -> image
val sub : image -> image -> image
val mul : image -> image -> image
val scale_by : t -> float -> image -> image

(** Mark an image as a program output. *)
val output : t -> string -> image -> unit

(** The completed EVA input program. *)
val program : t -> Eva_core.Ir.program

(** Runtime binding for an input image (row-major pixels). *)
val binding : t -> string -> float array -> string * Eva_core.Reference.binding

(** Plain oracle for {!stencil} (zero-padded convolution), for tests. *)
val stencil_reference : dim:int -> float array array -> float array -> float array
