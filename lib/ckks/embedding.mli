(** The CKKS canonical embedding as a special FFT.

    A real polynomial m of degree < N is identified with the vector of its
    evaluations at the primitive 2N-th roots of unity zeta^(5^j),
    j = 0..N/2-1 (one representative per conjugate orbit). The transform
    pair below converts between the N/2 complex slot values and the packed
    coefficient representation in O(N log N), following HEAAN/SEAL. *)

type t

(** [make ~slots] with [slots] a power of two (= N/2). *)
val make : slots:int -> t

val slots : t -> int

(** In-place: slot values -> packed "coefficient" complex vector [u], such
    that the real polynomial has coefficients
    [m_i = Re u_i], [m_(i+slots) = Im u_i]. *)
val embed_inverse : t -> Complex.t array -> unit

(** In-place inverse of {!embed_inverse}: packed coefficients -> slots. *)
val embed_forward : t -> Complex.t array -> unit
