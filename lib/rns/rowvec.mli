(** Flat 64-bit-word residue rows.

    One residue row is a [Bigarray.Array1] of native OCaml ints
    (c_layout, one 8-byte word per residue, unboxed access): the flat,
    contiguous representation the NTT and pointwise kernels run over. A
    polynomial's rows are zero-copy {!sub} views into one contiguous
    [r * n] buffer, so the whole residue matrix is one allocation off
    the OCaml heap — worker domains touching different rows never share
    cache lines with the GC, and a future C/SIMD kernel can take the
    base pointer directly. *)

type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(** Fresh zeroed vector of [n] words. *)
val make : int -> t

(** Fresh {e uninitialized} vector (for buffers about to be overwritten
    wholesale). *)
val create : int -> t

(** Element access is declared [external] so that every call site, in
    any module, compiles to an inline load or store even under
    [-opaque] (dune's default profile); [get]/[set] bounds-check and
    raise [Invalid_argument], the [unsafe_] forms do not. *)

external length : t -> int = "%caml_ba_dim_1"
external get : t -> int -> int = "%caml_ba_ref_1"
external set : t -> int -> int -> unit = "%caml_ba_set_1"
external unsafe_get : t -> int -> int = "%caml_ba_unsafe_ref_1"
external unsafe_set : t -> int -> int -> unit = "%caml_ba_unsafe_set_1"

(** [sub v off len] is a zero-copy view sharing [v]'s storage. *)
val sub : t -> int -> int -> t

(** [blit src dst] copies [src] into [dst] (equal lengths). *)
val blit : t -> t -> unit

val fill : t -> int -> unit
val copy : t -> t
val init : int -> (int -> int) -> t
val of_array : int array -> t
val to_array : t -> int array
val equal : t -> t -> bool

(** [alloc_rows ~count ~n] is one contiguous [count * n] zeroed buffer
    exposed as [count] row views. *)
val alloc_rows : count:int -> n:int -> t array
