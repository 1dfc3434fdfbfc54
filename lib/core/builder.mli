(** A combinator frontend for writing EVA programs directly in OCaml —
    the counterpart of the paper's PyEVA.

    Expressions remember the program they belong to, so the operators can
    be used infix after [let open Eva_core.Builder.Infix in ...]:

    {[
      let b = Builder.create ~vec_size:4096 () in
      let x = Builder.input b ~scale:30 "image" in
      let y = Infix.(x * x + Builder.const_scalar b ~scale:30 0.5) in
      Builder.output b "result" ~scale:30 y
    ]} *)

type t
type expr

val create : ?name:string -> vec_size:int -> unit -> t

(** Encrypted input. [scale] is log2 of the fixed-point scale. *)
val input : t -> scale:int -> string -> expr

(** Plaintext vector input. *)
val vector_input : t -> scale:int -> string -> expr

(** Plaintext scalar input. *)
val scalar_input : t -> scale:int -> string -> expr

(** Compile-time vector constant; its size must divide [vec_size]. *)
val const_vector : t -> scale:int -> float array -> expr

val const_scalar : t -> scale:int -> float -> expr

val neg : expr -> expr
val add : expr -> expr -> expr
val sub : expr -> expr -> expr
val mul : expr -> expr -> expr
val rotate_left : expr -> int -> expr
val rotate_right : expr -> int -> expr

(** [power x k] for [k >= 1] by square-and-multiply. *)
val power : expr -> int -> expr

(** [sum_slots ~span x] adds [log2 span] rotations so the first slot holds
    the sum of slots [0..span-1] (span a power of two). Every slot [i]
    holds the sum of [span] consecutive slots starting at [i]. *)
val sum_slots : t -> span:int -> expr -> expr

(** [polynomial b ~scale coeffs x] evaluates [c0 + c1 x + c2 x^2 + ...]
    with plaintext coefficients encoded at [scale]; zero coefficients are
    skipped. *)
val polynomial : t -> scale:int -> float list -> expr -> expr

val output : t -> string -> scale:int -> expr -> unit

(** The underlying program (shared, not copied). *)
val program : t -> Ir.program

(** The IR node an expression denotes (for frontends that need scale or
    type introspection mid-construction). *)
val ir_node : expr -> Ir.node

module Infix : sig
  val ( + ) : expr -> expr -> expr
  val ( - ) : expr -> expr -> expr
  val ( * ) : expr -> expr -> expr
  val ( ~- ) : expr -> expr

  (** Rotations, in PyEVA style: [x << k] rotates left. *)
  val ( << ) : expr -> int -> expr

  val ( >> ) : expr -> int -> expr
end
