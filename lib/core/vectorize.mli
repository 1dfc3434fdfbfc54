(** HECO-style auto-vectorization: pack isomorphic scalar chains into
    lanes of one ciphertext and lower accumulation folds to log-depth
    rotate-and-sum trees.

    The layout is lane-major: a program of [base] slots is widened to
    [base * span] slots, and lane [b] of a packed group owns the slot
    block [b*base, (b+1)*base). All values every lane shares are
    periodic in [base], so the rewrite is exactly
    semantics-preserving under the tiling input convention. *)

type in_group = {
  packed_input : string;  (** name of the widened Input node *)
  members : string array;  (** original per-element input names, lane order *)
  in_type : Ir.value_type;  (** [Cipher], or [Vector] for packed plaintext lanes *)
  in_scale : int;
  in_span : int;  (** lanes reserved: next_pow2 (Array.length members) *)
}

type out_group = {
  packed_output : string;
  out_members : string array;  (** original output names, lane order *)
  out_span : int;
}

type packing = {
  base : int;  (** the original program's vec_size *)
  in_groups : in_group list;
  out_groups : out_group list;
}

(** Scale (log2) at which 0/1 pad masks are encoded. *)
val mask_scale : int

(** [run p] returns the vectorized program and its packing, or [(p,
    None)] unchanged when no profitable group exists. The result is a
    fresh program ([p] is not mutated) widened to
    [base * max group span] slots. *)
val run : Ir.program -> Ir.program * packing option

(** Raised (classified EVA-E501) when some but not all member bindings
    of a packed group are present. *)
exception Missing_members of string list

(** [pack_bindings pk bindings] adapts per-element bindings to the
    vectorized program: for each input group whose packed name is not
    already bound, the member bindings are packed block by block (pad
    lanes zero); remaining vector bindings whose length does not
    divide [pk.base] are re-tiled at the original width so widening
    cannot change their value. Usable with {!Reference.execute} on the
    vectorized program as well as with the executor. *)
val pack_bindings :
  packing -> (string * Reference.binding) list -> (string * Reference.binding) list

(** [unpack_outputs pk outputs] scatters packed outputs back to the
    original names (member [b] is slots [b*base, (b+1)*base)) and trims
    every other output of the widened program to [base] slots. *)
val unpack_outputs : packing -> (string * float array) list -> (string * float array) list
