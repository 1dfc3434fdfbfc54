(** Graph rewriting framework (Section 5.1 of the paper).

    A pass applies a local rewrite rule at every node in a forward
    (parents-before-children) schedule. Rules may mutate the graph —
    typically splicing new nodes between the visited node and its
    children — and may keep per-node state in tables of their own; nodes created during the pass are not
    themselves visited (every EVA rule produces terminal insertions, so a
    single pass reaches quiescence; {!until_quiescence} covers rule sets
    that need repetition). *)

(** [forward p rule] visits every pre-existing node of [p] in topological
    order; [rule] returns [true] when it rewrote something. The result
    says whether any rewrite fired. *)
val forward : Ir.program -> (Ir.node -> bool) -> bool

(** [until_quiescence passes] repeatedly applies [passes] (each returns
    "changed") until none fires, with a safety bound on iterations. *)
val until_quiescence : ?max_rounds:int -> (unit -> bool) list -> unit
