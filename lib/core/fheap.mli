(** Binary min-heap on float keys, shared by the makespan model and the
    executor's priority ready list. *)

type 'a t

val create : unit -> 'a t
val push : 'a t -> float -> 'a -> unit

(** Smallest key first; undefined on an empty heap. *)
val pop : 'a t -> float * 'a

val is_empty : 'a t -> bool
