(** The one domain fan-out helper: key generation runs its key digits
    and the executor encrypts a request's inputs through it. *)

(** [map ~workers f items] is [List.map f items], computed on
    [min workers (List.length items)] domains (the caller's included)
    that claim items one at a time, so uneven item costs still
    balance. [f] must not depend on which domain runs it or in what
    order items run. If any [f] raises, the remaining unclaimed items
    are skipped and one of the exceptions is re-raised after every
    domain has joined. *)
val map : workers:int -> ('a -> 'b) -> 'a list -> 'b list
