(** Exponential backoff with decorrelated jitter.

    The retry discipline for every retry loop in the scheduling layer
    (request-level retries in {!Serve}, per-node retries granted by
    {!Fault.note_retry}): instead of re-attempting back to back — which
    turns one correlated fault into a synchronized retry storm — each
    granted retry sleeps

    {v sleep(n) = min(cap, uniform(base, 3 * sleep(n - 1))) v}

    the "decorrelated jitter" schedule (Brooker, AWS Architecture Blog
    2015): exponential growth toward [cap] like plain exponential
    backoff, but successive retriers spread over the whole interval, so
    colliding clients (or colliding retries of one daemon) de-sync
    instead of re-colliding on power-of-two boundaries.

    The schedule is a pure function of the seed — two tokens built with
    the same [seed] and bounds produce identical sequences, which is
    what makes fault-plan replays deterministic and testable. Not
    thread-safe; give each retrying context its own token. *)

type t

(** [make ~seed ()] — [base_ms] (default 1.0) is the first and minimum
    sleep, [cap_ms] (default 100.0) the ceiling. *)
val make : ?base_ms:float -> ?cap_ms:float -> seed:int -> unit -> t

(** The next sleep in milliseconds, advancing the schedule. Always in
    [[base_ms, cap_ms]]. *)
val next_ms : t -> float

(** Sleep the next interval (bounded by [limit_ms] when given — a
    retry never sleeps past its request's remaining deadline). *)
val sleep : ?limit_ms:float -> t -> unit

(** Restart the schedule from [base_ms] (e.g. after a success). *)
val reset : t -> unit
