(** Wire format for scheme objects: contexts, ciphertexts and evaluation
    keys as portable text.

    This is what an actual FHE deployment exchanges: the client sends the
    context parameters, the evaluation keys (relinearization and Galois —
    {e never} the secret key) and its ciphertexts; the server evaluates
    and returns result ciphertexts. Prime generation is deterministic
    given the parameters, so both sides reconstruct identical NTT tables
    from the compact description.

    The format is whitespace-separated decimal text — simple, portable,
    diffable; ciphertexts at demo sizes are a few hundred kilobytes.

    The readers treat their input as hostile: every count, length and
    range field is validated against the context {e before} it is used
    as an allocation size, every residue is checked against its row's
    modulus as it streams in, and each rejection raises
    [Eva_diag.Diag.Error] (layer [Wire], codes EVA-E401..E404) carrying
    the line and column of the offending token. *)

(** Context parameters sufficient to rebuild an identical context. *)
val write_context : Buffer.t -> Context.t -> unit

(** [max_degree] (default [2^17]) bounds the ring degree accepted from
    the wire, so a corrupted header cannot request a multi-gigabyte
    table build. *)
val read_context : ?ignore_security:bool -> ?max_degree:int -> string -> pos:int ref -> Context.t

val write_ciphertext : Buffer.t -> Eval.ciphertext -> unit

(** Reading validates level, scale, polynomial count, row counts, row
    lengths and residue ranges against the context. *)
val read_ciphertext : Context.t -> string -> pos:int ref -> Eval.ciphertext

(** Evaluation keys only: relinearization and Galois keys. The secret key
    never leaves the client. *)
val write_eval_keys : Buffer.t -> Keys.keyset -> unit

(** Rebuild a keyset usable for evaluation (but not decryption — the
    secret key has its own side of the wire and stays with the client). *)
val read_eval_keys : Context.t -> string -> pos:int ref -> Keys.keyset

(** Round-trip helpers used by tests. *)
val to_string : (Buffer.t -> 'a -> unit) -> 'a -> string

(** {2 Serving protocol}

    One request names the input vectors for one evaluation of a serving
    daemon's compiled program; the response is the named outputs or a
    structured error. Slot values travel as hex floats (bit-exact round
    trip); every count and length is range-checked before allocation. *)

type request = {
  req_id : int;  (** client-chosen, echoed on the response *)
  deadline_ms : int option;  (** admission deadline relative to receipt *)
  req_inputs : (string * float array) list;
}

type response = {
  resp_id : int;
  payload : ((string * float array) list, Eva_diag.Diag.t) result;
      (** outputs by name, or the error that failed the request. Errors
          reconstruct layer and code; node/position anchors do not cross
          the wire. *)
}

val write_request : Buffer.t -> id:int -> ?deadline_ms:int -> (string * float array) list -> unit

(** Raises [Eva_diag.Diag.Error] (Wire layer, EVA-E401..E403) on any
    malformed field: at most 1024 inputs of at most [2^20] finite slots
    each, deadline within a day. *)
val read_request : string -> pos:int ref -> request

val write_response : Buffer.t -> response -> unit
val read_response : string -> pos:int ref -> response

(** {2 Live health probe}

    A frame whose payload is exactly {!stats_probe} asks a serving
    daemon for its counters mid-stream — health is observable without
    draining anything. The reply frame carries a [stats] payload. *)

type daemon_stats = {
  st_served : int;
  st_failed : int;  (** errors of every kind, shed and cancelled included *)
  st_shed : int;  (** EVA-E509 refusals at admission *)
  st_retried : int;  (** request-level retries granted *)
  st_queue : int;  (** admission-queue depth at probe time *)
  st_p50_ms : float;  (** over the daemon's latency window; 0 when idle *)
  st_p99_ms : float;
  st_executions : int;  (** completed graph evaluations (any batch width) *)
  st_batch_histogram : int array;
      (** [.(i)] = executions that served [i + 1] requests; length is the
          daemon's effective maximum batch width *)
  st_slots_occupied : int;  (** lane slots filled across executions *)
  st_slots_available : int;
      (** ciphertext slots spent across executions; occupied / available
          is the daemon's slot utilization *)
  st_pt_hits : int;  (** plaintext-encode cache hits since the daemon started *)
  st_pt_misses : int;
}

(** The probe payload a client frames to request {!daemon_stats}. *)
val stats_probe : string

val write_stats : Buffer.t -> daemon_stats -> unit
val read_stats : string -> pos:int ref -> daemon_stats

(** {2 Stream framing}

    [frame N] header line, then exactly [N] payload bytes. *)

val write_frame : out_channel -> string -> unit

(** [None] on clean end of stream (before any header byte). A malformed
    header, an over-limit length ([max_frame], default [2^26]) or a
    stream ending inside the body raises [Eva_diag.Diag.Error]
    (EVA-E401..E403). *)
val read_frame : ?max_frame:int -> in_channel -> string option
