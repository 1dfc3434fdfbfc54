(** Wire format of the serving protocol: requests, responses, the live
    stats probe and the frames that carry them over a byte stream, as
    whitespace-separated text ([evac serve] and its clients speak it).

    The readers treat their input as hostile: every count, length and
    range field is validated {e before} it is used as an allocation
    size, and each rejection raises [Eva_diag.Diag.Error] (layer [Wire],
    codes EVA-E401..E403) carrying the line and column of the offending
    token. *)

(** [to_string write v] runs [write] into a fresh buffer. *)
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
