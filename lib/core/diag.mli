(** Structured error taxonomy for every untrusted boundary of the system.

    The paper's central robustness claim (Section 6.2) is that EVA's
    validation passes prove at compile time that no FHE-library runtime
    exception can fire. This module is the runtime half of that
    guarantee: everything the toolchain can reject — a malformed [.eva]
    file, a corrupted wire message, a constraint violation, a failed
    parameter selection, a fault mid-execution — surfaces as one
    {!Error} carrying a stable code, the layer it came from, and (when
    known) the IR node and source position, so [evac] can report
    [EVA-Exxx file:line:col message] and exit with a distinct code per
    class instead of dying on a bare [Failure].

    Codes are stable across releases: the hundreds digit is the layer
    (1xx Parse, 2xx Validate, 3xx Compile, 4xx Wire, 5xx Execute,
    6xx Crypto); new codes are appended, existing ones never renumbered. *)

type layer =
  | Parse  (** [.eva] text format *)
  | Validate  (** static program constraints (Section 6.2) *)
  | Compile  (** transformation passes and parameter selection *)
  | Wire  (** serving-protocol frames: requests, responses, stats *)
  | Execute  (** graph execution, scheduling, fault handling *)
  | Crypto  (** the RNS-CKKS scheme layer itself *)

type t = {
  code : int;  (** stable EVA-Exxx number; hundreds digit = layer *)
  layer : layer;
  message : string;
  node_id : int option;  (** IR node the error is anchored to *)
  op : string option;  (** opcode name at that node *)
  pos : (int * int) option;  (** source/wire position: line, column *)
}

exception Error of t

(* Parse (1xx) *)
val parse_syntax : int  (** 101: lexical or grammatical error *)

val parse_number : int  (** 102: malformed numeric literal *)

val parse_unknown_name : int  (** 103: unknown opcode / node / kind *)

val parse_duplicate : int  (** 104: node defined twice *)

val parse_structure : int  (** 105: program-level shape error *)

(* Validate (2xx) *)
val validate_arity : int  (** 201: wrong parameter count *)

val validate_scale : int  (** 202: ADD/SUB operand scales differ *)

val validate_poly_count : int  (** 203: polynomial-count constraint *)

val validate_rescale : int  (** 204: rescale divisor out of bounds *)

val validate_structure : int  (** 205: structural/type/chain violation *)

val validate_relin_placement : int
(** 206: a size-3 ciphertext reaches a ROTATE or OUTPUT (missing
    relinearize on that path) *)

val validate_batch : int
(** 207: slot-batching lane invariant broken (rotation step or vector
    length not lane-aligned in a batched program) *)

val validate_packing : int
(** 208: auto-vectorization packed layout invalid (span not a power of
    two, member count out of range, or packed input/output missing) *)

(* Compile (3xx) *)
val compile_pass_state : int  (** 301: pass bookkeeping invariant broken *)

val compile_selection : int  (** 302: no parameters satisfy the program *)

(* Wire (4xx) *)
val wire_truncated : int  (** 401: input ended mid-object *)

val wire_token : int  (** 402: token is not what the format expects *)

val wire_length : int  (** 403: length/range field fails validation *)

(* 404 is retired (it flagged a scheme object inconsistent with its
   context, and no format carries scheme objects any more); it is not
   reused. *)

(* Execute (5xx) *)
val exec_missing_inputs : int  (** 501: unbound input name(s) *)

val exec_bad_operands : int  (** 502: operand kinds illegal for the op *)

val exec_rescale_mismatch : int  (** 503: rescale divisor vs chain element *)

val exec_workers_died : int  (** 504: every worker domain died *)

val exec_timeout : int  (** 505: node timed out beyond the retry budget *)

val exec_retry_exhausted : int  (** 506: transient failures beyond budget *)

val exec_node_failed : int  (** 507: node evaluation raised (wrapped) *)

val exec_config : int  (** 508: engine configuration unusable *)

val exec_overload : int
(** 509: request shed at admission — the estimated queue wait plus
    execution already exceeds its deadline, or the daemon is past its
    overload watermark; the work was refused {e before} queueing *)

(* Crypto (6xx) *)
val crypto_level : int  (** 601: ciphertext level mismatch *)

val crypto_scale : int  (** 602: ciphertext scale mismatch *)

val crypto_size : int  (** 603: ciphertext size (polynomial count) *)

val crypto_missing_key : int  (** 604: required Galois key absent *)

val crypto_context : int  (** 605: context parameters unusable *)

val crypto_security : int  (** 606: security-standard violation *)

val crypto_key_depth : int
(** 607: a key switch above the switching key's depth (the key was
    generated for fewer chain elements than the ciphertext has) *)

val make :
  ?node_id:int -> ?op:string -> ?pos:int * int -> layer:layer -> code:int -> string -> t

(** [error ~layer ~code fmt ...] formats a message and raises {!Error}. *)
val error :
  ?node_id:int -> ?op:string -> ?pos:int * int -> layer:layer -> code:int ->
  ('a, Format.formatter, unit, 'b) format4 -> 'a

(** The layer a code belongs to (by its hundreds digit). *)
val layer_of_code : int -> layer

(** Process exit status, distinct per layer: Parse 3, Validate 4,
    Compile 5, Wire 6, Execute 7, Crypto 8. *)
val exit_code : layer -> int

(** One-line report: ["EVA-E101 prog.eva:3:7: unknown opcode \"fob\""].
    Position and node anchors are included when present. *)
val to_string : ?file:string -> t -> string

(** Layers that own legacy exception types (e.g. the scheme layer's
    typed mismatch exceptions, the parser's [Parse_error]) register a
    classifier at module initialization so {!classify} can translate
    them without this base library depending on those layers. *)
val register_classifier : (exn -> t option) -> unit

(** [classify e] is [Some t] when [e] is {!Error} or any registered
    classifier recognizes it; [None] for foreign exceptions. *)
val classify : exn -> t option

(** [describe ?file e] renders a classified exception, [None] if
    foreign. *)
val describe : ?file:string -> exn -> string option
