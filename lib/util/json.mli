(** Minimal JSON with deterministic printing and exact float round-trips.

    The service layer keys its result cache on serialized configurations
    and replays cached solutions byte-for-byte, so this module guarantees:

    - {b Determinism}: [to_string] is a pure function of the value — object
      member order is preserved, floats always print the same digits.
    - {b Exactness}: every finite [float] round-trips through
      [to_string]/[of_string] to the identical bit pattern (shortest
      decimal that reparses exactly, between 15 and 17 significant
      digits). Non-finite floats, which JSON cannot represent, print as
      the strings ["nan"], ["inf"], ["-inf"]; {!get_float} reads them
      back.

    The parser is a plain recursive-descent over the whole input
    (UTF-8 pass-through, [\uXXXX] escapes decoded, surrogate pairs
    combined) and rejects trailing garbage. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** member order is significant and kept *)

val to_string : t -> string
(** Compact (no whitespace) deterministic rendering. *)

val to_string_hum : t -> string
(** Two-space indented rendering, for humans; same number formatting. *)

val of_string : string -> (t, string) result
(** Parse one JSON value; [Error] carries a character position and
    message. Trailing non-whitespace input is an error. *)

val of_string_exn : string -> t
(** Raises [Failure] with the {!of_string} error message. *)

val float_lit : float -> string
(** The literal {!to_string} uses for a float (exposed for tests). *)

val read_file : string -> (t, string) result
(** Reads and parses a JSON file; unreadable files and parse failures
    are [Error] (message includes the path), never an exception. *)

(** {1 Accessors} — shape probes returning [None] on mismatch. *)

val field : string -> t -> t option
(** First member with this name, when the value is an object. *)

val get_bool : t -> bool option
val get_int : t -> int option

val get_float : t -> float option
(** Accepts [Float], [Int] (converted) and the non-finite string
    encodings ["nan"], ["inf"], ["-inf"]. *)

val get_string : t -> string option
val get_list : t -> t list option
val get_obj : t -> (string * t) list option
