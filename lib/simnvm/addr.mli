(** Word addresses and cache-line arithmetic.

    The simulated memory is an array of 64-bit words; an address is a word
    index. A cache line groups [line_words] consecutive words (8 by default:
    a 64-byte x86 line of 8-byte words). *)

type t = int

val default_line_words : int
(** Words per cache line (8 = 64-byte lines). *)

val line_of : line_words:int -> t -> int
(** Index of the cache line containing the address. *)

val line_base : line_words:int -> t -> t
(** First address of the line containing the address. *)

val offset_in_line : line_words:int -> t -> int
(** Word offset within its line. *)

val same_line : line_words:int -> t -> t -> bool
(** Whether two addresses share a cache line — the property In-Cache-Line
    Logging depends on. *)

val align_for : line_words:int -> words:int -> t -> t
(** [align_for ~line_words ~words addr] is the first address [>= addr] at
    which an allocation of [words] words does not straddle a line boundary.
    @raise Invalid_argument if [words > line_words]. *)
