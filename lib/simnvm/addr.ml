(* Word addresses and cache-line arithmetic.

   The simulated memory is an array of 64-bit words; an address is a word
   index. A cache line groups [line_words] consecutive words (8 by default,
   i.e. a 64-byte line of 8-byte words, matching x86). *)

type t = int

let default_line_words = 8

let line_of ~line_words addr = addr / line_words
let line_base ~line_words addr = addr - (addr mod line_words)
let offset_in_line ~line_words addr = addr mod line_words
let same_line ~line_words a b = line_of ~line_words a = line_of ~line_words b

(* First address >= addr whose line has at least [words] words remaining,
   i.e. an allocation of [words] starting there does not straddle a line.
   Requires words <= line_words. *)
let align_for ~line_words ~words addr =
  if words > line_words then
    invalid_arg "Addr.align_for: allocation larger than a cache line";
  let off = offset_in_line ~line_words addr in
  if off + words <= line_words then addr else line_base ~line_words addr + line_words
