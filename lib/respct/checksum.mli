(** Integrity codes for ResPCT persistent metadata.

    Under [Runtime.config.integrity], the InCLL epoch_id word packs the
    32-bit epoch with two address-bound CRC-16 fields: [crc_log] over the
    backup word and the epoch bits (a verified crc_log proves the cell's
    undo log, hence proves a rollback exact) and [crc_rec] over the live
    record (advisory for cells of the failed epoch, detects silent record
    corruption for quiescent ones). Cells stay three words; stores stay
    single-word (8-byte atomic even on torn media); non-integrity words are
    bit-identical to the historical representation ([epoch_of] is the
    identity on every raw epoch, including the bootstrap sentinel -1).

    Checkpoint commit records and registry-entry summaries are whole
    CRC-32 words. All CRCs run over the 8-byte little-endian serialisation
    of each input word. *)

val epoch_of : int -> int
(** Epoch carried by an epoch_id word: sign-extension of the low 32 bits.
    Identity on raw (non-integrity) epoch words. *)

val seal : record:int -> backup:int -> epoch:int -> cell:int -> int
(** Packed epoch_id word for a cell whose log was just (re)written. *)

val reseal_record : int -> record:int -> cell:int -> int
(** Replace only the crc_rec field of a packed word (subsequent updates of
    an already-logged cell: backup and epoch are unchanged). *)

val check_log : word:int -> backup:int -> cell:int -> bool
(** Does the packed word's crc_log certify [backup] (and its own epoch
    bits) for this cell? *)

val check_rec : word:int -> record:int -> cell:int -> bool
(** Does the packed word's crc_rec certify [record] for this cell? *)

val check_log_at : word:int -> backup:int -> epoch:int -> cell:int -> bool
(** Like {!check_log}, but against an explicit [epoch] instead of the
    word's own epoch bits — used by recovery to unmask a failed-epoch cell
    whose epoch tag was damaged into reading quiescent. *)

val seal_epoch : epoch:int -> addr:int -> int
(** Packed global epoch word: the epoch's low 32 bits plus their CRC-16
    (bound to [addr]). [epoch_of] extracts the epoch unchanged. Without
    the seal, a flip turning epoch [e] into [e - 1] would be
    indistinguishable from the legal pre-bump commit window. *)

val check_epoch : word:int -> addr:int -> bool
(** Does the packed global epoch word certify its own epoch bits? *)

val commit : epoch:int -> addr:int -> int
(** CRC-32 commit code for a checkpoint-commit record at [addr]. *)

val regsum : entry:int -> addr:int -> int
(** CRC-32 summary of a registry entry word living at [addr]. *)

val crc32_2 : int -> int -> int
(** CRC-32 (IEEE) of two words, each serialised 8-byte little-endian. *)

val crc16_2 : int -> int -> int
(** CRC-16/CCITT-FALSE of two words, each serialised 8-byte
    little-endian. *)

val crc16_3 : int -> int -> int -> int
(** CRC-16/CCITT-FALSE of three words. *)
