(* Integrity codes for ResPCT persistent metadata (faulty-media hardening).

   The InCLL cell keeps its three-word shape; integrity instead *packs* the
   epoch_id word:

     bits  0..31   epoch, 32-bit two's complement
     bits 32..46   crc_rec: CRC-16/CCITT over (record, cell addr), 15 bits
     bits 47..62   crc_log: CRC-16/CCITT over (backup, epoch bits as
                   stored, cell addr)

   Packing instead of widening matters twice over: the persist path still
   issues single-word stores (8-byte atomic even on torn media), and no
   on-media layout changes — cells_per_line, Heap block shapes and the
   node layouts in lib/pds are untouched, so integrity is a config flag,
   not a format migration.

   crc_log binds the *undo log* (backup + epoch tag) to its cell address:
   when it verifies, recovery may trust the backup word and the epoch tag,
   which is exactly what proves a rollback exact. crc_rec binds the live
   record; it is advisory for cells updated in the failed epoch (their
   record is untrusted mid-epoch state anyway) and detects silent record
   corruption for quiescent cells. The address binding defeats a corrupted
   registry that redirects the recovery scan at a well-formed but wrong
   cell.

   [epoch_of] (sign-extension of the low 32 bits) is the identity on every
   raw epoch the runtime ever stores — small non-negative counters and the
   bootstrap sentinel -1 — so readers apply it unconditionally and the
   non-integrity representation is bit-for-bit what it was before this
   module existed.

   Checkpoint commits and registry entries carry full CRC-32 (IEEE) words;
   they live in words of their own, so no packing is needed. All CRCs run
   over the 8-byte little-endian serialisation of each word. *)

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) and CRC-16/CCITT-FALSE
   (poly 0x1021, init 0xFFFF), a word at a time.

   Slicing-by-8: one step folds a whole 8-byte word into the CRC with
   eight independent table lookups, one per byte, instead of eight
   dependent byte steps. Table [k] (at offset [k * 256] of a 2048-entry
   array) holds the CRC of a byte followed by [k] zero bytes, so byte [i]
   of the word looks up table [7 - i]. The entry points take a fixed
   number of words and allocate nothing; test_respct pins them to the
   bytewise definition. *)

(* The eight slices of a byte table, given the register step that shifts
   one zero byte in. *)
let slices byte_table zero_step =
  let t = Array.make 2048 0 in
  Array.blit byte_table 0 t 0 256;
  for k = 1 to 7 do
    for n = 0 to 255 do
      t.((k * 256) + n) <- zero_step t.(((k - 1) * 256) + n)
    done
  done;
  t

let crc32_slices =
  let byte =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  slices byte (fun c -> byte.(c land 0xFF) lxor (c lsr 8))

let crc16_slices =
  let byte =
    Array.init 256 (fun n ->
        let c = ref (n lsl 8) in
        for _ = 0 to 7 do
          c := if !c land 0x8000 <> 0 then (!c lsl 1) lxor 0x1021 else !c lsl 1;
          c := !c land 0xFFFF
        done;
        !c)
  in
  slices byte (fun c -> byte.((c lsr 8) land 0xFF) lxor ((c lsl 8) land 0xFFFF))

(* A byte plus a slice offset: below 2048 by construction. *)
let[@inline] slice t k b = Array.unsafe_get t ((k lsl 8) lor (b land 0xFF))

(* Reflected: the register enters the word's low four bytes. *)
let crc32_step crc w =
  let x = crc lxor (w land 0xFFFFFFFF) and hi = w lsr 32 in
  let t = crc32_slices in
  slice t 7 x
  lxor slice t 6 (x lsr 8)
  lxor slice t 5 (x lsr 16)
  lxor slice t 4 (x lsr 24)
  lxor slice t 3 hi
  lxor slice t 2 (hi lsr 8)
  lxor slice t 1 (hi lsr 16)
  lxor slice t 0 (hi lsr 24)

(* MSB-first: the register enters the first two bytes, high byte first. *)
let crc16_step crc w =
  let x = w lxor ((crc lsr 8) lor ((crc land 0xFF) lsl 8)) in
  let t = crc16_slices in
  slice t 7 x
  lxor slice t 6 (x lsr 8)
  lxor slice t 5 (x lsr 16)
  lxor slice t 4 (x lsr 24)
  lxor slice t 3 (x lsr 32)
  lxor slice t 2 (x lsr 40)
  lxor slice t 1 (x lsr 48)
  lxor slice t 0 (x lsr 56)

let crc32_2 a b = crc32_step (crc32_step 0xFFFFFFFF a) b lxor 0xFFFFFFFF
let crc16_2 a b = crc16_step (crc16_step 0xFFFF a) b
let crc16_3 a b c = crc16_step (crc16_step (crc16_step 0xFFFF a) b) c

(* ------------------------------------------------------------------ *)
(* Epoch-word packing *)

let epoch_mask = 0xFFFFFFFF
let rec_shift = 32
let rec_mask = 0x7FFF
let log_shift = 47
let log_mask = 0xFFFF

let epoch_of w = (w lsl 31) asr 31

let crc_log ~backup ~epoch_bits ~cell =
  crc16_3 backup epoch_bits cell land log_mask

let crc_rec ~record ~cell = crc16_2 record cell land rec_mask

let seal ~record ~backup ~epoch ~cell =
  let e = epoch land epoch_mask in
  e
  lor (crc_rec ~record ~cell lsl rec_shift)
  lor (crc_log ~backup ~epoch_bits:e ~cell lsl log_shift)

let reseal_record w ~record ~cell =
  w
  land lnot (rec_mask lsl rec_shift)
  lor (crc_rec ~record ~cell lsl rec_shift)

let check_log ~word ~backup ~cell =
  (word lsr log_shift) land log_mask
  = crc_log ~backup ~epoch_bits:(word land epoch_mask) ~cell

let check_rec ~word ~record ~cell =
  (word lsr rec_shift) land rec_mask = crc_rec ~record ~cell

(* Test the stored crc_log against an *explicit* epoch instead of the
   word's own epoch bits: recovery uses it to unmask a failed-epoch cell
   whose epoch tag was damaged into reading quiescent -- its seal was
   computed over the failed epoch's bits and only re-verifies under them. *)
let check_log_at ~word ~backup ~epoch ~cell =
  (word lsr log_shift) land log_mask
  = crc_log ~backup ~epoch_bits:(epoch land epoch_mask) ~cell

(* ------------------------------------------------------------------ *)
(* The global epoch word: epoch in the low 32 bits, its own CRC-16 above.
   Without the seal, a bit flip turning epoch e into e - 1 would be
   indistinguishable from the legal pre-bump commit window ({epoch = e,
   commit = e + 1}), and recovery would silently roll back one epoch too
   few. *)

let epoch_seal_shift = 32
let epoch_seal_mask = 0xFFFF

let seal_epoch ~epoch ~addr =
  let e = epoch land epoch_mask in
  e lor (crc16_2 e addr lsl epoch_seal_shift)

let check_epoch ~word ~addr =
  (word lsr epoch_seal_shift) land epoch_seal_mask
  = crc16_2 (word land epoch_mask) addr

(* ------------------------------------------------------------------ *)
(* Whole-word CRC-32 codes: checkpoint commit record, registry summaries *)

let commit ~epoch ~addr = crc32_2 epoch addr
let regsum ~entry ~addr = crc32_2 entry addr
