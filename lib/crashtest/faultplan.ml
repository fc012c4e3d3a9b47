(* Deterministic media-fault plans for the crash explorer.

   A plan is a function of (fault seed, crash index, dirty-line set) only,
   so a failure line from CI replays bit-for-bit: re-executing the same
   world to the same boundary reproduces the same dirty lines and hence
   the same injected damage. Faults are applied *after* the adversarial
   write-back variant is installed — they model what the medium does to
   the image the power failure left, whatever that image is:

   - [Tear] re-tears one dirty line below PCSO granularity: a chosen
     subset of its dirty words comes from the crashing cache, the rest
     revert to the pre-crash persisted content — an image no legal
     whole-line write-back can produce;
   - [Poison] marks a line as unreadable: every load from it raises
     {!Simnvm.Memsys.Media_error} until recovery scrubs it;
   - [Bitflip] flips one bit of one persisted word in place. Flips target
     *dirty* words (or the sealed metadata region when nothing is dirty):
     a word in flight at power loss can land marginally written and read
     back wrong later, below what a whole-line tear models. A clean word
     decaying at rest is a different physical process that ECC sees and
     reports -- that is [Poison]/[Transient] -- so silent flips on
     arbitrary at-rest application data (which carry no redundancy by the
     paper's WAR-free rule, e.g. hashmap key words) are deliberately out
     of the model;
   - [Transient] arms a one-shot read fault that disarms after the first
     raise — the negative control for the retry path. *)

type op =
  | Tear of { lineno : int; keep : int }
  | Poison of { lineno : int }
  | Bitflip of { addr : int; bit : int }
  | Transient of { lineno : int }

(* With no dirty lines to aim at, target the metadata / registry region at
   the bottom of NVMM — always populated once a runtime exists. *)
let low_lines = 16

let pick_line rng (dirty : Simnvm.Memsys.dirty_line list) =
  match dirty with
  | [] -> Simnvm.Rng.int rng low_lines
  | _ ->
      (List.nth dirty (Simnvm.Rng.int rng (List.length dirty)))
        .Simnvm.Memsys.lineno

let derive ~seed ~crash_index ~line_words dirty =
  let rng = Simnvm.Rng.create (seed + (crash_index * 0x9E3779B1)) in
  let n = 1 + Simnvm.Rng.int rng 2 in
  List.init n (fun _ ->
      let dirty_tearable =
        (* a tear needs at least two dirty words to differ from a legal
           whole-line or no write-back *)
        List.filter
          (fun dl ->
            let m = dl.Simnvm.Memsys.mask in
            m land (m - 1) <> 0)
          dirty
      in
      match Simnvm.Rng.int rng (if dirty_tearable = [] then 3 else 4) with
      | 0 -> Poison { lineno = pick_line rng dirty }
      | 1 ->
          let addr =
            match dirty with
            | [] ->
                (* metadata region: every word there is sealed *)
                Simnvm.Rng.int rng (low_lines * line_words)
            | _ ->
                let dl =
                  List.nth dirty (Simnvm.Rng.int rng (List.length dirty))
                in
                let offs =
                  List.filter
                    (fun off -> dl.Simnvm.Memsys.mask land (1 lsl off) <> 0)
                    (List.init line_words Fun.id)
                in
                (dl.Simnvm.Memsys.lineno * line_words)
                + List.nth offs (Simnvm.Rng.int rng (List.length offs))
          in
          Bitflip { addr; bit = Simnvm.Rng.int rng 62 }
      | 2 -> Transient { lineno = pick_line rng dirty }
      | _ ->
          let dl =
            List.nth dirty_tearable
              (Simnvm.Rng.int rng (List.length dirty_tearable))
          in
          let mask = dl.Simnvm.Memsys.mask in
          (* strict non-empty subset of the dirty words *)
          let keep = ref (mask land Simnvm.Rng.bits rng) in
          if !keep = mask then keep := mask land (mask - 1);
          if !keep = 0 then keep := mask land - mask;
          Tear { lineno = dl.Simnvm.Memsys.lineno; keep = !keep })

let apply mem ~base ~dirty ops =
  let lw = (Simnvm.Memsys.config mem).Simnvm.Memsys.line_words in
  List.iter
    (fun op ->
      match op with
      | Tear { lineno; keep } ->
          List.iter
            (fun (dl : Simnvm.Memsys.dirty_line) ->
              if dl.Simnvm.Memsys.lineno = lineno then
                for off = 0 to lw - 1 do
                  if dl.Simnvm.Memsys.mask land (1 lsl off) <> 0 then
                    let addr = (lineno * lw) + off in
                    Simnvm.Memsys.poke_persisted mem addr
                      (if keep land (1 lsl off) <> 0 then
                         dl.Simnvm.Memsys.data.(off)
                       else Simnvm.Memsys.snapshot_persisted base addr)
                done)
            dirty
      | Poison { lineno } -> Simnvm.Memsys.poison_line mem lineno
      | Bitflip { addr; bit } ->
          Simnvm.Memsys.poke_persisted mem addr
            (Simnvm.Memsys.persisted mem addr lxor (1 lsl bit))
      | Transient { lineno } -> Simnvm.Memsys.arm_transient_fault mem lineno)
    ops
