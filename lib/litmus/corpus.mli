(** The named litmus corpus: paper-derived persistency shapes whose
    PCSO-allowed sets are pinned as goldens in test/test_litmus.ml and
    which [litmus --corpus] checks against both worlds. *)

type entry = {
  e_name : string;
  e_prog : Prog.t;
  e_variants : Axiom.variant list;
      (** the axiom variants whose soundness the harness checks for
          this entry (each with the matching world configuration) *)
  e_note : string;
}

val all : entry list
(** sb, mp-fenced, mp-unfenced, mp-same-line, incll-war, commit-crash,
    faa-contend, pwb-no-psync, eadr-noloss, ablation-split, mp-chain. *)

val find : string -> entry option
