"""Zero-knowledge proofs of knowing a subgroup element close to a target.

The statement: given generators of a permutation group H, a target
permutation g, and a bound k, the prover knows h in H whose one-line form
differs from g's in at most k positions.  The package provides the
interactive three-challenge protocol, its hash-derived non-interactive
variant, planted instance generation, and an analysis harness (extraction,
cheating provers, simulation, distribution tests).
"""

from .perm import (
    Permutation,
    compose,
    hamming,
    identity,
    inverse,
    random_perm,
    random_support_perm,
)
from .group import BSGS, build_bsgs
from .instance import (
    SDPInstance,
    Witness,
    brute_force_distance,
    instance_digest,
    load_instance,
    load_witness,
    make_instance,
    plant_instance,
    save_instance,
    save_witness,
    validate_witness,
)
from .crypto import commit, expand_mask, tuple_add, tuple_sub, verify_commitment, weight
from .protocol import (
    CommitmentMsg,
    NIZKProof,
    ProverState,
    Response,
    Transcript,
    decode_proof,
    encode_proof,
    fs_prove,
    fs_verify,
    fs_verify_bytes,
    prover_commit,
    prover_respond,
    run_interactive,
    verifier_challenge,
    verify_round,
)
from .analysis import (
    ExtractionError,
    extract_witness,
    honest_rewindable_prover,
    honest_verifier,
    make_cheating_prover,
    simulate,
    transcript_distribution_test,
)

__version__ = "0.1.0"

__all__ = [
    "BSGS",
    "CommitmentMsg",
    "ExtractionError",
    "NIZKProof",
    "Permutation",
    "ProverState",
    "Response",
    "SDPInstance",
    "Transcript",
    "Witness",
    "brute_force_distance",
    "build_bsgs",
    "commit",
    "compose",
    "decode_proof",
    "encode_proof",
    "expand_mask",
    "extract_witness",
    "fs_prove",
    "fs_verify",
    "fs_verify_bytes",
    "hamming",
    "honest_rewindable_prover",
    "honest_verifier",
    "identity",
    "instance_digest",
    "inverse",
    "load_instance",
    "load_witness",
    "make_cheating_prover",
    "make_instance",
    "plant_instance",
    "prover_commit",
    "prover_respond",
    "random_perm",
    "random_support_perm",
    "run_interactive",
    "save_instance",
    "save_witness",
    "simulate",
    "transcript_distribution_test",
    "tuple_add",
    "tuple_sub",
    "validate_witness",
    "verifier_challenge",
    "verify_commitment",
    "verify_round",
    "weight",
]
