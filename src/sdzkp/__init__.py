"""Zero-knowledge proofs of knowing a subgroup element close to a target.

The statement: given generators of a permutation group H, a target
permutation g, and a bound k, the prover knows h in H whose one-line form
differs from g's in at most k positions.  The package provides the
interactive three-challenge protocol, its hash-derived non-interactive
variant, planted instance generation, and an analysis harness (extraction,
cheating provers, simulation, distribution tests).
"""

from importlib import import_module

# Where each public name lives; a submodule maps to itself.  Nothing is
# imported until a name is first used, so `import sdzkp.cli` loads no
# protocol layer and each command loads only the layers it runs.
_HOME = {
    **{module: module for module in ("analysis", "cli", "crypto", "group", "instance", "net", "perm", "protocol")},
    **dict.fromkeys(
        ("Permutation", "compose", "hamming", "identity", "inverse", "random_perm", "random_support_perm"), "perm"
    ),
    **dict.fromkeys(("BSGS", "build_bsgs"), "group"),
    **dict.fromkeys(
        ("SDPInstance", "Witness", "brute_force_distance", "instance_digest", "load_instance", "load_witness",
         "make_instance", "plant_instance", "save_instance", "save_witness", "validate_witness"),
        "instance",
    ),
    **dict.fromkeys(("commit", "expand_mask", "tuple_add", "tuple_sub", "verify_commitment", "weight"), "crypto"),
    **dict.fromkeys(
        ("NIZKProof", "ProverState", "Response", "Transcript", "decode_proof", "encode_proof", "fs_prove",
         "fs_verify_bytes", "prover_commit", "prover_respond", "run_interactive", "verifier_challenge",
         "verify_round"),
        "protocol",
    ),
    **dict.fromkeys(
        ("ExtractionError", "extract_witness", "honest_rewindable_prover", "honest_verifier",
         "make_cheating_prover", "simulate", "transcript_distribution_test"),
        "analysis",
    ),
}


def __getattr__(name: str):
    """A public name or a submodule, looked up in its home module on every
    access and never stored here, so a name rebound at home (as the
    benchmark's tracer does) is what the package returns."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = _HOME[name]
    module = import_module(f"{__name__}.{home}")
    return module if home == name else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})


__version__ = "0.1.0"

__all__ = sorted(name for name, home in _HOME.items() if name != home)
