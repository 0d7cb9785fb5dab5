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
# protocol layer and each command loads only the layers it runs.  The names,
# in the order of README's API table (tests/test_package.py checks that the
# two agree), are what the CLI's commands call and what a caller needs to
# build a statement by hand; every other name stays in its module.
_HOME = {
    **{module: module for module in ("analysis", "cli", "crypto", "group", "instance", "net", "perm", "protocol")},
    **dict.fromkeys(("Permutation", "compose", "inverse", "hamming"), "perm"),
    **dict.fromkeys(("BSGS", "build_bsgs"), "group"),
    **dict.fromkeys(
        ("SDPInstance", "Witness", "make_instance", "plant_instance", "validate_witness", "save_instance",
         "load_instance", "save_witness", "load_witness"),
        "instance",
    ),
    **dict.fromkeys(("NIZKProof", "fs_prove", "encode_proof", "fs_verify_bytes", "verify_round"), "protocol"),
    **dict.fromkeys(("connect_and_prove", "accept_and_verify"), "net"),
    **dict.fromkeys(
        ("completeness_rate", "cheating_acceptance_rate", "simulator_attempt_success_rate", "simulator_abort_rate",
         "transcript_distribution_test"),
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

__all__ = [name for name, home in _HOME.items() if name != home]
