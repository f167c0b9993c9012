"""A fresh process imports only what it runs.

``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``, and the oracle module is
read only by ``verify``; a CLI command that needs none of them must not pay for them.  The
package resolves the oracles' names on first use (PEP 562).
"""

import subprocess
import sys

import pytest

import entropy_bounds
from conftest import child_env

WATCHED = ("dataclasses", "inspect", "entropy_bounds.oracle")


def _watched_after(code: str, *argv: str) -> set[str]:
    """The watched modules in ``sys.modules`` once a fresh interpreter has run ``code``."""
    probe = f"import os, sys\n{code}\nprint(*[m for m in {WATCHED!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", probe, *argv], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize("argv, loaded", [
    ((), set()),  # the import alone
    (("bounds", "poisson-entropy", "--points", "10", "--m", "3"), set()),
    (("bounds", "relative-entropy", "--n", "100", "--points", "0.3", "--m", "auto"), set()),
    (("coeffs", "binomial", "--m", "2"), set()),
    (("coeffs", "small-lambda", "--kmax", "5"), set()),
    (("figure", "gaps", "--points", "10", "--m-list", "1,2"), set()),
    (("verify", "poisson-entropy", "--points", "10", "--m-list", "1"), {"entropy_bounds.oracle"}),
], ids=lambda x: " ".join(x) or "import" if isinstance(x, tuple) else None)
def test_a_command_imports_only_what_it_runs(argv, loaded):
    run = "assert entropy_bounds.cli.main([*sys.argv[1:], '--out', os.devnull]) == 0"
    assert _watched_after(f"import entropy_bounds.cli\n{run if argv else ''}", *argv) == loaded


def test_the_oracle_loads_on_first_use():
    assert _watched_after("import entropy_bounds") == set()
    assert _watched_after("import entropy_bounds\nentropy_bounds.TruncationReceipt") == {
        "entropy_bounds.oracle"}


@pytest.mark.parametrize("name", sorted(entropy_bounds._ORACLE_NAMES))
def test_oracle_names_are_the_oracle_modules(name):
    from entropy_bounds import oracle

    assert name in entropy_bounds.__all__
    assert getattr(entropy_bounds, name) is getattr(oracle, name)


def test_every_public_name_is_listed():
    assert set(entropy_bounds.__all__) <= set(dir(entropy_bounds))
    # the oracles' names, and only they, are not bound at import
    unbound = {name for name in entropy_bounds.__all__ if name not in vars(entropy_bounds)}
    assert unbound == entropy_bounds._ORACLE_NAMES and len(unbound) == 8


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'entropy_bounds' has no attribute 'nope'$"):
        entropy_bounds.nope
    assert not hasattr(entropy_bounds, "oracle_names")
    assert getattr(entropy_bounds, "nope", None) is None


def test_the_oracle_name_follows_a_patched_module(monkeypatch):
    # held nowhere in the package, so a wrapper put on the module is what the package gives
    def wrapper(*args):
        raise AssertionError

    monkeypatch.setattr("entropy_bounds.oracle.poisson_entropy_oracle", wrapper)
    assert entropy_bounds.poisson_entropy_oracle is wrapper
