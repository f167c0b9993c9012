import os
from pathlib import Path

import hypothesis

hypothesis.settings.register_profile("suite", deadline=None, max_examples=40)
hypothesis.settings.load_profile("suite")

SRC = Path(__file__).resolve().parents[1] / "src"


def child_env() -> dict[str, str]:
    """This environment for a child interpreter, with ``src`` prepended to ``PYTHONPATH``, so the
    child imports this tree's package and still finds what the parent's ``PYTHONPATH`` held."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), *filter(None, [path])])}
