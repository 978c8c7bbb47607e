"""Every name the benchmark tracer wraps must still exist in the library.

The tracer in bench/spans.py skips a (module, attribute) target that no
longer resolves, so a deletion that drops a traced name would make that
layer's metric read 0 without any failure.  The file is executed from its
source with runpy, which imports nothing from bench/ and writes no bytecode
there.
"""

import importlib
import runpy
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# stale targets the tracer still lists; ROADMAP item 3 drops them from bench/
STALE = {
    "hapbeam.harness.jacobian",
    "hapbeam.harness.sigma_xi_sq",
    "hapbeam.harness.rotation_to_euler",
}


def test_every_traced_name_resolves():
    targets = runpy.run_path(str(SPANS))["TARGETS"]
    assert targets
    missing = [
        f"{mod}.{attr}"
        for mod, attr, _ in targets
        if f"{mod}.{attr}" not in STALE
        and not hasattr(importlib.import_module(mod), attr)
    ]
    assert missing == [], f"trace targets that no longer resolve: {missing}"
