"""The traced benchmark's wrap targets still exist on the package."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_attribute_resolves():
    targets = load_targets()
    assert targets
    missing = []
    for module_name, attr, *_ in targets:
        owner = importlib.import_module(f"shockbox.{module_name}")
        for part in attr.split("."):
            if not hasattr(owner, part):
                missing.append(f"{module_name}.{attr}")
                break
            owner = getattr(owner, part)
    assert not missing, missing
