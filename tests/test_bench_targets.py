"""The traced benchmark's wrap targets still exist on the package, and a
traced run reaches the spans of the steps it takes."""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_targets():
    return load_tracing().TARGETS


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


def test_a_traced_maxmin_run_reaches_the_blend_search_and_witness_spans(tmp_path):
    # coherence_witness blends through blend_generators, and the same-corner
    # scan searches with search_ic_violation and re-verifies each witness
    # with verify_witness: the names the tracer wraps. A scanned rectangle
    # check runs _ic_scan on one pair's 2-D grids, whose shape the tracer's
    # elements counter reads
    import shockbox
    from shockbox.cli import main

    tracer = load_tracing().Tracer()
    tracer.install(shockbox)
    try:
        argv = ["pipeline", "--scenario", str(ROOT / "scenarios" / "maxmin_exp.json")]
        assert tracer.call_op(0, main, argv + ["--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    spans = ("generators.blend", "imprecise.search", "imprecise.verify_witness")
    calls = {metric: tracer.cells[metric][1] for metric in spans}
    assert all(n > 0 for n in calls.values()), calls
    _, scans, elements = tracer.cells["imprecise.ic_scan"]
    assert scans >= 1 and elements > 0, (scans, elements)
