"""Every name the benchmark traces exists, so deleting or renaming a traced
function fails here and not only in the harness's own smoke test."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402


def test_every_traced_span_exists():
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == []
