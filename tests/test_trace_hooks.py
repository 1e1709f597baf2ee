"""The benchmark's span recorder must find every function it wraps.

perfbench/spans.py names the package functions it wraps by module and
attribute path; a renamed or deleted function would make `--trace 1` fail
only when the benchmark runs.  This checks the names against the package.
"""

import importlib
import importlib.util
import inspect
import os

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve():
    spans = load_spans()
    assert spans.TARGETS
    for span, module, path, after in spans.TARGETS:
        owner = importlib.import_module(module)
        for part in path.split("."):
            assert hasattr(owner, part), f"{span}: {module}.{path} is missing"
            owner = getattr(owner, part)
        assert callable(owner), f"{span}: {module}.{path} is not callable"
        if after is spans._after_chain:
            # The hook reads the start state and step count by name.
            params = inspect.signature(owner).parameters
            assert {"init", "state"} & set(params), f"{module}.{path}"
            assert {"n_steps", "M"} & set(params), f"{module}.{path}"
