"""The documented and traced surface of pdlsic: README examples run, tracer names resolve."""

import importlib
import importlib.util
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_readme_python_blocks_run():
    # later blocks reuse the names of earlier ones, as a reader pasting them in order would
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_tracer_spans_resolve():
    # the benchmark tracer wraps these (module, attribute) pairs; a name that
    # is gone would make every traced benchmark run fail
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.SPANS
    for module_name, attr, _ in tracer.SPANS:
        owner = importlib.import_module(f"pdlsic.{module_name}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"pdlsic.{module_name} has no {attr}"
            owner = getattr(owner, part)
        assert callable(owner)
