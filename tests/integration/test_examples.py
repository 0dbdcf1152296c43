"""Every script in ``examples/`` runs to completion.

The examples call the public construction API (``SystemSpec``,
``build_system``, ``StoreCluster.build``) directly, so a signature
change that breaks one fails here rather than only in CI's examples
step.
"""

import contextlib
import io
import os
import runpy
import tempfile

import pytest

_EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "examples")
SCRIPTS = sorted(name for name in os.listdir(_EXAMPLES)
                 if name.endswith(".py"))


def test_examples_found():
    assert len(SCRIPTS) >= 4


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_runs(script, monkeypatch, tmp_path):
    # Temporary files land in this test's directory, and an example
    # must leave none behind (the campaign demo writes its artefact to
    # a temporary directory).
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(os.path.join(_EXAMPLES, script), run_name="__main__")
    assert out.getvalue()
    assert os.listdir(tmp_path) == []
