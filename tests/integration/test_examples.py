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
    # The campaign demo sizes its pool by the host and writes its
    # artefact to a fresh temporary directory: keep both small and
    # inside this test's directory.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(tempfile, "mkdtemp", lambda **_: str(tmp_path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(os.path.join(_EXAMPLES, script), run_name="__main__")
    assert out.getvalue()
