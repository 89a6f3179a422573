import os
import subprocess
import sys
from pathlib import Path

import pytest

import proxrem as px

# Run in a fresh interpreter: undoing a ``monkeypatch`` of the package
# itself, as some tests do, stores the original in the package namespace,
# where a later patch of the defining module would not reach it.
_BINDINGS_PROBE = """
import importlib, sys
import proxrem
constants = {"INF": "proxrem.graphs", "DEFAULT_SEED": "proxrem.graphs"}
for name in proxrem.__all__:
    module = importlib.import_module(constants.get(name) or getattr(proxrem, name).__module__)
    assert getattr(proxrem, name) is getattr(module, name), name
    original, marker = getattr(module, name), object()
    setattr(module, name, marker)
    try:
        assert getattr(proxrem, name) is marker, name
    finally:
        setattr(module, name, original)
    assert getattr(proxrem, name) is original, name
    assert name not in vars(proxrem), name
print(len(proxrem.__all__))
"""


def test_every_export_is_the_defining_modules_current_binding():
    src = str(Path(px.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", _BINDINGS_PROBE], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == len(px.__all__) > 50


def test_star_import_and_dir_list_every_export():
    namespace: dict = {}
    exec("from proxrem import *", namespace)
    assert set(px.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(px, name) for name in px.__all__)
    assert set(px.__all__) <= set(dir(px))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        px.no_such_name  # noqa: B018
    assert not hasattr(px, "summarize_transmissions")
