"""Tests for the package's install metadata and public namespace."""

import runpy
from pathlib import Path

import setuptools

import repro

ROOT = Path(__file__).resolve().parents[1]


def test_setup_declares_every_package_under_src(monkeypatch):
    """``setup.py`` installs the ``src`` layout: every directory under
    ``src/repro`` that holds an ``__init__.py`` is a declared package."""
    declared = {}
    monkeypatch.setattr(setuptools, "setup", lambda **kwargs: declared.update(kwargs))
    monkeypatch.chdir(ROOT)
    runpy.run_path(str(ROOT / "setup.py"), run_name="__main__")
    assert declared["name"] == "repro"
    assert declared["package_dir"] == {"": "src"}
    on_disk = {
        ".".join(init.parent.relative_to(ROOT / "src").parts)
        for init in (ROOT / "src" / "repro").rglob("__init__.py")
    }
    assert "repro" in on_disk
    assert set(declared["packages"]) == on_disk


def test_every_public_name_resolves():
    missing = [name for name in repro.__all__ if not hasattr(repro, name)]
    assert missing == []
