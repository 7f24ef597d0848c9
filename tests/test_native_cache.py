"""The native module's per-user build cache (``repro._native._cached``).

Every test runs on a ``tmp_path`` ``XDG_CACHE_HOME``, so none reads or
writes the user's own cache.  A warm entry is made by a fresh
interpreter, so the loads below map it from disk (``dlopen`` would hand
back an object this process had already mapped under the same path).
"""

from __future__ import annotations

import logging
import os
import shutil
import subprocess
import sys

import pytest

import repro
from repro import _native
from repro.gbdt import kernel_available

_LOAD = "from repro import _native; assert _native.load() is not None"


def _env(xdg) -> dict:
    env = {key: value for key, value in os.environ.items() if key != "REPRO_GBDT_NO_CC"}
    env["XDG_CACHE_HOME"] = str(xdg)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    return env


def _cold(xdg) -> None:
    done = subprocess.run(
        [sys.executable, "-c", _LOAD], env=_env(xdg),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def _listing(xdg) -> dict:
    root = xdg / "repro-native"
    return {p.name: (p.stat().st_mtime_ns, p.read_bytes()) for p in root.iterdir()}


def _no_compiler(command, **kwargs):
    raise AssertionError(f"compiler called: {command}")


@pytest.fixture
def cache(monkeypatch, tmp_path):
    """An empty ``XDG_CACHE_HOME``, and ``load()`` as on a process's first call."""
    if os.environ.get("REPRO_GBDT_NO_CC") or shutil.which("cc") is None:
        pytest.skip("needs a C compiler and the native module on")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_native, "_state", None)
    return tmp_path


def _fallback(caplog) -> None:
    """``load()`` ignores the cache: one warning, a tempdir build that loads."""
    with caplog.at_level(logging.WARNING, logger="repro.native"):
        assert isinstance(_native.load(), _native.Native)
    warnings = [r for r in caplog.records if r.name == "repro.native"]
    assert len(warnings) == 1, warnings
    assert "build cache unusable" in warnings[0].getMessage()


def test_a_warm_entry_loads_without_the_compiler(cache, monkeypatch):
    _cold(cache)
    before = _listing(cache)
    (name,) = before
    assert len(name) == len("0" * 64 + ".so")
    # Read-only, too: a hit writes nothing.
    os.chmod(cache / "repro-native", 0o500)
    monkeypatch.setattr(subprocess, "run", _no_compiler)
    try:
        assert isinstance(_native.load(), _native.Native)
    finally:
        os.chmod(cache / "repro-native", 0o700)
    assert _listing(cache) == before


@pytest.mark.parametrize("mutate", ["source", "flags", "ext_suffix"])
def test_a_changed_source_or_flag_list_gets_its_own_entry(
    cache, monkeypatch, mutate
):
    _cold(cache)
    real = _listing(cache)
    if mutate == "source":
        monkeypatch.setattr(_native, "_SOURCE", _native._SOURCE + "/* other */\n")
    elif mutate == "flags":
        monkeypatch.setattr(_native, "_FLAGS", [*_native._FLAGS, "-DREPRO_OTHER"])
    else:  # another interpreter's ABI, same headers
        suffix, include = _native._interpreter()
        monkeypatch.setattr(
            _native, "_interpreter", lambda: (".other" + suffix, include)
        )
    assert isinstance(_native.load(), _native.Native)
    after = _listing(cache)
    assert len(after) == 2
    assert {name: after[name] for name in real} == real


def test_a_shared_directory_is_not_trusted(cache, caplog):
    (cache / "repro-native").mkdir()
    os.chmod(cache / "repro-native", 0o770)
    _fallback(caplog)
    assert list((cache / "repro-native").iterdir()) == []


def test_a_symlinked_directory_is_not_trusted(cache, caplog):
    (cache / "elsewhere").mkdir(mode=0o700)
    (cache / "repro-native").symlink_to(cache / "elsewhere")
    _fallback(caplog)
    assert list((cache / "elsewhere").iterdir()) == []


def test_a_directory_of_another_user_is_not_trusted(cache, monkeypatch, caplog):
    (cache / "repro-native").mkdir(mode=0o700)
    uid = os.getuid()
    monkeypatch.setattr(_native.os, "getuid", lambda: uid + 1)
    _fallback(caplog)
    assert list((cache / "repro-native").iterdir()) == []


def test_an_entry_of_another_user_is_not_trusted(cache, monkeypatch, caplog):
    _cold(cache)
    real_lstat = os.lstat

    def foreign_entry(path, *args, **kwargs):
        info = real_lstat(path, *args, **kwargs)
        if str(path).endswith(".so"):
            fields = list(info)
            fields[4] = info.st_uid + 1  # st_uid
            return os.stat_result(fields)
        return info

    monkeypatch.setattr(_native.os, "lstat", foreign_entry)
    before = _listing(cache)
    _fallback(caplog)
    assert _listing(cache) == before


def test_a_group_writable_entry_is_not_trusted(cache, caplog):
    _cold(cache)
    (entry,) = (cache / "repro-native").iterdir()
    os.chmod(entry, 0o720)
    before = _listing(cache)
    _fallback(caplog)
    assert _listing(cache) == before


def test_a_read_only_cache_without_the_entry_is_not_used(cache, monkeypatch, caplog):
    (cache / "repro-native").mkdir(mode=0o500)
    real_access = os.access
    read_only = str(cache / "repro-native")

    def unwritable(path, mode, *args, **kwargs):
        # root may write a 0o500 directory: report it read-only under any uid.
        if str(path) == read_only and mode & os.W_OK:
            return False
        return real_access(path, mode, *args, **kwargs)

    monkeypatch.setattr(_native.os, "access", unwritable)
    try:
        _fallback(caplog)
    finally:
        os.chmod(cache / "repro-native", 0o700)
    assert list((cache / "repro-native").iterdir()) == []


def test_a_truncated_entry_is_built_over(cache, caplog):
    _cold(cache)
    (entry,) = (cache / "repro-native").iterdir()
    whole = entry.read_bytes()
    entry.write_bytes(whole[: len(whole) // 2])  # dlopen of it would crash
    with caplog.at_level(logging.WARNING, logger="repro.native"):
        assert isinstance(_native.load(), _native.Native)
    assert not [r for r in caplog.records if r.name == "repro.native"]
    assert entry.read_bytes() == whole


def test_concurrent_cold_processes_leave_one_entry(cache):
    racers = [
        subprocess.Popen(
            [sys.executable, "-c", _LOAD], env=_env(cache),
            stderr=subprocess.PIPE, text=True,
        )
        for _ in range(2)
    ]
    for racer in racers:
        _, stderr = racer.communicate(timeout=120)
        assert racer.returncode == 0, stderr
    (entry,) = (cache / "repro-native").iterdir()
    assert entry.is_file() and entry.suffix == ".so"


def test_no_python_headers_is_no_module(cache, monkeypatch, caplog):
    """A host with ``cc`` but no ``Python.h``: one warning naming the
    header, as for a missing compiler, no cache entry, and every caller
    on its numpy/Python path."""
    empty = cache / "include"
    empty.mkdir()
    suffix = _native._interpreter()[0]
    monkeypatch.setattr(_native, "_interpreter", lambda: (suffix, str(empty)))
    monkeypatch.setattr(subprocess, "run", _no_compiler)
    with caplog.at_level(logging.WARNING, logger="repro.native"):
        assert _native.load() is None
        assert _native.load() is None
    warnings = [r for r in caplog.records if r.name == "repro.native"]
    assert len(warnings) == 1, warnings
    assert "Python.h" in warnings[0].getMessage()
    assert not (cache / "repro-native").exists()
    assert not kernel_available()


def test_no_cc_never_touches_the_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_GBDT_NO_CC", "1")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_native, "_state", None)
    monkeypatch.setattr(subprocess, "run", _no_compiler)
    assert _native.load() is None
    assert list(tmp_path.iterdir()) == []


def test_the_source_builds_without_a_warning(tmp_path):
    """``-Wall -Werror`` over the flags every build uses: a warning a new
    routine brings fails here, not on every build's stderr."""
    if os.environ.get("REPRO_GBDT_NO_CC") or shutil.which("cc") is None:
        pytest.skip("needs a C compiler and the native module on")
    include = _native._interpreter()[1]
    if not _native._has_headers(include):
        pytest.skip(f"no Python.h in {include}")
    source = tmp_path / "repro_native.c"
    source.write_text(_native._SOURCE)
    done = subprocess.run(
        ["cc", *_native._FLAGS, "-Wall", "-Werror", f"-I{include}",
         "-o", str(tmp_path / "repro_native.so"), str(source), "-lm"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
