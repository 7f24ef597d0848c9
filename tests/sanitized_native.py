"""Pytest plugin: every native routine from a sanitizer build.

Loaded with ``-p tests.sanitized_native``, it compiles
``repro._native._SOURCE`` with AddressSanitizer and
UndefinedBehaviorSanitizer (``-O1 -g``, every report fatal) and installs
it as the process-wide handle before the first test, so each test that
reaches a C routine runs it instrumented: an out-of-bounds read or write,
a use after free or an overflowing shift aborts the run.  Python itself
is not instrumented, so the sanitizer runtimes go first in the process::

    LD_PRELOAD="$(cc -print-file-name=libasan.so):$(cc -print-file-name=libubsan.so)" \\
    ASAN_OPTIONS=detect_leaks=0 PYTHONPATH=src \\
    python -m pytest -p tests.sanitized_native --capture=sys \\
        tests/test_gbdt_backends.py

A report ends the process at once, so ``--capture=sys`` leaves file
descriptor 2 to the terminal, where the report is written; pytest's
default capture would swallow it with the rest of the failing test's
output.

The floats are those of the regular build: ``-ffp-contract=off`` is kept,
and no optimisation level may reorder an IEEE addition.
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import tempfile

from repro import _native

FLAGS = [
    "-O1", "-g", "-fno-omit-frame-pointer",
    "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
    "-ffp-contract=off", "-fPIC", "-shared",
]


def build(build_dir: str) -> _native.Native:
    """``_native._SOURCE`` compiled with :data:`FLAGS` into ``build_dir``
    and loaded; the directory must outlive the run, for the symbolizer."""
    source = os.path.join(build_dir, "repro_native.c")
    library = os.path.join(build_dir, "repro_native.so")
    with open(source, "w") as handle:
        handle.write(_native._SOURCE)
    subprocess.run(
        ["cc", *FLAGS, "-o", library, source, "-lm"],
        check=True, capture_output=True, timeout=120,
    )
    return _native.Native(ctypes.CDLL(library))


def pytest_configure(config) -> None:
    config._sanitized_native_dir = tempfile.TemporaryDirectory(
        prefix="repro-native-asan-"
    )
    _native._state = build(config._sanitized_native_dir.name)


def pytest_unconfigure(config) -> None:
    config._sanitized_native_dir.cleanup()


def pytest_report_header(config) -> str:
    return "native module: sanitizer build (" + " ".join(FLAGS[:5]) + ")"
