"""Invariants of the source itself, checked on its AST.

The claims the layers make — deterministic relabeling, a lock-free
request path, bounded-cardinality metrics, loud degradation — are
properties of the code, so each is one check here over the files that
make up the program: everything under ``src/``, ``benchmarks/`` and
``examples/``, parsed and never imported (no tier-1 test imports most
of ``benchmarks/``).  A check yields ``(path, line, message)``
findings.  Two markers silence a finding, and each needs a
justification comment beside it:

* ``# lint: ignore[check-id, ...]`` anywhere in a file, for that file;
* ``# lint: ignore-next-line[check-id, ...]``, for the line below it.

A marker that names no check, or covers nothing its check flags, fails
``test_every_marker_silences_a_finding``.  Each check is itself tested:
``CASES`` gives it a snippet it must flag and one it must pass.  The
metric collector lives in ``tools/update_metrics_doc.py``, which also
writes the docs table that ``xf-metric-surface`` holds fresh.
"""

from __future__ import annotations

import ast
import functools
import re
import sys
import textwrap
from collections import Counter
from pathlib import Path
from typing import Callable, Iterator

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import update_metrics_doc as surface  # noqa: E402

#: check id -> ``fn(sources, doc)``, returning ``(path, line, message)``s.
CHECKS: dict[str, Callable[[list, str], list]] = {}

DOC_PATH = "docs/architecture.md"
#: Modules whose outputs must replay bit-identically: seeded generators
#: only, logical or injected clocks only (``perf_counter`` timing is fine).
DETERMINISTIC = (
    "repro.sim", "repro.opt", "repro.gbdt", "repro.features", "repro.core",
    "repro.trace.synthetic", "repro.obs", "repro.serve", "repro.cluster",
    "benchmarks",
)
#: Packages ``repro.__init__`` re-exports from, plus the resilience and
#: cluster layers: the surface mypy checks and callers read.
PUBLIC_API = (
    "repro.core", "repro.obs", "repro.opt", "repro.serve", "repro.sim",
    "repro.trace", "repro.resilience", "repro.cluster",
)
SEEDABLE = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64",
    "PCG64DXSM", "Philox", "MT19937", "SFC64",
})
WALLCLOCK = frozenset({
    "time.time", "time.time_ns", "datetime.now", "datetime.utcnow",
    "datetime.today", "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "date.today", "datetime.date.today",
})
LOG_METHODS = frozenset(
    {"debug", "info", "warning", "error", "exception", "critical", "log"}
)
#: Snake-case fragments that mark a degradation flag or mode switch.
DEGRADE_FRAGMENTS = ("degraded", "fallback", "tolerant", "halted", "broken")
NAME_STYLE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$")
MARKER = re.compile(r"#\s*lint:\s*(ignore|ignore-next-line)\[([\w,\s-]+)\]")
dotted = surface.dotted_name


def per_file(rule: str, *scope: str) -> Callable:
    """Register ``fn(src)``, yielding ``(node, message)``, as check
    ``rule`` over each file whose module is in ``scope`` (all if empty)."""

    def register(fn: Callable) -> Callable:
        CHECKS[rule] = lambda sources, doc: [
            (src.path, node.lineno, message)
            for src in sources
            if not scope or any(
                src.module == p or src.module.startswith(p + ".") for p in scope
            )
            for node, message in fn(src)
        ]
        return fn

    return register


def whole_program(rule: str) -> Callable:
    """Register ``fn(sources, doc)`` as check ``rule``."""
    return lambda fn: CHECKS.setdefault(rule, fn)


def nodes(tree: ast.AST, *types: type) -> Iterator:
    return (node for node in ast.walk(tree) if isinstance(node, types))


def mentions_self(node: ast.AST) -> bool:
    return any(n.id == "self" for n in nodes(node, ast.Name))


def is_str(node: ast.AST | None) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


# -- determinism ---------------------------------------------------------------


def unseeded(call: ast.Call) -> bool:
    """``default_rng()`` or ``default_rng(None)``: seeded from entropy."""
    if call.args:
        first = call.args[0]
        return isinstance(first, ast.Constant) and first.value is None
    return not any(kw.arg == "seed" for kw in call.keywords)


@per_file("det-rng", *DETERMINISTIC)
def det_rng(src):
    """Randomness comes from seeded ``np.random.Generator``s only."""
    makers = {"default_rng"} | {
        alias.asname or alias.name
        for node in nodes(src.tree, ast.ImportFrom)
        if node.module in ("numpy.random", "np.random")
        for alias in node.names
        if alias.name == "default_rng"
    }
    stdlib = "stdlib `random` is process-global state; use a seeded Generator"
    for node in nodes(src.tree, ast.Import, ast.ImportFrom, ast.Call):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "random" for a in node.names):
                yield node, stdlib
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                yield node, stdlib
            if node.module in ("numpy.random", "np.random"):
                for alias in node.names:
                    if alias.name not in SEEDABLE:
                        yield node, f"`{alias.name}` is the legacy global RNG"
        else:
            name = dotted(node.func)
            parts = name.split(".")
            if (
                (".random." in name or name.startswith("random."))
                and parts[-2] == "random"
                and parts[-1] not in SEEDABLE
            ):
                yield node, f"`{name}()` draws from the legacy global RNG"
            if parts[-1] in makers and unseeded(node):
                yield node, "default_rng() without a seed is irreproducible"


@per_file("det-wallclock", *DETERMINISTIC)
def det_wallclock(src):
    """No wall-clock reads: decisions run on the trace's logical time."""
    aliases = {
        alias.asname or alias.name
        for node in nodes(src.tree, ast.ImportFrom)
        if node.module == "time"
        for alias in node.names
        if alias.name in ("time", "time_ns")
    }
    for node in nodes(src.tree, ast.Call):
        name = dotted(node.func)
        if name in WALLCLOCK or name in aliases:
            yield node, f"wall-clock read `{name}()` makes reruns diverge"


# -- concurrency ---------------------------------------------------------------


@per_file("conc-submit-shared")
def conc_submit_shared(src):
    """Work handed to ``Executor.submit`` is a module-level function of
    snapshotted data; the result comes back by an atomic swap."""
    for node in nodes(src.tree, ast.Call):
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "submit"
                and node.args):
            continue
        fn, *args = node.args
        if (isinstance(fn, (ast.Attribute, ast.Lambda)) and mentions_self(fn)) or (
            isinstance(fn, ast.Call)
            and dotted(fn.func).rsplit(".", 1)[-1] == "partial"
            and any(mentions_self(a) for a in fn.args)
        ):
            yield fn, "the submitted callable shares `self` with the worker"
        for arg in [*args, *(kw.value for kw in node.keywords)]:
            if mentions_self(arg):
                yield arg, "a submit argument passes `self` into the worker"


@per_file("conc-lock-request-path")
def conc_lock_request_path(src):
    """``on_request`` takes no lock: no ``with <lock>:``, no ``.acquire()``."""
    for fn in nodes(src.tree, ast.FunctionDef, ast.AsyncFunctionDef):
        if fn.name != "on_request":
            continue
        for node in nodes(fn, ast.With, ast.Call):
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Attribute) and (
                    node.func.attr == "acquire"
                ):
                    yield node, "lock acquired on the request path"
                continue
            for item in node.items:
                name = dotted(item.context_expr).lower()
                if any(m in name for m in ("lock", "mutex", "semaphore", "condition")):
                    yield item.context_expr, f"`with {name}` on the request path"


# -- observability -------------------------------------------------------------


@per_file("obs-literal-name")
def obs_literal_name(src):
    """Metric and span names are literals: an f-string name makes one
    instrument per value.  A wrapper named like a factory that forwards
    its own parameter is the registry layer, and exempt."""
    for kind, call, stack in surface.iter_factory_calls(src.tree):
        arg = call.args[0] if call.args else None
        if arg is None or is_str(arg):
            continue
        if isinstance(arg, ast.Name) and any(
            arg.id in {p.arg for p in (*fn.args.posonlyargs, *fn.args.args,
                                       *fn.args.kwonlyargs)}
            for fn in stack
            if fn.name in surface.FACTORY_ATTRS
        ):
            continue
        shape = "an f-string" if isinstance(arg, ast.JoinedStr) else "computed"
        yield arg, f"{kind} name is {shape}, not a literal"


@per_file("obs-name-style")
def obs_name_style(src):
    """Literal names are dotted snake_case (``online.failed_retrains``)."""
    for kind, call, _stack in surface.iter_factory_calls(src.tree):
        arg = call.args[0] if call.args else None
        if is_str(arg) and not NAME_STYLE.match(arg.value):
            yield arg, f"{kind} name {arg.value!r} is not dotted snake_case"


@whole_program("obs-name-unique")
def obs_name_unique(sources, doc):
    """One metric name is one instrument kind across the whole tree."""
    infos = surface.collect_metric_surface(sources)
    kinds = Counter(info.name for info in infos)
    return [
        (info.path, info.line, f"{info.name!r} is registered as several kinds")
        for info in infos
        if kinds[info.name] > 1
    ]


@whole_program("xf-metric-surface")
def xf_metric_surface(sources, doc):
    """The docs table is what generating it now yields, and no two
    metrics share a Prometheus series."""
    infos = surface.collect_metric_surface(sources)
    out, first = [], {}
    for info in infos:
        other = first.setdefault(info.prom, info)
        if other.name != info.name:
            message = f"{info.name!r} and {other.name!r} both export {info.prom}"
            out.append((info.path, info.line, message))
    table = surface.render_metrics_markdown(infos)
    updated = surface.splice_doc_table(doc, table)
    if updated is None:
        out.append((DOC_PATH, 1, "no metric-surface markers"))
    elif updated != doc:
        line = doc[: doc.index(surface.MARKER_START)].count("\n") + 1
        message = "metric table is stale: run python tools/update_metrics_doc.py"
        out.append((DOC_PATH, line, message))
    return out


# -- robustness ----------------------------------------------------------------


@per_file("rob-broad-except")
def rob_broad_except(src):
    """A bare/``except (Base)Exception`` re-raises, or logs and counts."""
    for handler in nodes(src.tree, ast.ExceptHandler):
        caught = handler.type
        elts = caught.elts if isinstance(caught, ast.Tuple) else [caught]
        if caught is not None and not (
            {"Exception", "BaseException"} & {dotted(e) for e in elts}
        ):
            continue
        calls = [
            c.func for c in nodes(handler, ast.Call)
            if isinstance(c.func, ast.Attribute)
        ]
        logs = any(
            f.attr in LOG_METHODS and "log" in dotted(f.value).lower()
            for f in calls
        )
        counts = any(f.attr == "inc" for f in calls)
        if not any(nodes(handler, ast.Raise)) and not (logs and counts):
            yield handler, "broad handler neither re-raises nor logs and counts"


@per_file("rob-float-eq", "repro.gbdt", "repro.flow")
def rob_float_eq(src):
    """No ``==``/``!=`` against a float literal (infinities are exact)."""
    for node in nodes(src.tree, ast.Compare):
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops) and any(
            isinstance(o, ast.Constant)
            and isinstance(o.value, float)
            and abs(o.value) != float("inf")
            and o.value == o.value
            for o in (node.left, *node.comparators)
        ):
            yield node, "float literal equality; use a tolerance or a sentinel"


def _shallow(node: ast.AST) -> Iterator[ast.AST]:
    """``node``'s subtree minus nested function, class and lambda bodies."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(child))


def _loud(statements: list) -> bool:
    """The statements raise, log, warn or bump a metric."""
    for child in (n for s in statements for n in (s, *_shallow(s))):
        if isinstance(child, ast.Raise):
            return True
        if not isinstance(child, ast.Call):
            continue
        func = child.func
        if isinstance(func, ast.Name) and func.id == "warn":
            return True
        if not isinstance(func, ast.Attribute):
            continue
        receiver = dotted(func.value).lower()
        if (
            (func.attr == "warn" and "warnings" in receiver)
            or (func.attr in LOG_METHODS and "log" in receiver)
            or func.attr in ("inc", "observe", "event")
            or (func.attr == "set" and isinstance(func.value, ast.Call)
                and dotted(func.value.func).rsplit(".", 1)[-1] == "gauge")
        ):
            return True
    return False


@per_file("rob-silent-degrade", "repro.core", "repro.opt", "repro.trace")
def rob_silent_degrade(src):
    """Every ``except``, every branch on a bare snake_case degradation
    flag (``if tolerant:``) and every flip of such a flag to True raises,
    logs, warns or bumps a metric.  ``if self._degraded:`` is exempt: it
    guards the request path, and the flip site is counted instead."""
    for node in nodes(src.tree, ast.ExceptHandler, ast.If, ast.FunctionDef,
                      ast.AsyncFunctionDef):
        if isinstance(node, ast.ExceptHandler):
            if not _loud(node.body):
                yield node, "exception handler degrades silently"
        elif isinstance(node, ast.If):
            flags = [
                n.id for n in nodes(node.test, ast.Name)
                if n.id == n.id.lower()
                and any(f in n.id for f in DEGRADE_FRAGMENTS)
            ]
            if flags and not _loud(node.body):
                yield node, f"branch on `{flags[0]}` is silent"
        elif not _loud(node.body):
            for flip in _shallow(node):
                if not (isinstance(flip, ast.Assign) and isinstance(
                    flip.value, ast.Constant) and flip.value.value is True):
                    continue
                for target in flip.targets:
                    name = getattr(target, "attr", getattr(target, "id", ""))
                    if any(f in name.lower() for f in DEGRADE_FRAGMENTS):
                        yield flip, f"`{name} = True` in a silent function"


# -- API -----------------------------------------------------------------------


@per_file("api-annotations", *PUBLIC_API)
def api_annotations(src):
    """Public functions and public classes' methods annotate every
    parameter and the return type."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for top in src.tree.body:
        if isinstance(top, defs):
            members = [(top, False)]
        elif isinstance(top, ast.ClassDef) and not top.name.startswith("_"):
            members = [(m, True) for m in top.body if isinstance(m, defs)]
        else:
            continue
        for fn, method in members:
            if fn.name.startswith("_") and fn.name != "__init__":
                continue
            a = fn.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            if method and params[0] is not None and params[0].arg in ("self", "cls"):
                params = params[1:]
            if any(p is not None and p.annotation is None for p in params):
                yield fn, f"`{fn.name}` has unannotated parameters"
            if fn.returns is None:
                yield fn, f"`{fn.name}` has no return annotation"


# -- running the checks ----------------------------------------------------------


def markers(src) -> Iterator[tuple[int, str, list[str]]]:
    """``(line, kind, check ids)`` of each suppression marker in ``src``."""
    for line, text in enumerate(src.text.splitlines(), start=1):
        for match in MARKER.finditer(text):
            ids = [i.strip() for i in match.group(2).split(",") if i.strip()]
            yield line, match.group(1), ids


def covers(marker: tuple, rule: str, line: int) -> bool:
    at, kind, ids = marker
    return rule in ids and (kind == "ignore" or line == at + 1)


def findings(rule: str, sources: list, doc: str) -> list[tuple]:
    """What check ``rule`` flags in ``sources`` that no marker silences."""
    by_path = {src.path: list(markers(src)) for src in sources}
    return [
        (path, line, message)
        for path, line, message in CHECKS[rule](sources, doc)
        if not any(covers(m, rule, line) for m in by_path.get(path, ()))
    ]


def stale_markers(sources: list, doc: str) -> list[str]:
    """Markers that name no check, or silence nothing their check flags."""
    raw = {rule: check(sources, doc) for rule, check in CHECKS.items()}
    stale = []
    for src in sources:
        for marker in markers(src):
            for rule in marker[2]:
                where = f"{src.path}:{marker[0]}: {rule}"
                if rule not in CHECKS:
                    stale.append(f"{where}: no such check")
                elif not any(
                    path == src.path and covers(marker, rule, line)
                    for path, line, _ in raw[rule]
                ):
                    stale.append(f"{where}: nothing here to silence")
    return stale


@functools.cache
def tree() -> tuple[list, str]:
    """The program as it stands: every parsed file, and the docs table."""
    return surface.parse_tree(), surface.DOC.read_text(encoding="utf-8")


@pytest.mark.parametrize("rule", sorted(CHECKS))
def test_the_tree_holds(rule):
    found = findings(rule, *tree())
    assert not found, "\n".join(f"{p}:{n}: [{rule}] {m}" for p, n, m in found)


def test_every_marker_silences_a_finding():
    assert stale_markers(*tree()) == []


def test_a_marker_without_a_check_or_a_finding_is_stale():
    stale = program({"src/repro/core/fake.py": """
        # lint: ignore[no-such-check]
        # lint: ignore-next-line[rob-broad-except]
        x = 1
        try:
            work()
        # lint: ignore-next-line[rob-broad-except]
        except BaseException as exc:
            future.set_exception(exc)
    """})
    assert [s.split(": ", 1)[1] for s in stale_markers(*stale)] == [
        "no-such-check: no such check",
        "rob-broad-except: nothing here to silence",
    ]


# -- each check, tested ------------------------------------------------------------


def program(files: dict[str, str]) -> tuple[list, str]:
    """``(sources, doc)`` from ``{repo path: text}`` (the docs table under
    ``docs/architecture.md``)."""
    sources = [
        surface.source_file(path, textwrap.dedent(text))
        for path, text in files.items()
        if path.endswith(".py")
    ]
    return sources, files.get(DOC_PATH, "")


def with_doc(files: dict[str, str], rows: str | None = None) -> dict[str, str]:
    """``files`` plus a docs table: ``rows`` verbatim, or freshly generated."""
    if rows is None:
        sources, _ = program(files)
        rows = surface.render_metrics_markdown(
            surface.collect_metric_surface(sources)
        )
    doc = f"# doc\n\n{surface.MARKER_START}\n{rows}\n{surface.MARKER_END}\n"
    return {**files, DOC_PATH: doc}


def case(rule: str, label: str, bad, good, path: str = "src/repro/core/fake.py"):
    """One row: ``bad`` must be flagged, ``good`` must pass.  A snippet
    is one file's text at ``path``, or a ``{path: text}`` program."""
    as_files = lambda s: s if isinstance(s, dict) else {path: s}  # noqa: E731
    return pytest.param(rule, as_files(bad), as_files(good), id=f"{rule}-{label}")


SIM, OPT, GBDT = "src/repro/sim/fake.py", "src/repro/opt/fake.py", "src/repro/gbdt/fake.py"
TRACE, BENCH = "src/repro/trace/fake.py", "benchmarks/bench_fake.py"
UNSEEDED = "import numpy as np\nrng = np.random.default_rng()\n"
SUBMIT = "class Trainer:\n    def kick(self):\n        self.pool.submit({})\n"
ON_REQUEST = "class Cache:\n    def {}(self, request):\n        {}\n        return True\n"
HANDLER = "def f():\n    try:\n        work()\n    except {}:\n        {}\n"
FLOAT_EQ = "def split(gain):\n    return gain == 0.5\n"
HITS = "def setup(registry):\n    registry.counter('sim.hits')\n"
TWO_KINDS = {
    "src/repro/core/a.py": "def f(registry):\n    registry.counter('sim.depth')\n",
    "src/repro/sim/b.py": "def g(registry):\n    registry.gauge('sim.depth')\n",
}
B_SILENCED = (
    "def g(registry):\n"
    "    # lint: ignore-next-line[obs-name-unique]  # fixture\n"
    "    registry.gauge('sim.depth')\n"
)
A_SILENCED = "# lint: ignore[obs-name-unique]  # fixture\n" + TWO_KINDS["src/repro/core/a.py"]
HITS_ROW = "| `sim.hits` | counter | `repro_sim_hits_total` |"
TABLE_HEAD = "| Metric | Kind | Prometheus series |\n| --- | --- | --- |\n"

CASES = [
    case("det-rng", "stdlib-random", "import random\nx = random.random()\n",
         "import numpy as np\nrng = np.random.default_rng(7)\n", SIM),
    case("det-rng", "legacy-singleton", "import numpy as np\nx = np.random.rand(3)\n",
         "import numpy as np\nx = np.random.default_rng(3).random(3)\n", OPT),
    case("det-rng", "legacy-import", "from numpy.random import rand\n",
         "from numpy.random import Generator, PCG64\n", OPT),
    case("det-rng", "unseeded-default-rng", UNSEEDED,
         "import numpy as np\nrng = np.random.default_rng(seed=3)\n", BENCH),
    case("det-rng", "aliased-default-rng",
         "from numpy.random import default_rng as make\nrng = make(None)\n",
         "from numpy.random import default_rng as make\nrng = make(5)\n"),
    case("det-rng", "scope", {"src/repro/core/fake.py": "import random\n"},
         {"src/repro/cache/fake.py": "import random\n"}),
    case("det-rng", "file-marker", "import random\n",
         "# lint: ignore[det-rng]  # fixture\nimport random\n"),
    case("det-rng", "markers-are-per-check",
         "# lint: ignore[det-wallclock]  # fixture\nimport random\n",
         "# lint: ignore[det-rng, det-wallclock]  # fixture\nimport random\n"),
    case("det-rng", "next-line-markers-are-per-check",
         "# lint: ignore-next-line[det-wallclock]  # fixture\nimport random\n",
         "# lint: ignore-next-line[det-rng, det-wallclock]  # fixture\nimport random\n"),
    case("det-rng", "next-line-marker-is-not-file-wide",
         "# lint: ignore-next-line[det-rng]  # fixture\n" + UNSEEDED,
         "import numpy as np\n# lint: ignore-next-line[det-rng]  # fixture\n"
         "rng = np.random.default_rng()\n"),
    case("det-rng", "next-line-marker-covers-one-line",
         "import numpy as np\n# lint: ignore-next-line[det-rng]  # fixture\n"
         "a = np.random.default_rng()\nb = np.random.default_rng()\n",
         "import numpy as np\n# lint: ignore-next-line[det-rng]  # fixture\n"
         "a = np.random.default_rng()\nb = np.random.default_rng(1)\n"),
    case("det-wallclock", "time-time", "import time\nstamp = time.time()\n",
         "from time import perf_counter\nt0 = perf_counter()\n", SIM),
    case("det-wallclock", "aliased-time",
         "from time import time as perf_counter\nt0 = perf_counter()\n",
         "from time import perf_counter\nt0 = perf_counter()\n",
         "src/repro/obs/fake.py"),
    case("det-wallclock", "scope",
         {"src/repro/trace/synthetic.py": "from datetime import datetime\nt = datetime.now()\n"},
         {"src/repro/trace/io.py": "from datetime import datetime\nt = datetime.now()\n"}),
    case("conc-submit-shared", "bound-method", SUBMIT.format("self._train, 1"),
         SUBMIT.format("train, 1")),
    case("conc-submit-shared", "lambda", SUBMIT.format("lambda: self.train()"),
         SUBMIT.format("lambda: train(1)")),
    case("conc-submit-shared", "argument", SUBMIT.format("train, self.buffer"),
         SUBMIT.format("train, job")),
    case("conc-submit-shared", "partial", SUBMIT.format("partial(train, self)"),
         SUBMIT.format("partial(train, 1)")),
    case("conc-lock-request-path", "with-lock",
         ON_REQUEST.format("on_request", "with self._lock: pass"),
         ON_REQUEST.format("create", "with self._lock: pass")),
    case("conc-lock-request-path", "acquire",
         ON_REQUEST.format("on_request", "self._mutex.acquire()"),
         ON_REQUEST.format("close", "self._mutex.acquire()")),
    case("obs-literal-name", "f-string",
         "def f(registry, obj):\n    registry.counter(f'hits.{obj}').inc()\n",
         "def f(registry, obj):\n    registry.counter('sim.hits').inc(obj)\n"),
    case("obs-literal-name", "computed-name",
         "def f(registry, which):\n    registry.histogram(which).observe(1.0)\n",
         "class Registry:\n    def span(self, name):\n"
         "        return self.tracer.span(name)\n"),
    case("obs-literal-name", "file-marker",
         "def fold(registry, name):\n    registry.counter(name).inc()\n",
         "# lint: ignore[obs-literal-name]  # fixture\n"
         "def fold(registry, name):\n    registry.counter(name).inc()\n"),
    case("obs-name-style", "camel-case",
         "def f(registry):\n    registry.counter('online.publishFailures').inc()\n",
         "def f(registry):\n    registry.counter('online.publish_failures').inc()\n"),
    case("obs-name-style", "span", "def f(tracer):\n    tracer.span('Retrain Window')\n",
         "def f(tracer):\n    tracer.span('online.retrain')\n"),
    case("obs-name-unique", "one-file",
         "def f(registry):\n    registry.counter('sim.latency').inc()\n"
         "    registry.histogram('sim.latency').observe(0.1)\n",
         "def f(registry):\n    registry.counter('sim.hits').inc()\n"
         "    registry.counter('sim.hits').inc(5)\n"),
    case("obs-name-unique", "two-files", TWO_KINDS,
         {**TWO_KINDS, "src/repro/sim/b.py": TWO_KINDS["src/repro/core/a.py"]}),
    case("obs-name-unique", "markers-silence-each-site",
         {**TWO_KINDS, "src/repro/core/a.py": A_SILENCED},
         {"src/repro/core/a.py": A_SILENCED, "src/repro/sim/b.py": B_SILENCED}),
    case("rob-broad-except", "silent", HANDLER.format("Exception", "pass"),
         HANDLER.format("(RuntimeError, ValueError)", "pass"), SIM),
    case("rob-broad-except", "bare", "try:\n    work()\nexcept:\n    x = 1\n",
         HANDLER.format("BaseException", "cleanup(); raise"), SIM),
    case("rob-broad-except", "logs-but-never-counts",
         HANDLER.format("Exception as exc", "logger.warning('failed', exc_info=exc)"),
         HANDLER.format("Exception as exc", "logger.warning('failed', exc_info=exc); "
                        "registry.counter('sim.errors').inc()"), SIM),
    case("rob-broad-except", "next-line-marker",
         HANDLER.format("BaseException as exc", "future.set_exception(exc)"),
         HANDLER.format("BaseException as exc", "future.set_exception(exc)").replace(
             "    except", "    # lint: ignore-next-line[rob-broad-except]  # fixture\n"
             "    except"), SIM),
    case("rob-float-eq", "literal", FLOAT_EQ,
         "def split(gain):\n    return abs(gain - 0.5) < 1e-9\n", GBDT),
    case("rob-float-eq", "scope", {"src/repro/flow/fake.py": FLOAT_EQ},
         {"src/repro/sim/fake.py": FLOAT_EQ}),
    case("rob-float-eq", "not-equal", "def f(gain, best):\n    return gain[best] != 0.0\n",
         "def f(gain, best):\n    return gain[best] > 0.0\n", GBDT),
    case("rob-silent-degrade", "quiet-handler", HANDLER.format("KeyError", "pass"),
         HANDLER.format("KeyError", "logger.debug('key missing; default')")),
    case("rob-silent-degrade", "handler-counts",
         HANDLER.format("KeyError", "registry.counter('resilience.misses')"),
         HANDLER.format("KeyError", "registry.counter('resilience.misses').inc()")),
    case("rob-silent-degrade", "handler-reraises", HANDLER.format("KeyError", "value = None"),
         HANDLER.format("KeyError", "raise ValueError('bad key') from None"), TRACE),
    case("rob-silent-degrade", "fallback-branch",
         "def read(line, tolerant):\n    if tolerant:\n        return None\n",
         "def read(line, tolerant, registry):\n    if tolerant:\n"
         "        registry.counter('resilience.skips').inc()\n        return None\n",
         TRACE),
    case("rob-silent-degrade", "flag-flip",
         "def solve(pool):\n    pool_broken = True\n    return pool_broken\n",
         "def solve(pool, logger):\n    pool_broken = True\n"
         "    logger.warning('pool broke; going serial')\n    return pool_broken\n", OPT),
    case("rob-silent-degrade", "attribute-flags-are-exempt",
         "def admit(score, degraded):\n    if degraded:\n        return True\n",
         "class Cache:\n    def admit(self, score):\n        if self._degraded:\n"
         "            return True\n"),
    case("rob-silent-degrade", "class-names-are-not-flags",
         "def f(exc, broken_pool):\n    if broken_pool:\n        return None\n",
         "def f(exc):\n    if isinstance(exc, BrokenExecutor):\n        return None\n", OPT),
    case("rob-silent-degrade", "scope", {"src/repro/core/fake.py": HANDLER.format("KeyError", "pass")},
         {"src/repro/sim/fake.py": HANDLER.format("KeyError", "pass")}),
    case("api-annotations", "parameters", "def simulate(trace, policy) -> None:\n    pass\n",
         "def simulate(trace: object, policy: object) -> None:\n    pass\n", SIM),
    case("api-annotations", "return", "def simulate(trace: object):\n    pass\n",
         "def _simulate(trace):\n    pass\n", SIM),
    case("api-annotations", "method",
         "class LFOOnline:\n    def window(self, *args):\n        return 1\n",
         "class LFOOnline:\n    def window(self, *args: int) -> int:\n        return 1\n"),
    case("api-annotations", "scope", {SIM: "def helper(x):\n    return x\n"},
         {"src/repro/cache/fake.py": "def helper(x):\n    return x\n"}),
    case("xf-metric-surface", "undocumented", with_doc({SIM: HITS}, TABLE_HEAD.strip()),
         with_doc({SIM: HITS})),
    case("xf-metric-surface", "stale-row",
         with_doc({SIM: HITS}, TABLE_HEAD + HITS_ROW + "\n| `sim.gone` | counter | `x` |"),
         with_doc({SIM: HITS}, TABLE_HEAD + HITS_ROW)),
    case("xf-metric-surface", "edited-cell",
         with_doc({SIM: HITS}, TABLE_HEAD + HITS_ROW.replace("counter", "gauge")),
         with_doc({SIM: HITS}, TABLE_HEAD + HITS_ROW)),
    case("xf-metric-surface", "no-markers", {SIM: HITS, DOC_PATH: "# doc\n"},
         with_doc({SIM: HITS})),
    case("xf-metric-surface", "prometheus-collision",
         with_doc({SIM: HITS.replace("sim.hits", "sim.hit_bytes")
                   + "    registry.counter('sim.hit.bytes')\n"}),
         with_doc({SIM: HITS.replace("sim.hits", "sim.hit_bytes")
                   + "    registry.counter('sim.miss_bytes')\n"})),
]


def test_check_ids_are_stable():
    # Markers in the source and the docs name checks by these ids.
    assert sorted(CHECKS) == [
        "api-annotations", "conc-lock-request-path", "conc-submit-shared",
        "det-rng", "det-wallclock", "obs-literal-name", "obs-name-style",
        "obs-name-unique", "rob-broad-except", "rob-float-eq",
        "rob-silent-degrade", "xf-metric-surface",
    ]


def test_every_check_has_cases():
    assert {param.values[0] for param in CASES} == set(CHECKS)


def test_a_finding_names_its_file_and_line():
    [(path, line, message)] = findings("det-rng", *program({SIM: UNSEEDED}))
    assert (path, line) == (SIM, 2)
    assert "default_rng()" in message


@pytest.mark.parametrize(("rule", "bad", "good"), CASES)
def test_check_flags_bad(rule, bad, good):
    assert findings(rule, *program(bad))


@pytest.mark.parametrize(("rule", "bad", "good"), CASES)
def test_check_passes_good(rule, bad, good):
    assert findings(rule, *program(good)) == []
