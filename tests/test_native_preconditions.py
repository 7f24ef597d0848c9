"""Each native entry point refuses what its routine could not survive.

The binding takes the numpy arrays themselves and checks them in C (the
end of ``repro._native._SOURCE``).  One table breaks each precondition of
each entry point once — an int64 array where float64 is expected (the
old ``void*`` binding reinterpreted its bits), a strided view, a
read-only output, an output one element short, an index one past its
table, an object id that is not an int in int64 — and every case must
raise ``ValueError`` (or the exporter's ``BufferError``) with every
output, the tracker's object → row dict included, left as it was.
Without the module (``REPRO_GBDT_NO_CC=1``) those cases skip, and the
refusals both backends share, through the public callers, run on numpy.
The last tests hold that the wrappers of the two long routines release
the GIL.
"""

from __future__ import annotations

import gc
import threading
from time import perf_counter

import numpy as np
import pytest

from repro import _native
from repro.flow import solve_min_cost_flow
from repro.gbdt import (
    BinMapper,
    CompiledPredictor,
    GBDTClassifier,
    GBDTParams,
    grow_tree,
)
from repro.gbdt.compiled import _NODE_DTYPE
from repro.gbdt.losses import sigmoid
from tests.conftest import small_tracker


@pytest.fixture(scope="module")
def predictor():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(300, 6))
    y = (X[:, 0] + X[:, 2] > 0).astype(np.float64)
    return GBDTClassifier(GBDTParams(num_iterations=4)).fit(X, y).compiled()


def _predict_raw(predictor):
    X = np.random.default_rng(0).normal(size=(11, predictor.n_features))
    return [X, predictor._slab, np.zeros(11), np.zeros(11)]


def _predict_row(predictor):
    x = np.random.default_rng(1).normal(size=predictor.n_features)
    return [x, predictor._slab]


def _logistic(_):
    raw = np.linspace(-5.0, 5.0, 9)
    return [raw, np.exp(-np.abs(raw))]


def _chain(n_nodes, width):
    """``ssp_augment`` arguments for a chain of ``n_nodes`` nodes, each
    link ``width`` parallel unit arcs of distinct costs, and ``width``
    units of supply from the first node to the last: ``width`` paths,
    each a Dijkstra run over the whole chain."""
    links = np.repeat(np.arange(n_nodes - 1), width)
    n_arcs = 2 * len(links)
    arc_tail = np.empty(n_arcs, dtype=np.int64)
    arc_to = np.empty(n_arcs, dtype=np.int64)
    arc_tail[0::2], arc_to[0::2] = links, links + 1
    arc_tail[1::2], arc_to[1::2] = links + 1, links
    arc_cost = np.empty(n_arcs)
    arc_cost[0::2] = 1.0 + np.tile(np.arange(width), n_nodes - 1)
    arc_cost[1::2] = -arc_cost[0::2]
    arc_cap = np.zeros(n_arcs, dtype=np.int64)
    arc_cap[0::2] = 1
    adj_arcs = np.argsort(arc_tail, kind="stable").astype(np.int64)
    adj_start = np.searchsorted(
        arc_tail[adj_arcs], np.arange(n_nodes + 1)
    ).astype(np.int64)
    return [0, n_nodes - 1, adj_start, adj_arcs, arc_to, arc_tail, arc_cap,
            arc_cost, np.zeros(n_nodes), width]


def _ssp_augment(_):
    return _chain(6, 2)


def _tree_args(n_samples, n_cols, num_leaves, seed=0):
    """``grow_tree`` arguments over random bins (feature ``c`` has
    ``c + 2`` bins, capped at 256) for every sample."""
    rng = np.random.default_rng(seed)
    widths = np.minimum(np.arange(n_cols) + 2, 256)
    binned = (rng.random((n_samples, n_cols)) * widths).astype(np.uint8)
    features = np.arange(n_cols, dtype=np.int64)
    offsets = np.zeros(n_cols + 1, dtype=np.int64)
    np.cumsum(widths, out=offsets[1:])
    capacity = 2 * num_leaves - 1
    return [
        binned, np.arange(n_samples, dtype=np.int64), features, offsets,
        rng.normal(size=n_samples), rng.uniform(0.1, 1.0, size=n_samples),
        num_leaves, -1, 5, 1e-3, 1.0, 0.0, 1,
        np.zeros(3 * (int(offsets[-1]) + n_cols)),
        np.zeros((capacity, 6), dtype=np.int64), np.zeros((capacity, 3)),
        np.zeros(3, dtype=np.int64),
    ]


def _grow_tree(_):
    return _tree_args(40, 4, 4)


def _tracker():
    """A tracker of capacity 4 holding objects 7 (three requests) and 8."""
    tracker = small_tracker(3, capacity=4)
    for time, obj in enumerate([7, 8, 7, 7]):
        tracker.update(obj, float(time), 1.0 + time)
    return tracker


def _arena(tracker):
    return [tracker._times, tracker._seen, tracker._last_cost]


def _tracker_gather(_):
    """A window of known (7, 8) and unseen (5) objects, 7 and 5 repeated."""
    tracker = _tracker()
    objs = [7, 5, 8, 5, 7]
    n = len(objs)
    return [objs, dict(tracker._rows), np.full(n, -9),
            np.arange(10.0, 10.0 + n), np.full(n, 2.0), *_arena(tracker), 1e9,
            np.zeros((n, tracker.n_features))]


def _tracker_map(_):
    """The run from position 1 of a window over the map of 7 (row 0) and
    8 (row 1): 9, 10 and 11 unmapped (9 twice), 8 mapped since the probe,
    so the bad ids and rows below come after two new keys."""
    objs = [7, 9, 7, 9, 10, 8, 11]
    return [objs, 1, np.array([-1, 0, -1, -1, -1, -1]), {7: 0, 8: 1}, 2]


def _tracker_record(_):
    tracker = _tracker()
    rows = np.array([tracker._rows[8], tracker._rows[8], tracker._rows[7]])
    return [rows, np.array([5.0, 6.0, 7.0]), np.array([1.0, 2.0, 3.0]),
            *_arena(tracker)]


def _tracker_row(_):
    """Object 7's row, read and then recorded into (``advance``)."""
    tracker = _tracker()
    row = tracker._rows[7]
    return [np.zeros(tracker.n_features), *_arena(tracker), row, row, 9.0,
            10, 2.0, 100, 1e9]


#: entry point -> (valid arguments, positions of its outputs: arrays and
#: object maps it writes)
ENTRIES = {
    "predict_raw": (_predict_raw, [2, 3]),
    "predict_row": (_predict_row, []),
    "logistic": (_logistic, [1]),
    "ssp_augment": (_ssp_augment, [6, 8]),
    "grow_tree": (_grow_tree, [1, 13, 14, 15, 16]),
    "tracker_gather": (_tracker_gather, [1, 2, 9]),
    "tracker_map": (_tracker_map, [2, 3]),
    "tracker_record": (_tracker_record, [3, 4, 5]),
    "tracker_row": (_tracker_row, [0, 1, 2, 3]),
}


def as_int64(i):
    return lambda args: args[i].astype(np.int64)


def strided(i):
    return lambda args: np.repeat(args[i], 2, axis=-1)[..., ::2]


def read_only(i):
    def spoil(args):
        frozen = args[i].copy()
        frozen.setflags(write=False)
        return frozen
    return spoil


def short(i):
    return lambda args: args[i][:-1]


def poke(i, index, value):
    """``args[i]`` (an array, list or dict) with entry ``index`` set to
    ``value(args)``."""
    def spoil(args):
        changed = args[i].copy()
        changed[index] = value(args)
        return changed
    return spoil


def _capacity(args, slab=4):
    return len(args[slab])


def edit_slab(i, edit):
    """``args[i]``, a model slab, copied into a ``bytearray`` that
    ``edit(slab, n_trees)`` changes in place."""
    def spoil(args):
        slab = bytearray(args[i])
        edit(slab, int.from_bytes(slab[8:12], "little"))
        return slab
    return spoil


def _other_magic(slab, n_trees):
    slab[7] = ord("0")  # LFOSLAB0


def _no_nodes(slab, n_trees):
    slab[16:24] = bytes(8)
    del slab[32 + 8 * n_trees:]


def _root_past_the_nodes(slab, n_trees):
    slab[32:36] = slab[16:20]  # roots[0] = n_nodes


def misaligned(i):
    """``args[i]`` as uint8 at an address 4 past a multiple of 8."""
    def spoil(args):
        data = np.frombuffer(args[i], dtype=np.uint8)
        room = np.zeros(len(data) + 12, dtype=np.uint8)
        start = -room.ctypes.data % 8 + 4
        room[start:start + len(data)] = data
        return room[start:start + len(data)]
    return spoil


def slab_cases(entry, i):
    """The header checks both scoring entry points share, on ``args[i]``."""
    return [
        (entry, "slab of another magic", i, edit_slab(i, _other_magic)),
        (entry, "slab one byte short", i, lambda a: a[i][:-1]),
        (entry, "slab one byte long", i, lambda a: a[i] + b"\0"),
        (entry, "slab misaligned by 4", i, misaligned(i)),
        (entry, "slab of zero nodes", i, edit_slab(i, _no_nodes)),
        (entry, "root past the nodes", i, edit_slab(i, _root_past_the_nodes)),
    ]


#: (entry, case, argument position, spoiler: the arguments -> the value
#: that replaces that one) — each precondition once.
CASES = [
    ("predict_raw", "int64 X", 0, as_int64(0)),
    ("predict_raw", "strided X", 0, strided(0)),
    ("predict_raw", "X one feature short of the header's n_features", 0,
     lambda a: np.ascontiguousarray(a[0][:, :-1])),
    ("predict_raw", "read-only out", 2, read_only(2)),
    ("predict_raw", "out one short", 2, short(2)),
    ("predict_raw", "neg one short", 3, short(3)),
    *slab_cases("predict_raw", 1),
    ("predict_row", "int64 x", 0, as_int64(0)),
    ("predict_row", "strided x", 0, strided(0)),
    ("predict_row", "x one short of the header's n_features", 0, short(0)),
    *slab_cases("predict_row", 1),
    ("logistic", "int64 raw", 0, as_int64(0)),
    ("logistic", "strided raw", 0, strided(0)),
    ("logistic", "read-only e", 1, read_only(1)),
    ("logistic", "e one short", 1, short(1)),
    ("ssp_augment", "int64 arc_cost", 7, as_int64(7)),
    ("ssp_augment", "strided adj_arcs", 3, strided(3)),
    ("ssp_augment", "read-only arc_cap", 6, read_only(6)),
    ("ssp_augment", "potential one short", 8, short(8)),
    ("ssp_augment", "arc_cap one short", 6, short(6)),
    ("ssp_augment", "arc head past n_total", 4, poke(4, 3, lambda a: len(a[8]))),
    ("ssp_augment", "adjacency entry past n_arcs", 3,
     poke(3, 0, lambda a: len(a[6]))),
    ("ssp_augment", "arc in another node's adjacency", 5,
     poke(5, 0, lambda a: 1)),
    ("ssp_augment", "sink past n_total", 1, lambda a: len(a[8])),
    ("grow_tree", "int64 grad", 4, as_int64(4)),
    ("grow_tree", "strided binned", 0, strided(0)),
    ("grow_tree", "read-only rows", 1, read_only(1)),
    ("grow_tree", "stats one short", 16, short(16)),
    ("grow_tree", "nodes one short", 14, short(14)),
    ("grow_tree", "scratch one short", 13, short(13)),
    ("grow_tree", "sample row past n_samples", 1,
     poke(1, 5, lambda a: len(a[0]))),
    ("grow_tree", "feature past binned", 2, poke(2, 0, lambda a: a[0].shape[1])),
    ("grow_tree", "bin at its feature's n_bins", 0,
     poke(0, (3, 2), lambda a: a[3][3] - a[3][2])),
    ("tracker_gather", "int64 times", 3, as_int64(3)),
    ("tracker_gather", "strided rows", 2, strided(2)),
    ("tracker_gather", "read-only rows", 2, read_only(2)),
    ("tracker_gather", "rows one short", 2, short(2)),
    ("tracker_gather", "read-only X", 9, read_only(9)),
    ("tracker_gather", "X one short", 9, short(9)),
    ("tracker_gather", "objs a tuple", 0, lambda a: tuple(a[0])),
    ("tracker_gather", "rows_of a list of pairs", 1,
     lambda a: list(a[1].items())),
    ("tracker_gather", "a numpy id", 0, poke(0, 4, lambda a: np.int64(7))),
    ("tracker_gather", "a bool id", 0, poke(0, 4, lambda a: True)),
    ("tracker_gather", "id 2**63", 0, poke(0, 4, lambda a: 2**63)),
    ("tracker_gather", "id below -2**63", 0,
     poke(0, 4, lambda a: -2**63 - 1)),
    ("tracker_gather", "row at capacity", 1,
     poke(1, 8, lambda a: _capacity(a, 5))),
    ("tracker_gather", "row below 0", 1, poke(1, 8, lambda a: -1)),
    ("tracker_gather", "row a float", 1, poke(1, 8, lambda a: 1.0)),
    ("tracker_map", "int32 rows", 2, lambda a: a[2].astype(np.int32)),
    ("tracker_map", "strided rows", 2, strided(2)),
    ("tracker_map", "read-only rows", 2, read_only(2)),
    ("tracker_map", "rows one past objs", 2, lambda a: np.append(a[2], -1)),
    ("tracker_map", "start one past", 1, lambda a: a[1] + 1),
    ("tracker_map", "negative start", 1, lambda a: -1),
    ("tracker_map", "objs a tuple", 0, lambda a: tuple(a[0])),
    ("tracker_map", "rows_of a list of pairs", 3,
     lambda a: list(a[3].items())),
    ("tracker_map", "a numpy id", 0, poke(0, 6, lambda a: np.int64(11))),
    ("tracker_map", "id 2**63", 0, poke(0, 6, lambda a: 2**63)),
    ("tracker_map", "row at next_row", 3, poke(3, 8, lambda a: a[4])),
    ("tracker_map", "row below 0", 3, poke(3, 8, lambda a: -1)),
    ("tracker_map", "negative next_row", 4, lambda a: -1),
    ("tracker_record", "int64 costs", 2, as_int64(2)),
    ("tracker_record", "strided times", 1, strided(1)),
    ("tracker_record", "read-only slab", 3, read_only(3)),
    ("tracker_record", "seen one short", 4, short(4)),
    ("tracker_record", "row at capacity", 0,
     poke(0, 2, lambda a: _capacity(a, 3))),
    ("tracker_record", "row below 0", 0, poke(0, 2, lambda a: -1)),
    ("tracker_row", "int64 slab", 1, as_int64(1)),
    ("tracker_row", "strided vec", 0, strided(0)),
    ("tracker_row", "read-only vec", 0, read_only(0)),
    ("tracker_row", "vec one short", 0, short(0)),
    ("tracker_row", "row at capacity", 4, lambda a: _capacity(a, 1)),
    ("tracker_row", "row below -1", 4, lambda a: -2),
    ("tracker_row", "read-only seen", 2, read_only(2)),
    ("tracker_row", "record row at capacity", 5, lambda a: _capacity(a, 1)),
    ("tracker_row", "record row below -1", 5, lambda a: -2),
]


def test_every_entry_point_has_cases():
    assert {entry for entry, *_ in CASES} == set(ENTRIES)


def test_the_table_names_every_entry_point(native):
    module = _native.load()
    assert {n for n in dir(module) if not n.startswith("_")} == set(ENTRIES)


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_the_valid_arguments_are_accepted(native, predictor, entry):
    make, _ = ENTRIES[entry]
    getattr(_native.load(), entry)(*make(predictor))


@pytest.mark.parametrize(
    "entry, position, spoil",
    [pytest.param(entry, position, spoil, id=f"{entry}: {case}")
     for entry, case, position, spoil in CASES],
)
def test_a_broken_precondition_is_refused_before_any_write(
    native, predictor, entry, position, spoil
):
    make, outputs = ENTRIES[entry]
    args = make(predictor)
    args[position] = spoil(args)
    watched = [args[i] for i in outputs]
    before = [_snapshot(output) for output in watched]
    with pytest.raises((ValueError, BufferError)):
        getattr(_native.load(), entry)(*args)
    assert [_snapshot(output) for output in watched] == before


def _snapshot(output):
    """What a refused call must leave as it was: a dict's items in order
    (a map the call inserted into and rolled back included), an array's
    bytes."""
    if isinstance(output, dict):
        return list(output.items())
    return np.array(output, copy=True).tobytes()


def test_a_refusal_leaves_no_export_on_a_slab_model(native, predictor):
    """A wrapper that raises after taking a view of a model slab over a
    buffer (``CompiledPredictor(buffer)``, as a cluster shard does) has
    released it: once the model is dropped, the buffer resizes (an export
    left behind is a ``BufferError`` here)."""
    buffer = bytearray(predictor.to_bytes())
    rebuilt = CompiledPredictor(buffer)
    args = _predict_raw(rebuilt)
    assert args[1] is buffer
    for position, spoil in ((2, read_only(2)), (2, short(2))):
        spoiled = list(args)
        spoiled[position] = spoil(args)
        with pytest.raises(ValueError):
            _native.load().predict_raw(*spoiled)
    x = np.zeros(rebuilt.n_features + 1)
    with pytest.raises(ValueError):
        _native.load().predict_row(x, buffer)
    with pytest.raises(BufferError):
        buffer.append(0)  # the live model's node tables export it
    del rebuilt, args, spoiled
    gc.collect()
    buffer.append(0)


# -- the refusals both backends share, through their callers ------------------


@pytest.fixture(params=["native", "python_fallback"])
def backend(request):
    request.getfixturevalue(request.param)


def _refusal(call):
    with pytest.raises(ValueError) as caught:
        call()
    return str(caught.value)


def test_a_tracked_row_outside_the_arena(backend):
    tracker = _tracker()
    tracker._rows[7] = len(tracker._seen)
    assert _refusal(
        lambda: tracker.features_batch([7, 8], [9.0, 9.5], [1, 1], [1.0, 1.0], 0)
    ) == "tracked row outside the arena"


def test_a_bin_at_its_features_n_bins(backend):
    X = np.random.default_rng(2).normal(size=(50, 3))
    mapper = BinMapper(max_bins=8).fit(X)
    binned = mapper.transform(X)
    binned[4, 1] = mapper.n_bins(1)
    assert _refusal(
        lambda: grow_tree(binned, np.ones(50), np.ones(50), mapper,
                          GBDTParams())
    ) == "binned holds a bin index >= its feature's n_bins"


def test_a_node_table_link_outside_itself(backend, predictor):
    for field, value in (("kid_gt", len(predictor._nodes)),
                         ("feature", predictor.n_features)):
        nodes = predictor._nodes.copy()
        nodes[field][0] = value
        assert _refusal(
            lambda: CompiledPredictor.from_tables(
                nodes, predictor._roots, predictor._depths,
                predictor.init_score, predictor.n_features,
            )
        ) == "model node table links outside itself"


def test_inconsistent_arc_tables_are_refused_by_the_caller(native):
    """The solver checks its columns before it builds the residual graph
    (``tests/test_flow.py`` breaks each check on both backends)."""
    assert _refusal(
        lambda: solve_min_cost_flow([0, 1], [1, 3 + 2], [2, 2], [1.0, 1.0],
                                    [2, 0, -2])
    ) == "arc endpoint out of range"


# -- the logistic link: one np.exp, finished in C -----------------------------


def test_the_logistic_finish_is_sigmoid_bitwise(native):
    rng = np.random.default_rng(11)
    x = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 3000.0, -3000.0,
         709.0, -709.0, 745.2, -745.2, 1e-300, -1e-300],
        rng.normal(size=100_000),
        rng.normal(scale=40.0, size=100_000),
        rng.uniform(-3000.0, 3000.0, size=100_000),
        np.ldexp(rng.uniform(-1.0, 1.0, 200_000), rng.integers(-60, 12, 200_000)),
    ])
    e = np.exp(-np.abs(x))
    _native.load().logistic(x, e)
    assert e.tobytes() == sigmoid(x).tobytes()


def test_predict_proba_is_the_sigmoid_of_predict_raw(native):
    """A lookup tree (row ``i`` lands in leaf ``i``) makes the raw scores
    whatever the leaves hold: signed zeros, infinities, NaN, large."""
    depth = 14
    rng = np.random.default_rng(5)
    values = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, np.nan, 2900.0, -2900.0],
        rng.normal(scale=30.0, size=2**depth - 7),
    ])
    n_leaves = 2**depth
    nodes = np.zeros(2 * n_leaves - 1, dtype=_NODE_DTYPE)
    for level in range(depth):
        first, count = 2**level - 1, 2**level
        span = n_leaves // count
        ids = np.arange(first, first + count)
        nodes["threshold"][ids] = np.arange(count) * span + span / 2 - 0.5
        nodes["kid_le"][ids] = 2 * ids + 1
        nodes["kid_gt"][ids] = 2 * ids + 2
    leaves = np.arange(n_leaves - 1, 2 * n_leaves - 1)
    nodes["threshold"][leaves] = np.inf
    nodes["kid_le"][leaves] = nodes["kid_gt"][leaves] = leaves
    nodes["value"][leaves] = values
    lookup = CompiledPredictor.from_tables(
        nodes, np.zeros(1, dtype=np.int32), np.array([depth], dtype=np.int32),
        -0.0, 1,
    )
    X = np.arange(n_leaves, dtype=np.float64)[:, None]
    raw = lookup.predict_raw(X)
    assert raw.tobytes() == values.tobytes()
    assert lookup.predict_proba(X).tobytes() == sigmoid(raw).tobytes()
    for i in (0, 1, 2, 3, 4, 5, 6, 100):
        assert lookup.predict_raw_single(X[i]) == raw[i] or np.isnan(raw[i])


# -- the GIL: released around the two long routines ---------------------------


def _long_grow():
    return _tree_args(200_000, 40, 255, seed=1)


def _long_augment():
    return _chain(8000, 48)


@pytest.mark.parametrize(
    "entry, make", [("grow_tree", _long_grow), ("ssp_augment", _long_augment)]
)
def test_a_python_thread_runs_while_another_is_inside_the_routine(
    native, entry, make
):
    """Trainer threads and ``fan_out``'s segment solves depend on it: a
    wrapper that kept the GIL through its routine would stop this loop
    for the whole call, so no tick would land in its middle third."""
    call, args = getattr(_native.load(), entry), make()
    span = []

    def inside():
        begin = perf_counter()
        call(*args)
        span.extend((begin, perf_counter()))

    worker = threading.Thread(target=inside)
    ticks, last = [], 0.0
    worker.start()
    while worker.is_alive():
        now = perf_counter()
        if now - last > 1e-3:
            ticks.append(now)
            last = now
    worker.join()
    begin, end = span
    assert end - begin > 0.03, "too short a call to tell"
    third = (end - begin) / 3
    assert any(begin + third < tick < end - third for tick in ticks)
