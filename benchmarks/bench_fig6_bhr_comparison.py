"""Figure 6: byte hit ratio of LFO vs state-of-the-art caching systems.

Paper's result on the production trace (256GB cache):

* ranking: OPT > LFO > S4LRU > LFUDA/LRU-K/GD-Wheel/... > LRU;
* LFO improves BHR ~6% over the next-best system (S4LRU);
* AdaptSize, Hyperbolic and LHD optimise the *object* hit ratio and pay
  with very low BHRs;
* on OHR, LFO is nevertheless close to LHD (the best OHR system).

Scaled here to a 30K-request CDN-like mix with cache = footprint/12.
Expected shape: same ordering between those groups; LFO above every
online heuristic and below OPT.
"""

from __future__ import annotations

from common import cache_for, cdn_mix_trace, report, table

from repro.core import LFOOnline, OptLabelConfig
from repro.opt import solve_segmented
from repro.sim import (
    compare_policies,
    paired_bootstrap_diff,
    policy_factories,
    simulate,
)
from repro.trace import CostModel, Trace
from repro.viz import bar_chart

WARMUP = 1 / 3

#: The paper's Figure 6 policy set plus the Figure 1 baselines (RND, GDSF,
#: RLC) and TinyLFU: every name ``policy_factories`` builds, in its order.
FIG6_POLICIES = [
    "RND", "LRU", "LRU-K", "LFUDA", "S4LRU", "GDSF", "GD-Wheel",
    "AdaptSize", "Hyperbolic", "LHD", "TinyLFU", "RLC",
]


def run_fig6(n_requests: int = 30_000):
    trace = cdn_mix_trace(n_requests)
    cache_size = cache_for(trace, 12)

    results = compare_policies(
        trace, cache_size, factories=policy_factories(FIG6_POLICIES),
        warmup_fraction=WARMUP,
    )

    # The paper's loop (PAPER.md §1) trains a fresh model on every window,
    # so both LFOs grow every window instead of refitting between.
    lfo = LFOOnline(
        cache_size, window=5_000,
        label_config=OptLabelConfig(mode="segmented", segment_length=1_250),
        regrow_every=1,
    )
    results["LFO"] = simulate(trace, lfo, warmup_fraction=WARMUP)

    # LFO trained for the OHR objective (unit costs), for the OHR claim.
    ohr_trace = Trace(CostModel.apply(trace.requests, CostModel.OHR))
    lfo_ohr = LFOOnline(
        cache_size, window=5_000,
        label_config=OptLabelConfig(mode="segmented", segment_length=1_250),
        regrow_every=1,
    )
    results["LFO(OHR)"] = simulate(ohr_trace, lfo_ohr, warmup_fraction=WARMUP)

    seg = solve_segmented(trace, cache_size, segment_length=2_500)
    opt_bhr_bound = 1.0 - seg.miss_cost / float(trace.sizes.sum())
    return results, opt_bhr_bound, trace


def test_fig6_bhr_comparison(benchmark):
    results, opt_bhr, trace = benchmark.pedantic(
        run_fig6, rounds=1, iterations=1
    )
    ordering = sorted(results, key=lambda k: -results[k].bhr)
    rows = [["OPT (bound)", opt_bhr, float("nan")]] + [
        [name, results[name].bhr, results[name].ohr] for name in ordering
    ]
    chart = bar_chart(
        [("OPT (bound)", opt_bhr)]
        + [(name, results[name].bhr) for name in ordering]
    )
    # Is LFO's lead over the best heuristic statistically real?  Paired
    # block bootstrap over the post-warmup requests.
    warm = int(WARMUP * len(trace))
    heuristic_names = [
        n for n in results if n not in ("LFO", "LFO(OHR)")
    ]
    best = max(heuristic_names, key=lambda n: results[n].bhr)
    ci = paired_bootstrap_diff(
        results["LFO"].hits[warm:],
        results[best].hits[warm:],
        trace.sizes[warm:],
    )
    verdict = (
        f"LFO - {best} BHR diff: {ci.estimate:+.4f} "
        f"[{ci.lower:+.4f}, {ci.upper:+.4f}] (95% CI, "
        f"{'significant' if ci.excludes_zero() else 'not significant'})"
    )
    report(
        "fig6_bhr_comparison",
        table(["policy", "BHR", "OHR"], rows) + "\n\n" + chart
        + "\n\n" + verdict,
    )
    assert ci.estimate > 0 and ci.excludes_zero(), verdict

    bhr = {name: r.bhr for name, r in results.items()}
    ohr = {name: r.ohr for name, r in results.items()}
    heuristics = [
        name for name in bhr if name not in ("LFO", "LFO(OHR)")
    ]
    best_heuristic = max(heuristics, key=lambda n: bhr[n])

    # Headline claim: LFO beats every online heuristic on BHR.
    assert bhr["LFO"] > bhr[best_heuristic], (
        f"LFO {bhr['LFO']:.4f} must beat {best_heuristic} "
        f"{bhr[best_heuristic]:.4f}"
    )
    # ... and stays below (approximately) OPT.
    assert bhr["LFO"] < opt_bhr + 0.02
    # The OHR-focused systems pay with low BHRs (bottom of the table).
    for name in ("AdaptSize", "Hyperbolic", "LHD"):
        assert bhr[name] < bhr["S4LRU"]
        assert ohr[name] > ohr["LRU"]
    # OHR-objective LFO is competitive with the best OHR heuristic.
    best_ohr_heuristic = max(heuristics, key=lambda n: ohr[n])
    assert ohr["LFO(OHR)"] > 0.8 * ohr[best_ohr_heuristic]
