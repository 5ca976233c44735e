"""Per-layer spans recorded from outside the package.

``suites`` and ``lp`` bind names such as ``evaluate`` and ``solve`` at import,
so a layer is wrapped in every module namespace its callers read it from.
Seconds are self time: a span's duration minus the traced spans it encloses
(``search_best`` minus its ``evaluate`` calls), so the layer seconds of a
round add up to the round's traced wall time.
"""

from __future__ import annotations

from time import perf_counter


def _lp_size(counts, out):
    counts["lp.rows"] += len(out.lp.rows)
    counts["lp.cols"] += out.lp.ncols
    counts["lp.nonzeros"] += sum(len(row) for row in out.lp.rows)


def _simplex(counts, out):
    counts["simplex.solves"] += 1
    counts["simplex.pivots"] += out.iterations - 1  # the last pass finds no column


def _brute(counts, out):
    counts["oracles.brute_calls"] += 1
    counts["oracles.brute_candidates"] += out.enumerated


def _suite_check(counts, out):
    counts["suites.instances"] += 1
    counts["suites.checks"] += len(out.passed) + len(out.failed)


def _evaluate(counts, out):
    counts["mechanisms.evaluate_calls"] += 1


def _mc(counts, out):
    counts["mechanisms.mc_samples"] += out.samples


_BENCHMARK_FNS = (
    "ex_ante", "benchmark_terms", "core_tail", "tail_prices",
    "rspp_tail_thresholds", "surplus_tables", "core_deltas",
    "core_concentration_check",
)
_CONSTRUCT_FNS = (
    "construct_csip_from_copies", "construct_rspp_tail", "construct_rspp_tau",
    "construct_spb_core", "aux_sell_separately", "aux_grand_bundle",
    "convert_revenue_to_permit",
)

# (seconds metric, [(module, attribute)], counter or None)
LAYERS = (
    ("simplex.solve_s", [("lp", "solve")], _simplex),
    ("lp.build_s", [("lp", "build_profit_lp")], _lp_size),
    ("lp.post_solve_s", [("lp", "solve_lp")], None),
    (
        "mechanisms.evaluate_s",
        [("suites", "evaluate"), ("oracles", "evaluate"), ("mechanisms", "evaluate")],
        _evaluate,
    ),
    ("mechanisms.search_s", [("suites", "search_best"), ("mechanisms", "search_best")], None),
    (
        "oracles.brute_s",
        [("suites", "brute_posted_price_opt"), ("oracles", "brute_posted_price_opt")],
        _brute,
    ),
    (
        "mechanisms.mc_s",
        [("suites", "monte_carlo_eval"), ("mechanisms", "monte_carlo_eval")],
        _mc,
    ),
    (
        "benchmark.s",
        [("suites", f) for f in _BENCHMARK_FNS] + [("mechanisms", "surplus_tables")],
        None,
    ),
    ("ocrs.s", [("suites", "prophet_csip"), ("suites", "selectability")], None),
    (
        "myerson.s",
        [("suites", f) for f in ("copies_opt_ud", "copies_opt_ud_multi", "copies_opt_additive")]
        + [("myerson", "virtual_values")],
        None,
    ),
    (
        "mechanisms.construct_s",
        [("suites", f) for f in _CONSTRUCT_FNS] + [("mechanisms", "construct_csip_from_copies")],
        None,
    ),
    ("generator.corpus_s", [("suites", "build_corpus")], None),
    ("suites.self_s", [("suites", "check_multi"), ("suites", "check_single_buyer")], _suite_check),
)

COUNTS = (
    "simplex.solves", "simplex.pivots", "lp.rows", "lp.cols", "lp.nonzeros",
    "mechanisms.evaluate_calls", "oracles.brute_calls", "oracles.brute_candidates",
    "mechanisms.mc_samples", "suites.instances", "suites.checks",
)
SECONDS = tuple(layer[0] for layer in LAYERS) + ("trace.overhead_s",)


class Tracer:
    """Swaps wrapped functions into the program's modules while installed."""

    def __init__(self, modules: dict):
        self.modules = modules  # short name -> module object
        self.totals = {name: 0.0 for name in SECONDS}
        self.totals.update({name: 0 for name in COUNTS})
        self._stack = []  # per open span: seconds spent in traced children
        self._saved = []

    def _wrap(self, fn, metric, counter):
        def traced(*args, **kwargs):
            self._stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.totals[metric] += dt - self._stack.pop()
                if self._stack:
                    self._stack[-1] += dt
            if counter is not None:
                counter(self.totals, out)
            return out

        return traced

    def install(self):
        for metric, sites, counter in LAYERS:
            for mod_name, attr in sites:
                mod = self.modules[mod_name]
                fn = getattr(mod, attr)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, metric, counter))

    def uninstall(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def snapshot(self) -> dict:
        return dict(self.totals)
