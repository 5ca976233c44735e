"""The three workloads: how each builds its rounds from the seed, runs one
operation, and checks what the operations returned.

A round is a list of operations. Its instances come from the suite's own
generator (``suites.build_corpus`` with the suite's recipe) and fill a fixed
list of shape slots in stream order, so that every seed gives rounds of the
same make-up and the seed changes values, not sizes. Instance cost in these
corpora varies with shape by two orders of magnitude, so without the slots the
seed would decide the run time.
"""

from __future__ import annotations

from fractions import Fraction

import reference

# check_multi's ocrs_selectability_at_use fails on some seeds through a fault
# in the package (see the FOUND line in CHANGES.md): when a buyer has a basis
# family, auction_ocrs composes matroid_ocrs and claims the constant 3/8, while
# the exact selectability at the ex-ante vector can be lower (13/40 on
# multi-0016 of build_corpus("multi", 1009005045)). A failure of that check is
# excused only there, and only if the worst selectability, recomputed with
# ocrs.selectability on the same vector, still reaches the 1/4 the paper's
# bound needs. Any other failure makes the run incorrect.
OCRS_CHECK = "ocrs_selectability_at_use"
OCRS_FLOOR = Fraction(1, 4)


def ocrs_excused(family_kinds, worst) -> bool:
    """Whether a failed OCRS_CHECK is the known fault. worst is called only
    when the families can show it."""
    return "basis" in family_kinds and worst() >= OCRS_FLOOR


# (sorted support sizes, sorted PP grid sizes) of McSampling's one-buyer,
# two-item slots: a 3 x 4 price grid for every PP search
PP_SHAPE = ((2, 3), (3, 4))

BLOCK = 64  # instances drawn per build_corpus call while filling slots
MAX_BLOCKS = 400


def _types(payload: dict) -> list:
    out = []
    for row in payload["dists"]:
        k = 1
        for d in row:
            k *= len(d["support"])
        out.append(k)
    return out


def _matches(slot: tuple, key: tuple) -> bool:
    return all(s is None or s == k for s, k in zip(slot, key))


class Workload:
    suite = ""
    slots = ()

    def __init__(self, program: dict, seed: int):
        self.p = program
        self.seed = seed
        self._cached = (None, None)  # (round, payloads) of the last round built

    def key(self, payload: dict) -> tuple:
        raise NotImplementedError

    def payloads(self, r: int) -> list:
        """Round r's instances: for each slot, the first unused instance of
        the seeded stream whose shape matches it."""
        if self._cached[0] == r:
            return self._cached[1]
        picked = [None] * len(self.slots)
        for b in range(MAX_BLOCKS):
            block_seed = (self.seed * 1_000_003 + r) * 1_009 + b
            for _, payload, _ in self.p["suites"].build_corpus(self.suite, block_seed, BLOCK):
                key = self.key(payload)
                for s, slot in enumerate(self.slots):
                    if picked[s] is None and _matches(slot, key):
                        payload["name"] = f"{self.suite}-{self.seed}-r{r}-{s:02d}"
                        picked[s] = payload
                        break
            if all(picked):
                self._cached = (r, picked)
                return picked
        raise RuntimeError(f"{self.suite}: slots not filled after {MAX_BLOCKS} blocks")

    def setup(self, round0: list):
        """The timed set-up. Filling the slots takes a number of generator
        blocks that depends on the seed, so round 0 is found untimed (by
        payloads(0)) and handed in, and set-up generates one block of fixed
        size: the generator's cost without the seed deciding its amount."""
        self.p["suites"].build_corpus(self.suite, self.seed, BLOCK)
        self._cached = (0, round0)

    def ops(self, r: int) -> list:
        return self.payloads(r)

    def describe(self, op) -> dict:
        """The make-up of one operation, for the traced run's results file."""
        raise NotImplementedError


class SuiteWorkload(Workload):
    """One operation checks one instance with the suite's check function."""

    def run(self, payload: dict):
        instance = self.p["serialize"].instance_from_dict(payload)
        return payload, self.check_instance(instance)

    def check(self, records: list) -> list:
        problems = []
        for payload, rep in records:
            name = payload["name"]
            excused = self.excused(payload, [chk for chk, _ in rep.failed])
            for chk in excused:
                print(f"excused suite check failed: {name}: {chk}")
            problems += reference.check_suite_report(name, rep.failed, excused)
            values = rep.values
            best = max(
                values[k] for k in ("ip", "pp", "pb", "csip", "rspp", "spb")
                if values.get(k) not in (None, "")
            )
            problems += reference.check_lp_optimum(
                name,
                values["opt_profit"],
                reference.highs_optimum(payload),
                best,
                reference.first_best(payload),
            )
        return problems

    def excused(self, payload: dict, failed: list) -> tuple:
        """The failed suite checks that are a known fault of the package."""
        return ()

    def describe(self, payload: dict) -> dict:
        return {"name": payload["name"], "shape": list(self.key(payload))}


class MultiChain(SuiteWorkload):
    """suites.check_multi on two-buyer, two-item matroid instances. Slots are
    (sorted type counts, cost atoms, feasible joint allocations). The exact
    LPs (30-60 rows) take most of a round, then OCRS, the evaluator and the
    benchmark terms. Larger shapes are left out: their solve time varies
    several-fold with the values, which the spread between seeds cannot
    absorb."""

    suite = "multi"
    slots = (
        ((3, 4), 2, None),
        ((3, 3), 2, None), ((3, 3), 2, None), ((3, 3), 2, None),
        ((2, 4), 2, None), ((2, 4), 2, None), ((2, 4), 2, None),
        ((2, 6), 1, None), ((2, 6), 1, None), ((2, 6), 1, None),
        ((2, 3), 2, None), ((2, 3), 2, None), ((2, 3), 2, None),
    )

    def key(self, payload):
        return (
            tuple(sorted(_types(payload))),
            len(payload["costs"]),
            len(reference.joint_allocations(payload)),
        )

    def check_instance(self, instance):
        return self.p["suites"].check_multi(instance)

    def excused(self, payload, failed):
        kinds = [fam["kind"] for fam in payload["families"]]
        if OCRS_CHECK in failed and ocrs_excused(kinds, lambda: self.ocrs_worst(payload)):
            return (OCRS_CHECK,)
        return ()

    def ocrs_worst(self, payload: dict) -> Fraction:
        """Worst exact selectability of the composed OCRS over the cost atoms,
        at the activity vectors check_multi uses for OCRS_CHECK."""
        p = self.p
        instance = p["serialize"].instance_from_dict(payload)
        exa = p["benchmark"].ex_ante(instance, p["lp"].solve_profit_lp(instance).mechanism)
        ocrs = p["ocrs"].auction_ocrs(instance)
        worst = []
        for c_idx in range(len(instance.costs)):
            cvec = instance.costs.vector(c_idx)
            y = tuple(
                exa.q[(i, j, c_idx)] if exa.beta.get(i, j, c_idx) >= cvec[j] else 0
                for i in range(instance.n)
                for j in range(instance.m)
            )
            worst.append(p["ocrs"].selectability(ocrs, y).worst)
        return min(worst)


class SingleFamilies(SuiteWorkload):
    """suites.check_single_buyer(constrained=True) on one buyer with two items
    and a downward-closed family. Slots are (sorted support sizes, cost atoms,
    family size), in the proportions the corpus draws them, without the
    9-type shapes, whose run time varies several-fold with the values."""

    suite = "single_constrained"
    slots = (
        ((2, 3), 2, 4), ((2, 3), 2, 4), ((2, 3), 2, 3),
        ((2, 3), 1, 4), ((2, 3), 1, 4), ((2, 3), 1, 3),
        ((2, 2), 2, None), ((2, 2), 1, None),
        ((1, 3), 2, None), ((1, 3), 2, None), ((1, 3), 1, None), ((1, 3), 1, None),
        ((1, 2), 2, None), ((1, 2), 2, None), ((1, 2), 1, None), ((1, 2), 1, None),
        ((1, 1), 2, None), ((1, 1), 1, None),
    )

    def key(self, payload):
        sizes = tuple(sorted(len(d["support"]) for d in payload["dists"][0]))
        return sizes, len(payload["costs"]), reference.family_size(payload, 0)

    def check_instance(self, instance):
        return self.p["suites"].check_single_buyer(instance, constrained=True)


class McSampling(Workload):
    """mechanisms.monte_carlo_eval over the monte_carlo corpus. One operation
    samples one (instance, mechanism) pair: the copies item pricing of
    criterion 11 on every instance and, on one-buyer instances, the best PP
    and PB specs from search_best. The pairs are built in set-up and sampled
    again, with the same seeds, in every round. Slots are (buyers, items,
    cost atoms, additive one-buyer, PP shape). The PP shape of a one-buyer,
    two-item instance is (sorted support sizes, sorted sizes of its PP price
    grids), which fixes how many evaluate calls search_best makes in set-up;
    without it one instance could take half of set-up on some seeds."""

    suite = "monte_carlo"
    samples = 1_000
    slots = tuple(
        slot
        for m in (1, 2)
        for atoms in (1, 2)
        for slot in ((2, m, atoms, False, None),) * 8
        + ((1, m, atoms, True, PP_SHAPE if m == 2 else None),) * 4
        + ((1, m, atoms, False, PP_SHAPE if m == 2 else None),) * 4
    )

    def key(self, payload):
        shape = None
        if payload["n"] == 1 and payload["m"] == 2:
            instance = self.p["serialize"].instance_from_dict(payload)
            grid = self.p["mechanisms"].default_grid(instance, "PP")
            shape = (
                tuple(sorted(len(d["support"]) for d in payload["dists"][0])),
                tuple(sorted(len(prices) for prices in grid.values())),
            )
        return (
            payload["n"],
            payload["m"],
            len(payload["costs"]),
            reference.is_additive_single(payload),
            shape,
        )

    def setup(self, round0):
        super().setup(round0)
        mech = self.p["mechanisms"]
        pairs = []
        for payload in round0:
            instance = self.p["serialize"].instance_from_dict(payload)
            specs = [("csip", mech.construct_csip_from_copies(instance))]
            if instance.n == 1:
                specs.append(("pp", mech.search_best(instance, "PP")[0]))
                specs.append(("pb", mech.search_best(instance, "PB")[0]))
            for label, spec in specs:
                name = f"{payload['name']}-{label}"
                pairs.append((name, payload, instance, spec, self.seed * 1_000 + len(pairs)))
        self.pairs = pairs

    def ops(self, r: int) -> list:
        return self.pairs

    def describe(self, pair) -> dict:
        name, _, _, spec, mc_seed = pair
        return {"name": name, "kind": spec.kind, "mc_seed": mc_seed, "samples": self.samples}

    def run(self, pair):
        _, _, instance, spec, mc_seed = pair
        res = self.p["mechanisms"].monte_carlo_eval(
            instance, spec, samples=self.samples, seed=mc_seed
        )
        return pair, (res.estimate, res.half_width)

    def check(self, records: list) -> list:
        mech = self.p["mechanisms"]
        draws = {}
        for pair, draw in records:
            draws.setdefault(pair[0], (pair, []))[1].append(draw)
        if not draws:
            return ["every sampling operation failed"]
        # one more run of the first pair, so reproducibility is checked even
        # when a single round fitted in the run
        first, first_draws = next(iter(draws.values()))
        first_draws.append(self.run(first)[1])
        problems, coverage = [], []
        for name, ((_, payload, instance, spec, _), got) in draws.items():
            problems += reference.check_reproducible(name, got)
            exact = mech.evaluate(instance, spec).profit
            coverage.append((name, got[0][0], got[0][1], exact))
            if spec.kind == "IP" and reference.is_additive_single(payload):
                problems += reference.check_additive_ip(
                    name, exact, reference.additive_item_pricing(payload, spec.item_prices)
                )
        return problems + reference.check_coverage(coverage)


WORKLOADS = {
    "multi_chain": MultiChain,
    "single_families": SingleFamilies,
    "mc_sampling": McSampling,
}
