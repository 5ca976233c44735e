"""Finite discrete model: buyer value distributions, correlated seller costs,
feasibility families, and the derived valuation functions used everywhere else.

Conventions: buyers are 0..n-1, items 0..m-1, cost atoms 0..len(costs)-1.
Item sets are bitmasks over m bits; buyer-item pair sets are bitmasks over
n*m bits with pair (i, j) at bit i*m + j. All argmax-over-sets operations
break ties toward the numerically smallest bitmask.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .rational import Q, ZERO, rat


def iter_subsets(mask: int):
    """All submasks of mask, ascending (includes 0 and mask itself)."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def popcount(mask: int) -> int:
    return bin(mask).count("1")


@dataclass(frozen=True)
class DiscreteDist:
    """Finite distribution on non-negative rationals with strictly increasing support."""

    support: tuple
    probs: tuple

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(rat(v) for v in self.support))
        object.__setattr__(self, "probs", tuple(rat(p) for p in self.probs))
        if len(self.support) != len(self.probs) or not self.support:
            raise ValueError("support and probs must be non-empty and equal length")
        if any(p <= 0 for p in self.probs):
            raise ValueError("probabilities must be positive")
        if sum(self.probs) != 1:
            raise ValueError("probabilities must sum to 1")
        if any(v < 0 for v in self.support):
            raise ValueError("support values must be non-negative")
        if any(a >= b for a, b in zip(self.support, self.support[1:])):
            raise ValueError("support must be strictly increasing")

    def __len__(self):
        return len(self.support)

    def pr_eq(self, v) -> Q:
        for s, p in zip(self.support, self.probs):
            if s == v:
                return p
        return ZERO

    def pr_geq(self, v) -> Q:
        return sum((p for s, p in zip(self.support, self.probs) if s >= v), ZERO)

    def pr_gt(self, v) -> Q:
        return sum((p for s, p in zip(self.support, self.probs) if s > v), ZERO)

    def mean(self) -> Q:
        return sum((s * p for s, p in zip(self.support, self.probs)), ZERO)


@dataclass(frozen=True)
class CostModel:
    """Joint finite distribution over cost vectors; atoms may be correlated."""

    atoms: tuple  # tuple of (cost vector tuple, probability)

    def __post_init__(self):
        norm = tuple(
            (tuple(rat(c) for c in vec), rat(p)) for vec, p in self.atoms
        )
        object.__setattr__(self, "atoms", norm)
        if not norm:
            raise ValueError("at least one cost atom required")
        m = len(norm[0][0])
        if any(len(vec) != m for vec, _ in norm):
            raise ValueError("all cost vectors must have the same length")
        if any(p <= 0 for _, p in norm):
            raise ValueError("atom probabilities must be positive")
        if sum(p for _, p in norm) != 1:
            raise ValueError("atom probabilities must sum to 1")
        if any(c < 0 for vec, _ in norm for c in vec):
            raise ValueError("costs must be non-negative")
        if len({vec for vec, _ in norm}) != len(norm):
            raise ValueError("cost atoms must be distinct")

    def __len__(self):
        return len(self.atoms)

    @property
    def m(self) -> int:
        return len(self.atoms[0][0])

    def vector(self, c_idx: int) -> tuple:
        return self.atoms[c_idx][0]

    def prob(self, c_idx: int) -> Q:
        return self.atoms[c_idx][1]


class FeasibilityFamily:
    """Downward-closed family of item bitmasks over ground set [m]."""

    kind = "abstract"
    is_matroid = False

    def __init__(self, m: int):
        self.m = m
        self._members = None

    def contains(self, mask: int) -> bool:
        raise NotImplementedError

    def members(self) -> tuple:
        """All members, ascending by bitmask. Cached; fine for m <= 12."""
        if self._members is None:
            self._members = tuple(
                s for s in range(1 << self.m) if self.contains(s)
            )
        return self._members

    def max_weight_set(self, weights, allowed: int):
        """(value, set) maximizing sum of weights over feasible subsets of allowed.

        Exhaustive over members; tie broken to the smallest bitmask, which in
        particular drops zero-weight items. Weights may be negative.
        """
        best_v, best_s = ZERO, 0
        for s in self.members():
            if s & ~allowed:
                continue
            v = ZERO
            t = s
            while t:
                j = (t & -t).bit_length() - 1
                v += weights[j]
                t &= t - 1
            if v > best_v:
                best_v, best_s = v, s
        return best_v, best_s

    def max_weight_value(self, weights, allowed: int) -> Q:
        """Max-weight value only; greedy fast path for matroid kinds."""
        if not self.is_matroid:
            return self.max_weight_set(weights, allowed)[0]
        order = sorted(
            (j for j in range(self.m) if (allowed >> j) & 1 and weights[j] > 0),
            key=lambda j: (-weights[j], j),
        )
        cur, val = 0, ZERO
        for j in order:
            if self.contains(cur | (1 << j)):
                cur |= 1 << j
                val += weights[j]
        return val

    def describe(self) -> dict:
        raise NotImplementedError


class UniformMatroid(FeasibilityFamily):
    """Independent sets are all sets of size at most rank (rank=m is additive)."""

    kind = "uniform"
    is_matroid = True

    def __init__(self, m: int, rank: int):
        super().__init__(m)
        if not 0 <= rank <= m:
            raise ValueError("rank out of range")
        self.rank = rank

    def contains(self, mask: int) -> bool:
        return mask < (1 << self.m) and popcount(mask) <= self.rank

    def describe(self) -> dict:
        return {"kind": "uniform", "rank": self.rank}


class PartitionMatroid(FeasibilityFamily):
    """At most caps[k] items from each block of a partition of the ground set."""

    kind = "partition"
    is_matroid = True

    def __init__(self, m: int, parts, caps):
        super().__init__(m)
        self.parts = tuple(int(p) for p in parts)
        self.caps = tuple(int(c) for c in caps)
        if len(self.parts) != len(self.caps):
            raise ValueError("parts and caps must align")
        union = 0
        for p in self.parts:
            if p & union:
                raise ValueError("parts must be disjoint")
            union |= p
        if union != (1 << m) - 1:
            raise ValueError("parts must cover the ground set")
        if any(c < 0 for c in self.caps):
            raise ValueError("caps must be non-negative")

    def contains(self, mask: int) -> bool:
        if mask >= (1 << self.m):
            return False
        return all(popcount(mask & p) <= c for p, c in zip(self.parts, self.caps))

    def describe(self) -> dict:
        return {"kind": "partition", "parts": list(self.parts), "caps": list(self.caps)}


class BasisMatroid(FeasibilityFamily):
    """Matroid given by its bases; independent sets are subsets of bases."""

    kind = "basis"
    is_matroid = True

    def __init__(self, m: int, bases):
        super().__init__(m)
        self.bases = tuple(sorted(int(b) for b in bases))
        if not self.bases:
            raise ValueError("at least one basis required")
        r = popcount(self.bases[0])
        if any(popcount(b) != r for b in self.bases):
            raise ValueError("bases must have equal size")
        self._indep = set()
        for b in self.bases:
            for s in iter_subsets(b):
                self._indep.add(s)
        if not _exchange_axiom_holds(self.m, self._indep):
            raise ValueError("basis family violates the matroid exchange axiom")

    def contains(self, mask: int) -> bool:
        return mask in self._indep

    def describe(self) -> dict:
        return {"kind": "basis", "bases": list(self.bases)}


class ExplicitFamily(FeasibilityFamily):
    """Arbitrary downward-closed family given by an explicit member list."""

    kind = "explicit"

    def __init__(self, m: int, members):
        super().__init__(m)
        mem = set(int(s) for s in members)
        mem.add(0)
        for s in tuple(mem):
            if s >= (1 << m):
                raise ValueError("member outside ground set")
            for sub in iter_subsets(s):
                if sub not in mem:
                    raise ValueError("family is not downward-closed")
        self._set = frozenset(mem)
        self._members = tuple(sorted(mem))
        self.is_matroid = _exchange_axiom_holds(m, self._set)

    def contains(self, mask: int) -> bool:
        return mask in self._set

    def describe(self) -> dict:
        return {"kind": "explicit", "members": list(self._members)}


def _exchange_axiom_holds(m: int, members) -> bool:
    """Exhaustive exchange-axiom check; intended for m <= 10."""
    mem = set(members)
    by_size = {}
    for s in mem:
        by_size.setdefault(popcount(s), []).append(s)
    for small in mem:
        k = popcount(small)
        for big_size in (sz for sz in by_size if sz > k):
            for big in by_size[big_size]:
                extra = big & ~small
                if not any(
                    small | (1 << j) in mem
                    for j in range(m)
                    if (extra >> j) & 1
                ):
                    return False
    return True


def verify_matroid(family: FeasibilityFamily) -> bool:
    return _exchange_axiom_holds(family.m, set(family.members()))


FAMILY_KINDS = {
    "uniform": UniformMatroid,
    "partition": PartitionMatroid,
    "basis": BasisMatroid,
    "explicit": ExplicitFamily,
}


@dataclass(eq=False)
class Instance:
    """n buyers, m items, independent per-(buyer, item) value distributions,
    a joint cost distribution, and one feasibility family per buyer."""

    n: int
    m: int
    dists: tuple  # dists[i][j] -> DiscreteDist
    costs: CostModel
    families: tuple
    name: str = ""
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.dists = tuple(tuple(row) for row in self.dists)
        self.families = tuple(self.families)
        if len(self.dists) != self.n or any(len(r) != self.m for r in self.dists):
            raise ValueError("dists must be n x m")
        if self.costs.m != self.m:
            raise ValueError("cost vectors must have length m")
        if len(self.families) != self.n:
            raise ValueError("one family per buyer required")
        if any(f.m != self.m for f in self.families):
            raise ValueError("family ground size must be m")

    # -- type-space helpers -------------------------------------------------

    def buyer_types(self, i: int) -> tuple:
        """All type vectors of buyer i (tuples of values), lexicographic."""
        key = ("types", i)
        if key not in self._cache:
            self._cache[key] = tuple(
                product(*(d.support for d in self.dists[i]))
            )
        return self._cache[key]

    def type_prob(self, i: int, t_i) -> Q:
        p = Q(1)
        for j, v in enumerate(t_i):
            p *= self.dists[i][j].pr_eq(v)
        return p

    def buyer_type_probs(self, i: int) -> tuple:
        key = ("tprobs", i)
        if key not in self._cache:
            self._cache[key] = tuple(
                self.type_prob(i, t) for t in self.buyer_types(i)
            )
        return self._cache[key]

    def n_profiles(self) -> int:
        out = 1
        for i in range(self.n):
            out *= len(self.buyer_types(i))
        return out

    def profiles(self):
        """Iterate (tuple of per-buyer type indices, probability)."""
        idx_ranges = [range(len(self.buyer_types(i))) for i in range(self.n)]
        probs = [self.buyer_type_probs(i) for i in range(self.n)]
        for combo in product(*idx_ranges):
            p = Q(1)
            for i, ti in enumerate(combo):
                p *= probs[i][ti]
            yield combo, p

    def full_mask(self) -> int:
        return (1 << self.m) - 1


# -- Buyer-item pair constraints ---------------------------------------------


class PairFamily:
    """Downward-closed family of buyer-item pair bitmasks (allocation sets)."""

    def __init__(self, n: int, m: int):
        self.n = n
        self.m = m
        self._members = None

    def contains(self, pair_mask: int) -> bool:
        raise NotImplementedError

    def members(self) -> tuple:
        if self._members is None:
            self._members = tuple(
                a for a in range(1 << (self.n * self.m)) if self.contains(a)
            )
        return self._members

    def buyer_part(self, pair_mask: int, i: int) -> int:
        return (pair_mask >> (i * self.m)) & ((1 << self.m) - 1)


class AuctionFeasibility(PairFamily):
    """Joint allocations: each item to at most one buyer, each buyer a feasible set."""

    def __init__(self, instance: Instance):
        super().__init__(instance.n, instance.m)
        self.instance = instance

    def contains(self, pair_mask: int) -> bool:
        if pair_mask >= 1 << (self.n * self.m):
            return False
        seen = 0
        for i in range(self.n):
            part = self.buyer_part(pair_mask, i)
            if part & seen:
                return False
            if not self.instance.families[i].contains(part):
                return False
            seen |= part
        return True


class UnitDemandPairs(PairFamily):
    """Restriction of a pair family to at most one item per buyer."""

    def __init__(self, base: PairFamily):
        super().__init__(base.n, base.m)
        self.base = base

    def contains(self, pair_mask: int) -> bool:
        if not self.base.contains(pair_mask):
            return False
        return all(
            popcount(self.buyer_part(pair_mask, i)) <= 1 for i in range(self.n)
        )


class ExplicitPairFamily(PairFamily):
    def __init__(self, n: int, m: int, members):
        super().__init__(n, m)
        self._set = frozenset(int(a) for a in members)

    def contains(self, pair_mask: int) -> bool:
        return pair_mask in self._set


# -- Thresholds (beta) --------------------------------------------------------


@dataclass(frozen=True)
class Thresholds:
    """Per (buyer, item, cost atom) price thresholds; zero() gives the single-buyer case."""

    values: tuple  # values[i][j][c_idx] -> Q

    @staticmethod
    def zero(instance: Instance) -> "Thresholds":
        z = tuple(
            tuple(tuple(ZERO for _ in instance.costs.atoms) for _ in range(instance.m))
            for _ in range(instance.n)
        )
        return Thresholds(z)

    def get(self, i: int, j: int, c_idx: int) -> Q:
        return self.values[i][j][c_idx]


def effective_price(instance: Instance, beta, i: int, j: int, c_idx: int) -> Q:
    """max(beta_ij(c), c_j); beta=None means all-zero thresholds."""
    c_j = instance.costs.vector(c_idx)[j]
    if beta is None:
        return c_j
    b = beta.get(i, j, c_idx)
    return b if b > c_j else c_j


# -- Valuation operations ------------------------------------------------------


def value(instance: Instance, i: int, t_i, item_set: int) -> Q:
    """Constrained-additive value of buyer i with type t_i for item set S."""
    return instance.families[i].max_weight_value(t_i, item_set)


def stage2_utility(instance: Instance, i: int, t_i, prices, available: int):
    """Best surplus and its (lexicographically smallest) maximizer at the given
    per-item prices, over feasible subsets of the available set."""
    weights = tuple(t_i[j] - prices[j] for j in range(instance.m))
    return instance.families[i].max_weight_set(weights, available)


def supporting_prices(instance: Instance, i: int, t_i, prices, available: int):
    """Per-item surplus of the chosen maximizer, zero elsewhere (an XOS certificate)."""
    _, chosen = stage2_utility(instance, i, t_i, prices, available)
    return tuple(
        (t_i[j] - prices[j]) if (chosen >> j) & 1 else ZERO
        for j in range(instance.m)
    )


def surplus_table(instance: Instance, i: int, beta=None) -> tuple:
    """table[k][P]: vbar(t, P; beta) for buyer i's k-th type t (in
    buyer_types order) and every permit mask P.

    Built once per (instance, buyer, thresholds) and kept in the instance's
    cache, so it lives and dies with the instance; beta=None and
    Thresholds.zero are separate keys with equal values.
    """
    key = ("vbar", i, beta)  # hashes beta once per fetch
    table = instance._cache.get(key)
    if table is None:
        prices = _price_rows(instance, i, beta)
        table = instance._cache[key] = tuple(
            _surplus_row(instance, i, t_i, prices) for t_i in instance.buyer_types(i)
        )
    return table


def _price_rows(instance: Instance, i: int, beta) -> tuple:
    """Per cost atom: the atom's probability and buyer i's prices max(beta, cost)."""
    return tuple(
        (pc, tuple(effective_price(instance, beta, i, j, c_idx) for j in range(instance.m)))
        for c_idx, (_, pc) in enumerate(instance.costs.atoms)
    )


def _surplus_row(instance: Instance, i: int, t_i, prices) -> tuple:
    """vbar(t_i, P) for every permit mask P, in one pass per cost atom: the
    weight t_i - price of each family member, built from the member minus its
    lowest item (a member too, the family being downward-closed, and earlier in
    the ascending member list), then the best weight of a member inside each
    mask by a subset-max transform, one item at a time. Non-members start at
    0, which the empty member scores anyway."""
    m = instance.m
    members = instance.families[i].members()
    size = 1 << m
    row = [ZERO] * size
    for pc, price in prices:
        w = [t_i[j] - price[j] for j in range(m)]
        best = [ZERO] * size
        for s in members[1:]:
            low = s & -s
            best[s] = best[s ^ low] + w[low.bit_length() - 1]
        for j in range(m):
            bit = 1 << j
            for s in range(size):
                if s & bit and best[s ^ bit] > best[s]:
                    best[s] = best[s ^ bit]
        for s in range(1, size):
            if best[s]:
                row[s] += pc * best[s]
    return tuple(row)


def _vbar_row(instance: Instance, i: int, t_i, beta) -> tuple:
    """The surplus table's row of type t_i; a fresh row when t_i is not one of
    buyer i's types."""
    key = ("type_index", i)
    index = instance._cache.get(key)
    if index is None:
        index = instance._cache[key] = {t: k for k, t in enumerate(instance.buyer_types(i))}
    k = index.get(tuple(t_i))
    if k is None:
        return _surplus_row(instance, i, t_i, _price_rows(instance, i, beta))
    return surplus_table(instance, i, beta)[k]


def vbar(instance: Instance, i: int, t_i, permit_set: int, beta=None) -> Q:
    """Expected second-stage surplus from permit set P at prices max(beta, cost):
    the sum over cost atoms of the atom's probability times the best weight
    t_i - price of a family member inside P. Read from surplus_table; a caller
    looping over types should fetch the table once and index it."""
    return _vbar_row(instance, i, t_i, beta)[permit_set & instance.full_mask()]


def favorite_set(instance: Instance, i: int, t_i, tau_i, beta=None) -> int:
    """C_i(t_i): items whose single-permit surplus vbar(t_i, {j}) is at most tau_i."""
    return _favorites(_vbar_row(instance, i, t_i, beta), instance.m, tau_i)


def _favorites(row, m: int, tau_i) -> int:
    return sum(1 << j for j in range(m) if row[1 << j] <= tau_i)


def _favorite_item(row, m: int) -> int:
    """The item j with the largest single-permit surplus row[{j}], the
    smallest such j on ties."""
    return max(range(m), key=lambda j: row[1 << j])


def mu(instance: Instance, i: int, t_i, item_set: int, beta, tau_i) -> Q:
    """Truncated surplus valuation: vbar restricted to C_i(t_i) within the set."""
    if tau_i < 0:
        raise ValueError("tau must be non-negative")
    row = _vbar_row(instance, i, t_i, beta)
    return row[_favorites(row, instance.m, tau_i) & item_set]
