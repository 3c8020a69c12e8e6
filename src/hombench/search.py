"""Deterministic example search over small coefficient lattices.

Candidates are indexed by an ordinal. In exhaustive mode the ordinal walks the
lexicographic enumeration of all coefficient assignments; in seeded mode each
ordinal gets its own generator stream derived from the seed. Candidates are
evaluated in ordinal order and duplicates are dropped by canonical text, so the
output depends only on the search specification.
"""

from .errors import BudgetExceeded, InvalidInput
from .foundation import LinearMap, Tensor2, Tensor3, frac
from .algebras import (BilinearForm, HomPreLieAlgebra, validate_hessian,
                       validate_hom_pre_lie)
from .representations import HomPreLieRep
from .bialgebras import solves_s_equation
from .dendriform import HomLDendriform, OOperator, validate_l_dendriform, validate_o_operator
from .documents import document_for, serialize_document

TARGETS = ("hom_pre_lie", "s_matrix", "hessian", "dendriform", "o_operator")

MULTIPLIER = 6364136223846793005
INCREMENT = 1442695040888963407
STREAM_SALT = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


class Stream:
    """A 64-bit linear congruential generator with the documented constants."""

    __slots__ = ("state",)

    def __init__(self, seed):
        self.state = seed & _MASK
        self.next_raw()

    def next_raw(self):
        self.state = (self.state * MULTIPLIER + INCREMENT) & _MASK
        return self.state

    def below(self, bound):
        return (self.next_raw() >> 32) % bound

    def pick(self, seq):
        return seq[self.below(len(seq))]


def substream(seed, index):
    """An independent stream for one candidate ordinal."""
    return Stream((seed + index * STREAM_SALT) & _MASK)


class SearchSpec:
    __slots__ = ("target", "dim", "coefficients", "mode", "seed", "limit",
                 "base", "attempts", "budget")

    def __init__(self, target, dim, coefficients, mode="exhaustive", seed=0,
                 limit=10, base=None, attempts=1000, budget=200000):
        if target not in TARGETS:
            raise InvalidInput("unknown search target %r" % (target,))
        if mode not in ("exhaustive", "seeded"):
            raise InvalidInput("unknown search mode %r" % (mode,))
        if dim < 1:
            raise InvalidInput("dimension must be positive")
        if limit < 0 or attempts < 1 or budget < 1:
            raise InvalidInput("limit, attempts, and budget must be sensible")
        values = sorted(set(frac(c) for c in coefficients))
        if not values:
            raise InvalidInput("coefficient set is empty")
        self.target = target
        self.dim = dim
        self.coefficients = tuple(values)
        self.mode = mode
        self.seed = seed
        self.limit = limit
        self.base = base
        self.attempts = attempts
        self.budget = budget


def _require_base(spec, cls, label):
    if not isinstance(spec.base, cls):
        raise InvalidInput("target %r needs a %s as base" % (spec.target, label))
    return spec.base


def _table(n, assign):
    """The n x n x n table whose coefficients, in lexicographic (i, j, k) order, are assign."""
    return Tensor3.from_slices(n, n, n, lambda i, j: assign[(i * n + j) * n:(i * n + j + 1) * n])


def _triangle_slots(n):
    return [(i, j) for i in range(n) for j in range(i, n)]


def _build_target(spec):
    """Return (free_slot_count, build) where build maps a coefficient assignment
    to an accepted value or None."""
    n = spec.dim
    if spec.target == "hom_pre_lie":
        identity = LinearMap.identity(n)

        def build(assign):
            candidate = HomPreLieAlgebra(_table(n, assign), identity)
            return candidate if validate_hom_pre_lie(candidate).valid else None

        return n ** 3, build

    if spec.target == "dendriform":
        identity = LinearMap.identity(n)
        cube = n ** 3

        def build(assign):
            candidate = HomLDendriform(_table(n, assign[:cube]), _table(n, assign[cube:]), identity)
            return candidate if validate_l_dendriform(candidate).valid else None

        return 2 * cube, build

    if spec.target == "s_matrix":
        base = _require_base(spec, HomPreLieAlgebra, "twisted pre-Lie algebra")
        if base.dim != n:
            raise InvalidInput("base dimension %d does not match dim %d" % (base.dim, n))
        slots = _triangle_slots(n)

        def build(assign):
            items = {}
            for (i, j), c in zip(slots, assign):
                if c != 0:
                    items[(i, j)] = c
                    if i != j:
                        items[(j, i)] = c
            candidate = Tensor2.from_entries(n, n, items)      # symmetric by construction
            return candidate if solves_s_equation(base, candidate) else None

        return len(slots), build

    if spec.target == "hessian":
        base = _require_base(spec, HomPreLieAlgebra, "twisted pre-Lie algebra")
        if base.dim != n:
            raise InvalidInput("base dimension %d does not match dim %d" % (base.dim, n))
        slots = _triangle_slots(n)

        def build(assign):
            entries = [[0] * n for _ in range(n)]
            for (i, j), c in zip(slots, assign):
                entries[i][j] = c
                entries[j][i] = c
            candidate = BilinearForm(tuple(tuple(row) for row in entries), "symmetric")
            return candidate if validate_hessian(base, candidate).valid else None

        return len(slots), build

    base = _require_base(spec, HomPreLieRep, "representation")
    if base.algebra.dim != n:
        raise InvalidInput("base dimension %d does not match dim %d" % (base.algebra.dim, n))
    m = base.space_dim

    def build(assign):
        rows = tuple(tuple(assign[i * m:(i + 1) * m]) for i in range(n))
        candidate = OOperator(base, LinearMap(rows))
        return candidate if validate_o_operator(candidate).valid else None

    return n * m, build


def _assignment(spec, free, ordinal):
    if spec.mode == "exhaustive":
        coeffs = spec.coefficients
        width = len(coeffs)
        digits = []
        value = ordinal
        for _ in range(free):
            digits.append(coeffs[value % width])
            value //= width
        return tuple(reversed(digits))
    stream = substream(spec.seed, ordinal)
    return tuple(stream.pick(spec.coefficients) for _ in range(free))


def run_search(spec):
    """Enumerate or sample candidates and return the accepted ones as documents."""
    free, build = _build_target(spec)
    if spec.mode == "exhaustive":
        total = len(spec.coefficients) ** free
        if total > spec.budget:
            raise BudgetExceeded("exhaustive space %d exceeds budget %d" % (total, spec.budget))
    else:
        total = spec.attempts
        if total > spec.budget:
            raise BudgetExceeded("attempts %d exceed budget %d" % (total, spec.budget))
    if spec.limit == 0:
        return []
    # solves_s_equation takes its base as valid, so the base is checked once here
    if spec.target == "s_matrix" and not validate_hom_pre_lie(spec.base).valid:
        raise InvalidInput("is_hom_s_matrix needs a valid twisted pre-Lie algebra")

    seen = set()
    documents = []
    for ordinal in range(total):
        value = build(_assignment(spec, free, ordinal))
        if value is None:
            continue
        doc = document_for(value)
        key = serialize_document(doc)
        if key in seen:
            continue
        seen.add(key)
        documents.append(doc)
        if len(documents) == spec.limit:
            break
    return documents
