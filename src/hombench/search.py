"""Deterministic example search over small coefficient lattices.

Candidates are indexed by an ordinal. In exhaustive mode the ordinal walks the
lexicographic enumeration of all coefficient assignments (an odometer over the
free slots); in seeded mode each ordinal gets its own generator stream derived
from the seed. Candidates are evaluated in ordinal order and duplicates are
dropped by canonical text, so the output depends only on the search
specification. The budget bounds the number of candidates evaluated.

The hom_pre_lie and dendriform targets test a candidate on integer planes: the
coefficients are scaled to ints once per search, each assignment is sliced into
the planes of its table(s), and the validator core (the same sums that
validate_hom_pre_lie and validate_l_dendriform report from) runs until its
first failing instance, which is never unpacked. Search asks the core for the
axiom instances before multiplicativity: the order cannot change which
candidates fail, and the first instances of the axioms reject nearly every
candidate, before the operators that later instances read are built. Only an
accepted candidate becomes a Tensor3, an algebra or dendriform, and a document.
"""

from itertools import product

from .errors import BudgetExceeded, InvalidInput
from .foundation import LinearMap, Tensor2, Tensor3, frac, _instance_bits, _integer_family, _scaled
from .algebras import (BilinearForm, HomPreLieAlgebra, validate_hessian,
                       validate_hom_pre_lie, _hom_pre_lie_failures)
from .representations import HomPreLieRep
from .bialgebras import solves_s_equation
from .dendriform import HomLDendriform, OOperator, validate_o_operator, _l_dendriform_failures
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


def _planes(n, assign):
    """The n planes of n int output vectors whose coefficients, in lexicographic
    (i, j, k) order, are assign."""
    return [[assign[(i * n + j) * n:(i * n + j + 1) * n] for j in range(n)] for i in range(n)]


def _triangle_slots(n):
    return [(i, j) for i in range(n) for j in range(i, n)]


def _build_target(spec):
    """Return (free_slot_count, values, build): the assignments draw their free
    slots from values, and build maps an assignment to an accepted value or None.

    The hom_pre_lie and dendriform targets draw from the coefficients scaled to
    ints, test each assignment's int planes with the validator core, axioms
    first, and stop at its first failure; only an accepted candidate becomes a
    table and an object. The twist's int form and the cores' slot width are
    found once per search."""
    n = spec.dim
    if spec.target in ("hom_pre_lie", "dendriform"):
        twist = LinearMap.identity(n)
        e, (twist_rows,) = _integer_family([twist])
        twist_cols = list(zip(*twist_rows))
        p, values = _scaled(spec.coefficients)     # the coefficients times their lcm denominator p
        w = _instance_bits(n, max(map(abs, values)), p, 1, e)      # the identity's entries are 0 and 1
        cube = n ** 3
        dims = (n, n, n)

        def hom_pre_lie(assign):
            planes = _planes(n, assign)
            if next(_hom_pre_lie_failures(planes, p, twist_cols, e, w, axioms_first=True), None) is not None:
                return None
            return HomPreLieAlgebra(Tensor3.from_integers(planes, p, dims), twist)

        def dendriform(assign):
            left, right = _planes(n, assign[:cube]), _planes(n, assign[cube:])
            if next(_l_dendriform_failures(left, right, p, twist_cols, e, w, axioms_first=True), None) is not None:
                return None
            return HomLDendriform(Tensor3.from_integers(left, p, dims),
                                  Tensor3.from_integers(right, p, dims), twist)

        # The twist is the identity, so twist invertibility, the first record of
        # the validators' reports, holds for every candidate.
        if spec.target == "hom_pre_lie":
            return cube, values, hom_pre_lie
        return 2 * cube, values, dendriform

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

        return len(slots), spec.coefficients, build

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

        return len(slots), spec.coefficients, build

    base = _require_base(spec, HomPreLieRep, "representation")
    if base.algebra.dim != n:
        raise InvalidInput("base dimension %d does not match dim %d" % (base.algebra.dim, n))
    m = base.space_dim

    def build(assign):
        rows = tuple(tuple(assign[i * m:(i + 1) * m]) for i in range(n))
        candidate = OOperator(base, LinearMap(rows))
        return candidate if validate_o_operator(candidate).valid else None

    return n * m, spec.coefficients, build


def _assignments(spec, values, free, total):
    """The total coefficient assignments of the free slots, in ordinal order: the
    lexicographic enumeration in exhaustive mode, and one draw from each
    ordinal's own stream in seeded mode."""
    if spec.mode == "exhaustive":
        yield from product(values, repeat=free)
        return
    for ordinal in range(total):
        stream = substream(spec.seed, ordinal)
        yield tuple(stream.pick(values) for _ in range(free))


def run_search(spec):
    """Enumerate or sample candidates and return the accepted ones as documents."""
    free, values, build = _build_target(spec)
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
    for assign in _assignments(spec, values, free, total):
        value = build(assign)
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
