"""Per-layer tracing from outside the library.

The tracer wraps public functions of ``hombench`` by rebinding every module
namespace entry (and every module-level dict value, such as the validator and
check registries) that holds the original function, plus three ``LinearMap``
methods. While a round is being recorded, each wrapped call leaves a span
(name, start, end, parent) in memory and adds its self time (its duration
minus the time of its child spans) to its function's total. ``uninstall``
restores every binding.
"""

import sys
import time
from array import array

# (module, function) pairs traced with spans. LinearMap.__matmul__ and
# LinearMap.inverse are traced as foundation.matmul and foundation.inverse.
TRACED = (
    ("foundation", ("tensor_product_map", "apply_bilinear")),
    ("algebras", ("validate_hom_pre_lie", "validate_hom_lie", "validate_hessian")),
    ("representations", ("validate_pre_lie_rep", "validate_lie_rep", "check_one_cocycle",
                         "coboundary_rep", "star_maps")),
    ("matched", ("validate_matched_pair_pre_lie", "validate_matched_pair_lie",
                 "validate_manin_triple", "double_pre_lie", "double_lie",
                 "coadjoint_matched_pair")),
    ("bialgebras", ("validate_bialgebra", "check_equivalence_theorem", "is_hom_s_matrix",
                    "hom_s_bracket", "dual_product_from_r")),
    ("dendriform", ("validate_l_dendriform", "validate_o_operator", "semidirect_smatrix",
                    "check_smatrix_ooperator_equiv")),
    ("documents", ("parse_documents", "serialize_documents", "serialize_document")),
    ("search", ("run_search",)),
    ("checks", ("run_validate", "run_check", "run_derive")),
    ("cli", ("main",)),
)

COUNTERS = ("foundation.linear_maps_built", "foundation.matmul.mults",
            "algebras.identity_instances", "documents.bytes_parsed",
            "search.candidates", "search.accepted")

SPAN_NAMES = tuple(["foundation.matmul", "foundation.inverse"] +
                   ["%s.%s" % (mod, fn) for mod, fns in TRACED for fn in fns])


def identity_instances(name, dim):
    """Identity instances a single-algebra validator checks at this dimension,
    counting twist invertibility as one."""
    n = dim
    if name == "validate_hom_pre_lie":
        return 1 + n * n + n * n * (n - 1) // 2
    if name == "validate_hom_lie":
        return n * (n + 1) // 2 + 1 + n * n + n ** 3
    return 1 + n * (n + 1) // 2 + n * n * (n - 1) // 2      # validate_hessian


def search_candidates(spec):
    """Candidates a search evaluates when its limit is not reached."""
    if spec.mode == "seeded":
        return spec.attempts
    n = spec.dim
    free = {"hom_pre_lie": n ** 3, "dendriform": 2 * n ** 3, "s_matrix": n * (n + 1) // 2,
            "hessian": n * (n + 1) // 2}.get(spec.target)
    if free is None:
        free = n * spec.base.space_dim
    return len(spec.coefficients) ** free


class Tracer:
    def __init__(self, hb):
        self.hb = hb
        self.recording = False
        self.names = list(SPAN_NAMES)
        self.name_ids = {name: i for i, name in enumerate(self.names)}
        self._undo = []
        self.reset()

    def reset(self):
        """Forget the spans and totals of earlier rounds."""
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = [0] * len(self.names)
        self.self_time = [0.0] * len(self.names)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = []

    def _span(self, name, fn, before=None):
        ident = self.name_ids[name]

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            stack = self._stack
            index = len(self.span_name)
            self.span_name.append(ident)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [index, 0.0]         # span index, time spent in child spans
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                self.span_start[index] = start
                self.span_end[index] = end
                self.calls[ident] += 1
                self.self_time[ident] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if name == "search.run_search":
                self.counts["search.accepted"] += len(result)
            return result

        return wrapper

    def _bind_everywhere(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hombench" or mod_name.startswith("hombench.")):
                continue
            space = vars(mod)
            for attr, value in list(space.items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((space, attr, original))
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if entry is original:
                            value[key] = replacement
                            self._undo.append((value, key, original))

    def _count(self, key, amount):
        self.counts[key] += amount

    def install(self):
        hb = self.hb
        for mod, fns in TRACED:
            module = getattr(hb, mod)
            for fn in fns:
                original = getattr(module, fn)
                before = None
                if fn in ("validate_hom_pre_lie", "validate_hom_lie", "validate_hessian"):
                    before = (lambda name: lambda args, kwargs: self._count(
                        "algebras.identity_instances",
                        identity_instances(name, args[0].dim)))(fn)
                elif fn == "parse_documents":
                    before = lambda args, kwargs: self._count(
                        "documents.bytes_parsed", len(args[0].encode("utf-8")))
                elif fn == "run_search":
                    before = lambda args, kwargs: self._count(
                        "search.candidates", search_candidates(args[0]))
                self._bind_everywhere(original, self._span("%s.%s" % (mod, fn), original, before))
        cls = hb.LinearMap
        init = cls.__init__

        def counted_init(obj, *args, **kwargs):
            if self.recording:
                self.counts["foundation.linear_maps_built"] += 1
            init(obj, *args, **kwargs)

        def mults(args, kwargs):
            left, right = args[0], args[1]
            if isinstance(right, cls):
                self._count("foundation.matmul.mults", left.rows * left.cols * right.cols)

        for attr, replacement in (("__init__", counted_init),
                                  ("__matmul__", self._span("foundation.matmul",
                                                            cls.__matmul__, mults)),
                                  ("inverse", self._span("foundation.inverse", cls.inverse))):
            self._undo.append((cls, attr, vars(cls)[attr]))
            setattr(cls, attr, replacement)

    def uninstall(self):
        while self._undo:
            target, key, original = self._undo.pop()
            if isinstance(target, dict) and not isinstance(target, type):
                target[key] = original
            else:
                setattr(target, key, original)

    def snapshot(self):
        """Calls, self seconds and counts of what was recorded since reset()."""
        return {"calls": dict(zip(self.names, self.calls)),
                "self_s": dict(zip(self.names, self.self_time)),
                "counts": dict(self.counts)}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tparent\tname\tstart_s\tend_s\n")
            base = self.span_start[0] if len(self.span_start) else 0.0
            names = self.names
            for i in range(len(self.span_name)):
                handle.write("%d\t%d\t%s\t%.9f\t%.9f\n" % (
                    i, self.span_parent[i], names[self.span_name[i]],
                    self.span_start[i] - base, self.span_end[i] - base))
