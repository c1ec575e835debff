"""Spans around rclab's public functions, installed from outside the package.

``install`` replaces public functions of the six rclab modules by wrappers
that record a span (name, start, end, parent) per call, everywhere the
function object is bound as a module attribute: names imported into other
modules (``quadrature.compute_C``, ``tube.compute_c``) are caught too, so
calls between modules show up.  Spans stay in memory; ``write_jsonl`` writes
them out and ``layer_metrics`` folds them into the per-layer metrics.
"""

from __future__ import annotations

import json
import time

MODULES = ("algebra", "sympoly", "brackets", "quadrature", "tube", "cli")

# Methods traced besides module-level functions.
METHODS = {
    "sympoly": {"BracketPolynomial": ("evaluate", "evaluate_specialized", "specialize")},
    "brackets": {"OrthoPoly": ("evaluate",)},
}

# Cheap helpers called once per coordinate or element in inner loops: a
# span each would cost more than the work it times, so their time stays
# with the caller.
UNTRACED = {
    "algebra": {"det", "trace", "inner", "jordan_mul", "quad_rep", "in_cone",
                "in_interval", "get_algebra", "random_rational_element",
                "random_cone_point", "random_interval_point"},
    "quadrature": {"bump", "scaled_interval_rule"},
    "tube": {"det_batch", "tube_point"},
}

# metric stem -> span names.  Each stem gets `<stem>.s`, the time of its
# outermost spans, except brackets.compute_c, whose time is reported as
# brackets.compute_c.first.s; the stems in COUNTED also get `<stem>.calls`,
# the number of outermost spans (a Legendre rule built from a Jacobi rule
# counts once).
GROUPS = {
    "sympoly.apply_D_power": ("sympoly.apply_D_power",),
    "sympoly.extract": ("sympoly.extract_bracket_polynomial",),
    "sympoly.cayley_check": ("sympoly.cayley_check",),
    "sympoly.evaluate": ("sympoly.BracketPolynomial.evaluate",
                         "sympoly.BracketPolynomial.evaluate_specialized",
                         "sympoly.BracketPolynomial.specialize"),
    "brackets.tables": ("brackets.bracket_table_json", "brackets.bracket_table_csv",
                        "brackets.bracket_table_latex"),
    "brackets.compute_c": ("brackets.compute_c",),
    "brackets.compute_C": ("brackets.compute_C",),
    "brackets.check_chi_covariance": ("brackets.check_chi_covariance",),
    "quadrature.gauss_rules": ("quadrature.gauss_jacobi", "quadrature.gauss_legendre",
                               "quadrature.gauss_laguerre"),
    "quadrature.weyl_integral": ("quadrature.weyl_integral",),
    "quadrature.gram_matrix": ("quadrature.gram_matrix",),
    "quadrature.change_of_variables": ("quadrature.check_change_of_variables",),
    "quadrature.tube_laplace": ("quadrature.tube_laplace",),
    "quadrature.gamma_numeric": ("quadrature.gamma_omega_numeric",),
    "tube.logdet_tube": ("tube.logdet_tube",),
    "tube.holo_mixed_derivatives": ("tube.holo_mixed_derivatives",),
    "tube.apply_B": ("tube.apply_B",),
    "tube.check_covariance_B": ("tube.check_covariance_B",),
    "tube.check_adjoint_image": ("tube.check_adjoint_image",),
    "tube.check_J_factorization": ("tube.check_J_factorization",),
    "algebra.spectral": ("algebra.spectral",),
    "algebra.iota": ("algebra.iota",),
}
TIMED = tuple(stem for stem in GROUPS if stem != "brackets.compute_c")
COUNTED = ("sympoly.evaluate", "brackets.compute_c", "quadrature.gauss_rules",
           "quadrature.weyl_integral", "tube.holo_mixed_derivatives",
           "algebra.spectral", "algebra.iota")
BUILDS = ("sym3-k2", "sym4-k1")
# rclab.cli.SUITES as the benchmark was written; a suite added later is
# still traced but reported only through cli.self_s and its module's time.
SUITES = ("polynomiality", "exchange", "chi-covariance", "cayley", "jacobi",
          "iota-factorization", "jordan-numerics", "change-of-variables", "gamma",
          "orthogonality", "laplace", "laplace-factorization", "operator-equivalence",
          "adjoint-image", "partial-isometry", "covariance", "cocycles",
          "aut-invariance", "branch", "cauchy-stability")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, attrs]
        self.stack = []
        self.counts = {"sympoly.peak_terms": 0, "quadrature.integrand_evals": 0,
                       "tube.logdet_tube.points": 0}
        self._built = set()

    def wrap(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            attrs = None
            if before is not None:
                args, kwargs, attrs = before(args, kwargs)
            idx = len(spans)
            span = [name, clock(), None, stack[-1] if stack else -1, attrs]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- hooks for counts taken at span boundaries ---------------------------

    def _count_integrand(self, args, kwargs):
        """Wrap the integrand (second argument) so each node evaluation counts."""
        counts = self.counts
        args = list(args)
        key = 1 if len(args) > 1 else next(k for k in ("f_eig", "h_eig") if k in kwargs)
        f = args[key] if isinstance(key, int) else kwargs[key]

        def counted(*a, **kw):
            counts["quadrature.integrand_evals"] += 1
            return f(*a, **kw)

        if isinstance(key, int):
            args[key] = counted
        else:
            kwargs = dict(kwargs, **{key: counted})
        return tuple(args), kwargs, None

    def _count_points(self, args, kwargs):
        import numpy as np

        coords = np.asarray(args[1] if len(args) > 1 else kwargs["coords"])
        self.counts["tube.logdet_tube.points"] += coords.shape[0] if coords.ndim > 1 else 1
        return args, kwargs, None

    def _note_key(self, args, kwargs):
        algebra = args[0]
        k = args[1] if len(args) > 1 else kwargs["k"]
        key = f"{algebra.name}-k{k}"
        first = key not in self._built
        self._built.add(key)
        return args, kwargs, {"key": key, "first": first}

    def _peak_terms(self, expr):
        self.counts["sympoly.peak_terms"] = max(self.counts["sympoly.peak_terms"],
                                                expr.num_terms())

    def install(self, rclab):
        """Wrap the public functions of rclab's modules (``rclab`` is the package)."""
        import importlib

        mods = {m: importlib.import_module(f"rclab.{m}") for m in MODULES}
        hooks = {
            "quadrature.weyl_integral": (self._count_integrand, None),
            "quadrature.cone_integrate_invariant": (self._count_integrand, None),
            "tube.logdet_tube": (self._count_points, None),
            "brackets.compute_c": (self._note_key, None),
            "sympoly.apply_D_power": (None, self._peak_terms),
        }
        targets = []
        for mname, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not callable(obj) or isinstance(obj, type)
                        or getattr(obj, "__module__", None) != mod.__name__
                        or attr in UNTRACED.get(mname, ())):
                    continue
                targets.append((mname, attr, obj))
        for mname, mod in mods.items():
            for cls_name, methods in METHODS.get(mname, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    name = f"{mname}.{cls_name}.{meth}"
                    setattr(cls, meth, self.wrap(name, getattr(cls, meth), *hooks.get(name, (None, None))))
        everywhere = [rclab, *mods.values()]
        for mname, attr, obj in targets:
            name = f"{mname}.{attr}"
            wrapped = self.wrap(name, obj, *hooks.get(name, (None, None)))
            for mod in everywhere:
                if vars(mod).get(attr) is obj:
                    setattr(mod, attr, wrapped)
        suites = mods["cli"].SUITES
        for sname, fn in list(suites.items()):
            suites[sname] = self.wrap(f"cli.suite.{sname}", fn)

    # -- output ---------------------------------------------------------------

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, attrs) in enumerate(self.spans):
                rec = {"id": idx, "name": name, "start": start, "end": end, "parent": parent}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")

    def layer_metrics(self):
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for s, d in zip(spans, dur):
            if s[3] >= 0:
                child[s[3]] += d
        out = {f"{m}.self_s": 0.0 for m in MODULES}
        for s, d, c in zip(spans, dur, child):
            out[s[0].split(".", 1)[0] + ".self_s"] += d - c

        def outermost(names):
            """Spans in ``names`` with no ancestor in ``names`` (no double count)."""
            inside = [False] * len(spans)
            picked = []
            for i, s in enumerate(spans):
                p = s[3]
                anc = p >= 0 and (inside[p] or spans[p][0] in names)
                inside[i] = anc
                if s[0] in names and not anc:
                    picked.append(i)
            return picked

        for stem, names in GROUPS.items():
            names = set(names)
            if stem in TIMED:
                out[f"{stem}.s"] = sum(dur[i] for i in outermost(names))
            if stem in COUNTED:
                out[f"{stem}.calls"] = len(outermost(names))
        first = [i for i, s in enumerate(spans)
                 if s[0] == "brackets.compute_c" and s[4] and s[4]["first"]]
        out["brackets.compute_c.first.s"] = sum(dur[i] for i in first)
        build_names = {"sympoly.apply_D_power", "sympoly.extract_bracket_polynomial"}
        for key in BUILDS:
            out[f"sympoly.build.{key}.s"] = sum(
                dur[i] for i, s in enumerate(spans)
                if s[0] in build_names and s[3] >= 0
                and spans[s[3]][0] == "brackets.compute_c" and spans[s[3]][4]["key"] == key)
        for sname in SUITES:
            out[f"cli.suite.{sname}.s"] = sum(
                d for s, d in zip(spans, dur) if s[0] == f"cli.suite.{sname}")
        out.update(self.counts)
        return out
