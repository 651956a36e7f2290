"""Span tracer for one child process, installed around the package's layers.

``Tracer.install`` replaces each callable named in ``TRACED`` by a wrapper,
both where it is defined and in every package module that bound it with
``from .x import y``.  A wrapper records a span on a stack; a span's self
time is its duration minus the durations of the traced spans it caused.
Hot leaves (``bracket_words`` runs tens of thousands of times per operation)
are only aggregated into per-name counters; the others are also kept as
spans ``(name, start, end, parent)`` and written out with the aggregates.

Counter hooks run outside every span's clock, so they cost the traced run
wall time but are charged to no layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute path, span name, hot)
TRACED = (
    ("linalg", "EchelonBasis.insert", "linalg.echelon_insert", True),
    ("linalg", "SubspaceBasis.reduce", "linalg.subspace_reduce", True),
    ("lyndon", "bracket_words", "lyndon.bracket_words", True),
    ("poisson", "poiss_product", "poisson.poiss_product", True),
    ("poisson", "poiss_bracket", "poisson.poiss_bracket", True),
    ("poisson", "FreePoissonAlgebra.monomials", "poisson.monomials", True),
    ("exprs", "parse", "exprs.parse", False),
    ("coalgebra", "load_spec", "coalgebra.load_spec", False),
    ("coalgebra", "validate_coalgebra", "coalgebra.validate_coalgebra", False),
    ("colimits", "ideal_saturate", "colimits.ideal_saturate", False),
    ("colimits", "TruncatedQuotient.nf_vec", "colimits.nf_vec", True),
    ("colimits", "MorphismTable.apply", "colimits.morphism_apply", True),
    ("colimits", "poisson_coproduct", "colimits.poisson_coproduct", False),
    ("colimits", "poisson_coequalizer", "colimits.poisson_coequalizer", False),
    ("bialgebra", "PresentedPoissonBialgebra.delta_of_monomial", "bialgebra.delta_of_monomial", True),
    ("bialgebra", "PresentedPoissonBialgebra.pair_bracket_std", "bialgebra.pair_bracket_std", True),
    ("bialgebra", "PresentedPoissonBialgebra.reduce_pair", "bialgebra.reduce_pair", True),
    ("bialgebra", "induce_bialgebra", "bialgebra.induce_bialgebra", False),
    ("bialgebra", "check_bialgebra", "bialgebra.check_bialgebra", False),
    ("bialgebra", "bialgebra_coproduct", "bialgebra.bialgebra_coproduct", False),
    ("bialgebra", "bialgebra_coequalizer", "bialgebra.bialgebra_coequalizer", False),
    ("bialgebra", "coideal_certificate", "bialgebra.coideal_certificate", False),
    ("free_hopf", "free_poisson_hopf", "free_hopf.free_poisson_hopf", False),
    ("free_hopf", "staged_coproduct", "free_hopf.staged_coproduct", False),
    ("free_hopf", "hopf_ideal_generators", "free_hopf.hopf_ideal_generators", False),
    ("free_hopf", "fixpoint_certificate", "free_hopf.fixpoint_certificate", False),
    ("free_hopf", "s_prime_stability_certificate", "free_hopf.sprime_certificate", False),
    ("free_hopf", "verify_antipode", "free_hopf.verify_antipode", False),
    ("verify", "check_coassociativity", "verify.check_coassociativity", False),
    ("verify", "check_counit", "verify.check_counit", False),
    ("verify", "check_poisson_compat", "verify.check_poisson_compat", False),
    ("verify", "check_leibniz", "verify.check_leibniz", False),
    ("verify", "check_jacobi", "verify.check_jacobi", False),
    ("verify", "check_antipode_antimorphism", "verify.check_antipode_antimorphism", False),
    ("verify", "tensor_bracket", "verify.tensor_bracket", True),
    ("cli", "main", "cli.main", False),
    ("cli", "emit", "cli.emit", False),
)

PACKAGE = "poissonhopf"


class Tracer:
    def __init__(self):
        self.stats: dict = {}  # span name -> [calls, self_s, total_s]
        self.active: dict = {}  # span name -> open calls (recursion depth)
        self.child = [0.0]  # per open span: time of its traced children
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.open_spans = [-1]
        self.counters = {
            "linalg.echelon_useful": 0,
            "colimits.ideal_rank": 0,
            "colimits.saturate_brackets": 0,
            "colimits.saturate_lossy": 0,
            "colimits.nf_terms": 0,
            "verify.residuals_checked": 0,
        }
        self._nf_seen: dict = {}  # quotient -> set of monomials passed to nf_vec
        self._monomials: dict = {}  # (alphabet, truncation, degree) -> count
        self.hooks = {
            "linalg.echelon_insert": self._on_insert,
            "colimits.ideal_saturate": self._on_saturate,
            "poisson.poiss_bracket": self._on_bracket,
            "colimits.nf_vec": self._on_nf_vec,
            "poisson.monomials": self._on_monomials,
        }
        for name in (
            "check_coassociativity", "check_counit", "check_poisson_compat",
            "check_leibniz", "check_jacobi", "check_antipode_antimorphism",
        ):
            self.hooks[f"verify.{name}"] = self._on_check

    # -- counter hooks: (args, result) of the wrapped call --

    def _on_insert(self, args, result):
        if result is not None:
            self.counters["linalg.echelon_useful"] += 1

    def _on_saturate(self, args, result):
        self.counters["colimits.ideal_rank"] += result.rank

    def _on_bracket(self, args, result):
        if self.active.get("colimits.ideal_saturate"):
            self.counters["colimits.saturate_brackets"] += 1
            if result.lossy:
                self.counters["colimits.saturate_lossy"] += 1

    def _on_nf_vec(self, args, result):
        quotient, vec = args[0], args[1]
        self.counters["colimits.nf_terms"] += len(vec)
        self._nf_seen.setdefault(quotient, set()).update(vec.labels())

    def _on_monomials(self, args, result):
        ambient, degree = args[0], args[1]
        self._monomials[(ambient.alphabet, ambient.truncation, degree)] = len(result)

    def _on_check(self, args, result):
        self.counters["verify.residuals_checked"] += result.checked

    # -- wrapping --

    def wrap(self, name: str, fn, hot: bool):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        self.active.setdefault(name, 0)
        active, child, spans, open_spans = self.active, self.child, self.spans, self.open_spans
        hook = self.hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = active[name] == 0
            active[name] += 1
            if not hot:
                index = len(spans)
                spans.append([name, 0.0, 0.0, open_spans[-1]])
                open_spans.append(index)
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                inner = child.pop()
                child[-1] += duration
                active[name] -= 1
                stat[0] += 1
                stat[1] += duration - inner
                if outermost:
                    stat[2] += duration
                if not hot:
                    open_spans.pop()
                    spans[index][1] = start
                    spans[index][2] = start + duration
            if hook is not None:
                hook_start = clock()
                hook(args, result)
                # charged to nobody: the caller's self time excludes it
                child[-1] += clock() - hook_start
            return result

        return traced

    def install(self) -> None:
        importlib.import_module(PACKAGE)
        modules = [m for key, m in sys.modules.items() if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module_name, path, name, hot in TRACED:
            owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapper = self.wrap(name, original, hot)
            setattr(owner, attr, wrapper)
            if not outer:
                # every `from .x import y` binding of a module-level function
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)

    def summary(self) -> dict:
        counters = dict(self.counters)
        counters["colimits.nf_distinct"] = sum(len(s) for s in self._nf_seen.values())
        counters["poisson.ambient_monomials"] = sum(self._monomials.values())
        return {
            "stats": {
                name: {"calls": calls, "self_s": self_s, "total_s": total_s}
                for name, (calls, self_s, total_s) in sorted(self.stats.items())
            },
            "counters": counters,
            "spans": self.spans,
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh)
