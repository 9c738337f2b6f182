"""Spans and counters around calls into exlift's public functions.

The tracer wraps each traced function at every ``exlift`` module attribute
bound to it, so calls the package makes internally (``lifting.e_orbit_factor``,
``certificates.try_inverse``, ...) go through the wrapper as well as calls
from the benchmark.  Nothing under ``src/`` changes.

Spans are kept in memory as ``[name, parent, start, end, phase]`` and turned
into per-layer self times when the repetition ends.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("rings", "exchange", "vmonoid", "ktheory", "matrices", "scans",
          "lifting", "certificates")

# module -> traced public functions; None means every public function.
TRACED = {
    "rings": ("build_ring", "all_ideals", "quotient_by", "ideal_closure"),
    "exchange": ("is_exchange_ring", "is_exchange_ideal"),
    "vmonoid": ("build_v_monoid", "v_order_ideal", "has_refinement_wrt",
                "is_separative"),
    "ktheory": ("fredholm_elements", "is_fredholm", "index", "k0_zero_test"),
    "matrices": ("e_orbit_factor", "try_inverse"),
    "scans": None,
    "lifting": ("lift_unit", "separative_exchange_status", "diagonalize_2x2",
                "reduce_row", "reduce_col", "unit_regular_witness",
                "oracle_lift"),
    "certificates": ("lift_payload", "dumps_certificate", "verify_payload"),
}

# per-layer time metric -> spans whose self time it sums
SELF_TIMES = {
    "rings.build_ring_s": ("rings.build_ring",),
    "rings.all_ideals_s": ("rings.all_ideals",),
    "rings.quotient_by_s": ("rings.quotient_by",),
    "rings.ideal_closure_s": ("rings.ideal_closure",),
    "exchange.check_s": ("exchange.is_exchange_ring",
                         "exchange.is_exchange_ideal"),
    "vmonoid.build_s": ("vmonoid.build_v_monoid",),
    "vmonoid.order_ideal_s": ("vmonoid.v_order_ideal",),
    "vmonoid.checks_s": ("vmonoid.has_refinement_wrt", "vmonoid.is_separative"),
    "ktheory.fredholm_s": ("ktheory.fredholm_elements", "ktheory.is_fredholm"),
    "ktheory.index_s": ("ktheory.index",),
    "ktheory.zero_test_s": ("ktheory.k0_zero_test",),
    "matrices.e_orbit_factor_s": ("matrices.e_orbit_factor",),
    "matrices.try_inverse_s": ("matrices.try_inverse",),
    "lifting.lift_unit_s": ("lifting.lift_unit",),
    "lifting.separative_status_s": ("lifting.separative_exchange_status",),
    "lifting.diagonalize_s": ("lifting.diagonalize_2x2",),
    "lifting.reduce_s": ("lifting.reduce_row", "lifting.reduce_col"),
    "lifting.unit_regular_s": ("lifting.unit_regular_witness",),
    "lifting.oracle_s": ("lifting.oracle_lift",),
    "certificates.emit_s": ("certificates.lift_payload",
                            "certificates.dumps_certificate"),
    "certificates.verify_s": ("certificates.verify_payload",),
}

COUNTERS = ("matrices.orbit_queries", "matrices.orbit_hits",
            "matrices.try_inverse_calls", "vmonoid.idempotents",
            "vmonoid.classes", "rings.carrier_max", "scans.calls",
            "lifting.stages", "lifting.word_ops", "certificates.checks",
            "certificates.bytes")

# (name, unit, better) of every metric ``summary`` reports
METRICS = (
    tuple((name, "s", "lower") for name in SELF_TIMES)
    + (("scans.s", "s", "lower"),)
    + tuple((name, "count", "higher" if name == "certificates.checks"
             else "lower") for name in COUNTERS
            if name not in ("matrices.orbit_hits", "certificates.bytes"))
    + (("certificates.bytes", "B", "lower"),
       ("matrices.orbit_hit_frac", "frac", "higher"))
    + tuple((f"share.{layer}", "frac", "lower")
            for layer in LAYERS + ("harness",))
    + (("trace.spans", "count", "lower"),)
)


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans: list = []
        self.stack: list = []
        self.phase = "setup"
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._monoids: set = set()

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        rec = [name, self.stack[-1] if self.stack else None, self.clock(),
               None, self.phase]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[3] = self.clock()
            self.stack.pop()

    def wrap(self, name: str, fn):
        observe = getattr(self, "_on_" + name.replace(".", "_"), None)
        if name.startswith("scans."):
            observe = self._on_scan

        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if observe is not None:
                observe(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every traced function at each exlift module attribute."""
        import exlift  # noqa: F401  (loads the package and its modules)
        mods = [m for n, m in list(sys.modules.items())
                if n == "exlift" or n.startswith("exlift.")]
        for layer, names in TRACED.items():
            mod = sys.modules["exlift." + layer]
            if names is None:
                names = [n for n, v in vars(mod).items()
                         if callable(v) and not n.startswith("_")
                         and getattr(v, "__module__", None) == mod.__name__]
            for fn_name in names:
                orig = getattr(mod, fn_name)
                wrapper = self.wrap(f"{layer}.{fn_name}", orig)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)

    # -- counters ------------------------------------------------------------

    def _on_matrices_e_orbit_factor(self, out):
        self.counts["matrices.orbit_queries"] += 1
        self.counts["matrices.orbit_hits"] += out is not None

    def _on_matrices_try_inverse(self, out):
        self.counts["matrices.try_inverse_calls"] += 1

    def _on_vmonoid_build_v_monoid(self, vm):
        if id(vm) not in self._monoids:    # builds are cached per ring
            self._monoids.add(id(vm))
            self.counts["vmonoid.idempotents"] += len(vm.class_of)
            self.counts["vmonoid.classes"] += len(vm.classes)

    def _on_rings_build_ring(self, ring):
        self.counts["rings.carrier_max"] = max(
            self.counts["rings.carrier_max"], ring.size)

    def _on_scan(self, out):
        self.counts["scans.calls"] += 1

    def _on_lifting_lift_unit(self, res):
        cert = res.certificate
        if cert is None:
            return
        self.counts["lifting.stages"] += len(cert.stages)
        ops = len(cert.z_word)
        for st in cert.stages:
            d = st.diag
            ops += len(d.gamma) + len(d.beta) + len(d.epsilon)
        self.counts["lifting.word_ops"] += ops

    def _on_certificates_dumps_certificate(self, text):
        self.counts["certificates.bytes"] += len(text)

    def _on_certificates_verify_payload(self, out):
        self.counts["certificates.checks"] += len(out[1])

    # -- summary -------------------------------------------------------------

    def summary(self, wall_s: float, scale: float = 1.0) -> dict:
        """Per-layer metrics of one repetition.

        Times are self times summed over set-up and the timed phase, times
        ``scale``; shares are timed-phase self time over ``wall_s``, both as
        measured by ``clock``.
        """
        child = [0.0] * len(self.spans)
        for name, parent, start, end, phase in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_by_name: dict = {}
        timed_by_layer = dict.fromkeys(LAYERS + ("harness",), 0.0)
        for i, (name, parent, start, end, phase) in enumerate(self.spans):
            own = end - start - child[i]
            self_by_name[name] = self_by_name.get(name, 0.0) + own
            if phase == "timed":
                timed_by_layer[name.split(".")[0]] += own
        out = {metric: scale * sum(self_by_name.get(n, 0.0) for n in names)
               for metric, names in SELF_TIMES.items()}
        out["scans.s"] = scale * sum(v for n, v in self_by_name.items()
                                     if n.startswith("scans."))
        out.update(self.counts)
        q = self.counts["matrices.orbit_queries"]
        out["matrices.orbit_hit_frac"] = (
            self.counts["matrices.orbit_hits"] / q if q else 0.0)
        for layer, t in timed_by_layer.items():
            out[f"share.{layer}"] = t / wall_s
        out["trace.spans"] = len(self.spans)
        return out
