"""Per-layer tracing of acmcheck from outside the package.

The tracer replaces the public functions of each acmcheck module with
wrappers that record a span (layer, start, end, parent, call) or bump a
counter, and puts the originals back on ``uninstall``.  Spans stay in
memory in flat arrays and are written out when the run ends.

A wrapped function is replaced in every acmcheck module that holds it, so
``from .connection import bracket`` in ``classify`` is traced as well as
``connection.bracket``.  Modules are looked up in ``sys.modules``: the
attribute ``acmcheck.classify`` is the function re-exported by the
package, not the module.  A target that no longer exists is recorded as
absent, and its layer metrics read 0.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (layer, module, qualified name).  Span layers report self time: a span's
# duration minus the time its child spans cover.
SPANS = (
    ("cli.main", "acmcheck.cli", "main"),
    ("manifest.load", "acmcheck.manifest", "load_manifest"),
    ("manifest.load", "acmcheck.manifest", "manifest_from_dict"),
    ("expr.parse", "acmcheck.expr", "parse"),
    ("expr.jet", "acmcheck.expr", "ScalarField.jet"),
    ("chart.sample_points", "acmcheck.chart", "AdaptedChart.sample_points"),
    ("chart.rank", "acmcheck.chart", "rank_at"),
    ("structure.input_jets", "acmcheck.structure", "StructureEval._gamma"),
    ("structure.input_jets", "acmcheck.structure", "StructureEval._g"),
    ("structure.input_jets", "acmcheck.structure", "StructureEval._phi"),
    ("structure.tensors", "acmcheck.structure", "StructureEval.*"),
    ("structure.tensors", "acmcheck.structure", "validate_axioms"),
    ("structure.tensors", "acmcheck.structure", "metric_definiteness"),
    ("structure.tensors", "acmcheck.structure", "derived"),
    ("structure.tensors", "acmcheck.structure", "d_fundamental_form"),
    ("connection.oracle", "acmcheck.connection", "lc_coordinate"),
    ("connection.oracle", "acmcheck.connection", "_lc_coordinate"),
    ("connection.oracle", "acmcheck.connection", "coordinate_to_adapted"),
    ("connection.oracle", "acmcheck.connection", "_coordinate_to_adapted"),
    ("connection.adapted", "acmcheck.connection", "lc_adapted"),
    ("connection.adapted", "acmcheck.connection", "_lc_adapted"),
    ("connection.adapted", "acmcheck.connection", "canonical_connection"),
    ("connection.adapted", "acmcheck.connection", "n_connection"),
    ("connection.adapted", "acmcheck.connection", "_n_connection"),
    ("connection.torsion", "acmcheck.connection", "torsion"),
    ("connection.torsion", "acmcheck.connection", "_torsion"),
    ("connection.metricity", "acmcheck.connection", "metricity_defect"),
    ("connection.metricity", "acmcheck.connection", "_metricity_defect"),
    ("connection.metricity", "acmcheck.connection", "n_connection_formula_residual"),
    ("connection.cov_phi", "acmcheck.connection", "cov_phi"),
    ("connection.cov_phi", "acmcheck.connection", "_cov_phi"),
    ("connection.cov_phi", "acmcheck.connection", "internal_cov_deriv"),
    ("connection.cov_phi", "acmcheck.connection", "nabla_omega"),
    ("connection.cov_phi", "acmcheck.connection", "nabla_psi"),
    ("classify.nijenhuis", "acmcheck.classify", "nijenhuis_tensors"),
    ("classify.nijenhuis", "acmcheck.classify", "_nijenhuis"),
    ("classify.verdicts", "acmcheck.classify", "classify"),
    ("classify.verdicts", "acmcheck.classify", "projection_identity_residual"),
    ("classify.verdicts", "acmcheck.classify", "reeb_split_identity_residual"),
    ("classify.verdicts", "acmcheck.classify", "aqs_characterization_residual"),
    ("classify.verdicts", "acmcheck.classify", "qs_characterization_residual"),
    ("classify.verdicts", "acmcheck.classify", "qs_condition_residuals"),
    ("classify.verdicts", "acmcheck.classify", "canonical_nabla_phi_residual"),
    ("curvature.einstein", "acmcheck.curvature", "einstein_check"),
    ("curvature.einstein", "acmcheck.checks", "_einstein_summary"),
    ("curvature.tensors", "acmcheck.curvature", "schouten"),
    ("curvature.tensors", "acmcheck.curvature", "_schouten"),
    ("curvature.tensors", "acmcheck.curvature", "curvature_K"),
    ("curvature.tensors", "acmcheck.curvature", "_curvature_K"),
    ("curvature.tensors", "acmcheck.curvature", "curvature_canonical_direct"),
    ("curvature.tensors", "acmcheck.curvature", "ricci_wagner"),
    ("curvature.tensors", "acmcheck.curvature", "_ricci_wagner"),
    ("curvature.tensors", "acmcheck.curvature", "ricci_k"),
    ("checks.aggregate", "acmcheck.checks", "run_full_check"),
    ("checks.to_json", "acmcheck.checks", "RunReport.to_json"),
)

# (counter, module, qualified name): calls counted, no span.
# chart.sample_draws counts the candidate points that sample_points draws:
# each candidate is tested against the first 'avoid' field first, so a
# value (or jet) call on that field during sampling is one draw.
COUNTS = (
    ("chart.sample_draws", "acmcheck.expr", "ScalarField.value"),
    ("structure.eval", "acmcheck.structure", "StructureEval.__init__"),
    ("connection.bracket", "acmcheck.connection", "bracket"),
    ("classify.nijenhuis", "acmcheck.classify", "_nijenhuis"),
    ("numpy.einsum", "numpy", "einsum"),
)

# span name of the benchmark's own per-call span, the root of each call
CALL_SPAN = "bench.call"


class Tracer:
    """Spans and counts of one traced pass; ``install`` before the pass,
    ``uninstall`` after it, then read ``layer_totals`` and ``counts``."""

    def __init__(self):
        self.layers: list[str] = [CALL_SPAN]
        self.layer_ids = {CALL_SPAN: 0}
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_call = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.call_index = -1
        self.counts: dict[str, int] = {name: 0 for name, _, _ in COUNTS}
        self.jet_keys: set = set()
        self.jet_distinct = 0
        self.sample_accepted = 0
        self.avoid_sampled = False
        self._first_avoid = None
        self._in_draw = False
        self.present: dict[str, bool] = {}
        self._undo: list = []
        self._wrapped: dict = {}

    # -- spans ---------------------------------------------------------------

    def _layer_id(self, layer: str) -> int:
        if layer not in self.layer_ids:
            self.layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self.layer_ids[layer]

    def _open(self, layer_id: int) -> int:
        index = len(self.span_start)
        self.span_layer.append(layer_id)
        self.span_parent.append(self.stack[-1])
        self.span_call.append(self.call_index)
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.span_end[index] = time.perf_counter()
        self.stack.pop()

    def call(self, fn, *args):
        """Run one benchmark call as a root span; jet distinctness is per call.

        ``fn`` may be a reference taken before ``install``: its wrapper runs.
        """
        fn = self._wrapped.get(fn, fn)
        self.call_index += 1
        self.jet_keys = set()
        index = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(index)
            self.jet_distinct += len(self.jet_keys)

    def _span(self, layer: str, fn):
        layer_id = self._layer_id(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(layer_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    def _jet(self, fn):
        layer_id = self._layer_id("expr.jet")

        @functools.wraps(fn)
        def wrapper(field, point):
            if field is self._first_avoid and not self._in_draw:
                self.counts["chart.sample_draws"] += 1
            self.jet_keys.add((id(field), point.tobytes()
                               if hasattr(point, "tobytes") else tuple(point)))
            index = self._open(layer_id)
            try:
                return fn(field, point)
            finally:
                self._close(index)

        return wrapper

    def _value(self, fn):
        """Count a draw when sampling evaluates the first 'avoid' field; a
        jet taken inside this value call is the same draw."""
        @functools.wraps(fn)
        def wrapper(field, point):
            if field is not self._first_avoid or self._in_draw:
                return fn(field, point)
            self.counts["chart.sample_draws"] += 1
            self._in_draw = True
            try:
                return fn(field, point)
            finally:
                self._in_draw = False

        return wrapper

    def _sample_points(self, fn):
        layer_id = self._layer_id("chart.sample_points")

        @functools.wraps(fn)
        def wrapper(chart, count, seed):
            self._first_avoid = chart.avoid[0] if chart.avoid else None
            index = self._open(layer_id)
            try:
                points = fn(chart, count, seed)
            finally:
                self._close(index)
                if self._first_avoid is None:  # nothing to test: each draw is kept
                    self.counts["chart.sample_draws"] += count
                else:
                    self.avoid_sampled = True
                self._first_avoid = None
            self.sample_accepted += len(points)
            return points

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        for layer, module, qualname in SPANS:
            self._patch(layer, module, qualname, counter=False)
        for name, module, qualname in COUNTS:
            self._patch(name, module, qualname, counter=True)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self._wrapped.clear()

    def _wrap(self, layer: str, qualname: str, fn, counter: bool):
        if qualname == "ScalarField.value":
            return self._value(fn)
        if counter:
            return self._count(layer, fn)
        if qualname == "ScalarField.jet":
            return self._jet(fn)
        if qualname == "AdaptedChart.sample_points":
            return self._sample_points(fn)
        return self._span(layer, fn)

    def _patch(self, layer: str, module: str, qualname: str, counter: bool) -> None:
        mod = sys.modules.get(module)
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        key = f"{module}.{qualname}"
        if owner is None:
            self.present[key] = False
            return
        if attr == "*":
            self._patch_methods(layer, owner, module, owner_name)
            return
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        self.present[key] = original is not None
        if original is None:
            return
        if isinstance(owner, type):
            self._set(owner, attr, self._wrap_member(layer, qualname, original, owner, attr, counter))
            return
        wrapper = self._wrap(layer, qualname, original, counter)
        self._wrapped[original] = wrapper
        # replace every binding of the function, at each import site
        for name, other in list(sys.modules.items()):
            if other is None or not (name == module or name.startswith("acmcheck")):
                continue
            for member, value in list(vars(other).items()):
                if value is original:
                    self._set(other, member, wrapper)

    def _wrap_member(self, layer, qualname, original, owner, attr, counter):
        if isinstance(original, functools.cached_property):
            prop = functools.cached_property(self._wrap(layer, qualname, original.func, counter))
            prop.__set_name__(owner, attr)
            return prop
        return self._wrap(layer, qualname, original, counter)

    def _patch_methods(self, layer: str, owner: type, module: str, owner_name: str) -> None:
        """Span every derived-tensor member of a class not patched otherwise:
        cached properties and public methods."""
        patched = {q.split(".", 1)[1] for _, m, q in SPANS + COUNTS
                   if m == module and q.startswith(owner_name + ".") and not q.endswith("*")}
        for attr, value in list(vars(owner).items()):
            if attr in patched or attr.startswith("__"):
                continue
            if isinstance(value, functools.cached_property) or (
                    callable(value) and not attr.startswith("_")):
                self._set(owner, attr, self._wrap_member(layer, f"{owner_name}.{attr}", value,
                                                         owner, attr, False))

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def layer_totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and span count per layer; self time is each span's
        duration less the durations of its child spans."""
        n = len(self.span_start)
        child = [0.0] * n
        self_s = [0.0] * len(self.layers)
        spans = [0] * len(self.layers)
        start, end, parent, layer = self.span_start, self.span_end, self.span_parent, self.span_layer
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += end[i] - start[i]
        for i in range(n):
            self_s[layer[i]] += end[i] - start[i] - child[i]
            spans[layer[i]] += 1
        return dict(zip(self.layers, self_s)), dict(zip(self.layers, spans))

    def write(self, path) -> None:
        """Spans as flat arrays in a NumPy archive, layer names in `layers`."""
        import numpy as np

        np.savez(
            path,
            layers=np.array(self.layers),
            layer=np.frombuffer(self.span_layer, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            call=np.frombuffer(self.span_call, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
