"""Per-layer tracing from outside the package.

`Tracer.install()` replaces each traced public function of torsionfields by
a timing wrapper: in its home module, in every module that imported it with
`from .x import name`, and on its class for methods.  Nothing inside src/ is
edited.  The wrappers keep a stack of open spans, so each function's self
time is its span duration minus the time its traced children cover.  Spans
are timed in CPU time of the process, as the operations are.
`uninstall()` puts every original back.

Spans are aggregated as they close (calls, total, self time per function);
the per-operation spans and the aggregate are written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path

# (module, qualified name) of every traced function, grouped by layer
TRACED = (
    ("finitefield", "poly_divmod"),
    ("finitefield", "poly_pow_mod"),
    ("finitefield", "poly_gcd"),
    ("finitefield", "factor_squarefree"),
    ("finitefield", "poly_roots"),
    ("curve", "count_points_prime"),
    ("curve", "DivisionPolynomials.torsion_x_polynomial"),
    ("torsion", "torsion_data"),
    ("torsion", "weil_pairing"),
    ("torsion", "TorsionData.subfield_degree"),
    ("generators", "run_check"),
    ("gl2", "surjectivity_heuristic"),
    ("gl2", "subgroup_catalog"),
    ("numberfield", "square_test_cubic"),
    ("numberfield", "square_test_tower"),
    ("classify3", "classify3"),
    ("classify3", "radical_roots3"),
    ("classify4", "classify4"),
    ("classify4", "two_torsion_split"),
    ("classify4", "conditions4"),
    ("classify4", "four_torsion_points"),
    ("oracle", "chebotarev_degree"),
    ("oracle", "frobenius_fingerprint"),
)

# ratios and work counts gathered from arguments and results
EXTRA = (
    ("finitefield.factor_squarefree.degree_sum", "count", "lower"),
    ("numberfield.square_test_cubic.conclusive_ratio", "ratio", "higher"),
    ("oracle.stabilized_ratio", "ratio", "higher"),
)


def per_layer_names():
    """(name, unit, better) of every per-layer metric, in output order."""
    out = []
    for module, qual in TRACED:
        out.append((f"{module}.{qual}.calls", "count", "lower"))
        out.append((f"{module}.{qual}.self_s", "s", "lower"))
    return out + list(EXTRA)


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}     # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self.stack: list[float] = []         # child time of each open span
        self.ops: list[tuple] = []           # (op id, label, start, end)
        self.enabled = True
        self._patched: list[tuple] = []      # (owner, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        mods = {name: importlib.import_module(f"torsionfields.{name}")
                for name in ("finitefield", "curve", "torsion", "generators", "gl2",
                             "numberfield", "classify3", "classify4", "oracle", "cli")}
        after = {
            "finitefield.factor_squarefree": self._count_degree,
            "numberfield.square_test_cubic": self._count_conclusive,
            "oracle.chebotarev_degree": self._count_stabilized,
        }
        for module, qual in TRACED:
            name = f"{module}.{qual}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(mods[module], cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(name, original, after.get(name)))
                continue
            original = getattr(mods[module], qual)
            wrapper = self._wrap(name, original, after.get(name))
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name, fn, after):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.process_time
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- counters fed from arguments and results ---------------------------

    def _add(self, key, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _count_degree(self, args, result) -> None:
        g = args[0]
        nz = [i for i, c in enumerate(g) if c % args[1]]
        self._add("factor_degree", nz[-1] if nz else 0)

    def _count_conclusive(self, args, result) -> None:
        self._add("cubic_tests", 1)
        self._add("cubic_conclusive", result[0] != "inconclusive")

    def _count_stabilized(self, args, result) -> None:
        self._add("surveys", 1)
        self._add("stabilized", bool(result.stabilized))

    # -- operation spans --------------------------------------------------

    def op_span(self, op_id, label, start, end) -> None:
        """One span per benchmark operation; it is the root of its layers."""
        self.ops.append((op_id, label, start, end))

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for module, qual in TRACED:
            calls, _, self_s = self.stats.get(f"{module}.{qual}", (0, 0.0, 0.0))
            out[f"{module}.{qual}.calls"] = {"value": calls, "unit": "count"}
            out[f"{module}.{qual}.self_s"] = {"value": self_s, "unit": "s"}
        c = self.counts

        def ratio(num, den):
            return c.get(num, 0) / c[den] if c.get(den) else 0.0

        out["finitefield.factor_squarefree.degree_sum"] = {
            "value": c.get("factor_degree", 0), "unit": "count"}
        out["numberfield.square_test_cubic.conclusive_ratio"] = {
            "value": ratio("cubic_conclusive", "cubic_tests"), "unit": "ratio"}
        out["oracle.stabilized_ratio"] = {
            "value": ratio("stabilized", "surveys"), "unit": "ratio"}
        return out

    def write(self, path: Path, extra: dict) -> None:
        doc = {
            "functions": {name: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
                          for name, s in sorted(self.stats.items())},
            "counts": self.counts,
            "ops": [{"id": i, "label": lab, "start": a, "end": b}
                    for i, lab, a, b in self.ops],
            **extra,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1) + "\n")

