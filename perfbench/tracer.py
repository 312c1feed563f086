"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public functions of the coorbit modules from outside
the package: every module namespace that binds a traced function (the
defining module, ``coorbit`` itself, and modules that did
``from .x import y``) and every module-level dict holding it (such as
``harness.SUITES``) gets the wrapper, and :meth:`Tracer.restore` puts
every original back.  Spans are kept in a list as
``[name, start, end, parent, end_index, attrs]`` and written out only
when the run ends, so the traced code pays for two ``perf_counter``
calls and a list append per call.
"""

import functools
import json
import os
import sys
import time
import weakref

# Traced callables: "<module>.<name>" -> work-count extractor or None.
# An extractor maps (args, result) to a dict of counts and labels that
# is attached to the span.  Names match the ROADMAP baseline rows.
FUNCTIONS = {
    "groups.haar_quadrature": lambda a, r: {"nodes": len(r[0])},
    "characters.orbit_quadrature": lambda a, r: {"nodes": r.node_count},
    "characters.peter_weyl_projector_weight": None,
    "characters.character_at_element": None,
    "characters.kirillov_character": None,
    "characters.weyl_character": None,
    "models.build_model": None,
    "hardy.isotypic_dim": lambda a, r: {"model": a[0].id, "k": int(a[2]), "dim": int(r)},
    "hardy.isotypic_basis": None,  # extractor bound per tracer (live-bytes state)
    "hardy.equivariant_kernel": None,
    "hardy.equivariant_kernel_log": None,
    "hardy.orbit_separation": None,
    "predictor.dimension_coefficient": None,
    "predictor.leading_coefficient": None,
    "predictor.predict_near_diagonal": None,
    "harness.run_suite": None,
    "harness.run_character_suite": None,
    "harness.run_diag_convergence": None,
    "harness.run_gaussian_profile": None,
    "harness.run_decay_suite": None,
    "harness.run_dim_growth": None,
    "harness.emit": lambda a, r: {"bytes": _emitted_bytes(a[0], a[1])},
    "cli.main": None,
}

# Methods, wrapped on every class of the module that defines them.
METHODS = {
    "models.isotypic_exponents": lambda a, r: {"monomials": len(r)},
    "models.locus_decompose": None,
}

ROOT_SPAN = "workload"


def _emitted_bytes(name, config):
    total = 0
    for ext in ("csv", "json", "svg"):
        path = os.path.join(config.out_dir, f"suite_{name}.{ext}")
        if os.path.exists(path):
            total += os.path.getsize(path)
    return total


def _basis_bytes(basis):
    return int(basis.alphas.nbytes + basis.log_norms.nbytes + basis.nu_coords.nbytes)


class Tracer:
    """Wraps the traced functions while installed; records spans."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self._live_bytes = 0
        self.basis_bytes_peak = 0  # computed from array sizes, not measured
        self._seen = weakref.WeakSet()

    # -- span recording ------------------------------------------------------

    def span(self, name, fn, extract=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, 0, None]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                rec[4] = len(spans)
            if extract is not None:
                rec[5] = extract(args, result)
            return result

        return traced

    def run(self, fn, *args):
        """Call ``fn`` under the root span."""
        return self.span(ROOT_SPAN, fn)(*args)

    def _basis_counts(self, args, basis):
        nbytes = _basis_bytes(basis)
        if basis not in self._seen:
            self._seen.add(basis)
            self._live_bytes += nbytes
            self.basis_bytes_peak = max(self.basis_bytes_peak, self._live_bytes)
            weakref.finalize(basis, self._release, nbytes)
        return {"model": args[0].id, "k": int(args[2]), "dim": basis.dim, "basis_bytes": nbytes}

    def _release(self, nbytes):
        self._live_bytes -= nbytes

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap every traced function in every coorbit namespace binding it."""
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "coorbit" or n.startswith("coorbit."))]
        for qual, extract in FUNCTIONS.items():
            mod_name, attr = qual.split(".")
            original = getattr(sys.modules[f"coorbit.{mod_name}"], attr)
            if qual == "hardy.isotypic_basis":
                extract = self._basis_counts
            wrapper = self.span(qual, original, extract)
            for ns in namespaces:
                if ns.__dict__.get(attr) is original:
                    self._patches.append((ns, attr, original))
                    setattr(ns, attr, wrapper)
                # module-level tables such as harness.SUITES bind functions too
                for table in [v for v in vars(ns).values() if isinstance(v, dict)]:
                    for key in [k for k, v in table.items() if v is original]:
                        self._patches.append((table, key, original))
                        table[key] = wrapper
        for qual, extract in METHODS.items():
            mod_name, attr = qual.split(".")
            module = sys.modules[f"coorbit.{mod_name}"]
            for cls in vars(module).values():
                if isinstance(cls, type) and cls.__module__ == module.__name__ \
                        and attr in cls.__dict__:
                    original = cls.__dict__[attr]
                    self._patches.append((cls, attr, original))
                    setattr(cls, attr, self.span(qual, original, extract))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- reduction ---------------------------------------------------------------

    def summary(self):
        """Per traced name: calls, total and self seconds, summed counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, parent, last, attrs) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
            for key, val in (attrs or {}).items():
                if key in ("nodes", "monomials", "bytes"):
                    row[key] = row.get(key, 0) + val
        basis = [i for i, s in enumerate(self.spans) if s[0] == "hardy.isotypic_basis"]
        reused = sum(1 for i in basis
                     if not any(self.spans[j][0] == "models.isotypic_exponents"
                                for j in range(i + 1, self.spans[i][4])))
        if "hardy.isotypic_basis" in out:
            out["hardy.isotypic_basis"]["reuse_ratio"] = reused / len(basis)
            out["hardy.isotypic_basis"]["bytes_peak"] = self.basis_bytes_peak
        return out

    def ksweep(self):
        """Per (model, k): isotypic dimension, isotypic_dim and isotypic_basis
        seconds, and computed basis bytes, from the span labels."""
        table = {}
        for name, start, end, _, _, attrs in self.spans:
            if name not in ("hardy.isotypic_dim", "hardy.isotypic_basis"):
                continue
            row = table.setdefault((attrs["model"], attrs["k"]), {
                "model": attrs["model"], "k": attrs["k"], "isotypic_dim": attrs["dim"],
                "isotypic_dim_s": 0.0, "isotypic_basis_s": 0.0,
                "basis_bytes_computed": 0})
            if name == "hardy.isotypic_dim":
                row["isotypic_dim_s"] += end - start
            else:
                row["isotypic_basis_s"] += end - start
                row["basis_bytes_computed"] = attrs["basis_bytes"]
        return [table[key] for key in sorted(table)]

    def write_spans(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, _, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "attrs": attrs}) + "\n")
