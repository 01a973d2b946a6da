"""Span tracer installed around tanglekit's module attributes from outside.

Nothing under ``src/`` knows about it: ``install`` replaces module-level
functions (in every ``tanglekit`` module that imported them by name) and
``TangleDiagram`` methods with timing wrappers.  Each call -- or each
``next()`` of a generator -- is one span (name, start, end, parent).  Spans
are kept in flat arrays in memory and written out once at the end; a
layer's self time is its spans' duration minus the time their child spans
cover, accumulated on a stack as the spans close.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, time covered by children]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, nid: int) -> list:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        self.span_start.append(perf_counter())
        return frame

    def exit(self, frame: list) -> None:
        end = perf_counter()
        idx = frame[0]
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += dur
        name = self.names[self.span_name[idx]]
        self.self_s[name] += dur - frame[1]
        self.calls[name] += 1

    def write(self, path: str) -> None:
        """One JSON header line, then the four span arrays as raw bytes."""
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "arrays": ["name:i", "parent:i", "start:d", "end:d"],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


def wrap_call(tracer: Tracer, name: str, fn, after=None):
    nid = tracer.intern(name)

    def traced(*args, **kwargs):
        frame = tracer.enter(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if after is not None:
            after(args, kwargs, result)
        return result

    return traced


def wrap_generator(tracer: Tracer, name: str, fn, counter: str):
    """Time every next() of the generator fn returns; count its items."""
    nid = tracer.intern(name)

    def traced(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            frame = tracer.enter(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.exit(frame)
            tracer.counts[counter] += 1
            yield item

    return traced


def patch_function(fn, replacement) -> None:
    """Rebind fn to replacement in every loaded tanglekit module."""
    rebound = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not modname.startswith("tanglekit"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, replacement)
                rebound += 1
    if not rebound:
        raise RuntimeError(f"nothing bound to {fn!r}; the traced layer moved")


def install(tracer: Tracer) -> None:
    """Wrap the calls into each tanglekit layer; once, before the workload runs."""
    import tanglekit.cli  # noqa: F401  (loads every module the CLI uses)
    from tanglekit import census, experiments, graphdeduce
    from tanglekit.diagram import build, core, identify, invariants, pdcode, rewrite, surgery

    t = tracer
    cnt = t.counts
    D = core.TangleDiagram

    # diagram.core: methods, so patched on the class
    D._trace_from = wrap_call(t, "core.trace", D._trace_from)
    D.validate = wrap_call(t, "core.validate", D.validate)
    canonical = D.canonical_code
    dedup_nid = t.intern("census.dedup")
    canonical_nid = t.intern("core.canonical")
    seen_shadow_codes: set = set()

    def canonical_code(self, shadow=False):
        # a shadow code is only ever the census dedup key; time it as such
        frame = t.enter(dedup_nid if shadow else canonical_nid)
        try:
            code = canonical(self, shadow)
        finally:
            t.exit(frame)
        if shadow:
            cnt["census.dedup.rejected"] += code in seen_shadow_codes
            seen_shadow_codes.add(code)
        return code

    D.canonical_code = canonical_code

    # census
    def after_weak(args, kwargs, hit):
        cnt["census.weak_string.hits"] += bool(hit)

    def after_classify(args, kwargs, verdict):
        cnt["census.verdict." + verdict] += 1

    patch_function(
        census._shadow_search,
        wrap_generator(t, "census.search", census._shadow_search, "census.search.shadows"),
    )
    patch_function(
        census._over_under_variants,
        wrap_generator(t, "census.expand", census._over_under_variants, "census.expand.variants"),
    )
    generate = wrap_generator(t, "census.generate", census.generate_diagrams, "census.generate.diagrams")

    def generate_diagrams(*args, **kwargs):
        seen_shadow_codes.clear()  # the census's own dedup set is per call
        return generate(*args, **kwargs)

    patch_function(census.generate_diagrams, generate_diagrams)
    patch_function(census._strings_of, wrap_call(t, "census.strings", census._strings_of))
    patch_function(
        census._has_weak_string,
        wrap_call(t, "census.weak_string", census._has_weak_string, after_weak),
    )
    patch_function(census.classify, wrap_call(t, "census.classify", census.classify, after_classify))

    # diagram.rewrite
    def after_simplify(args, kwargs, out):
        cnt["rewrite.simplify.reduced"] += out.n < args[0].n

    patch_function(rewrite.simplify, wrap_call(t, "rewrite.simplify", rewrite.simplify, after_simplify))
    for move in ("r1", "r2", "untwist", "pull"):
        fn = getattr(rewrite, "apply_" + move)
        patch_function(fn, wrap_call(t, "rewrite.moves." + move, fn))

    # diagram.invariants
    def after_state_sum(args, kwargs, out):
        cnt["invariants.state_sum.states"] += 1 << args[0].n

    patch_function(
        invariants.bracket_state_sum,
        wrap_call(t, "invariants.state_sum", invariants.bracket_state_sum, after_state_sum),
    )
    patch_function(invariants.bracket_skein, wrap_call(t, "invariants.skein", invariants.bracket_skein))
    patch_function(invariants._smooth, wrap_call(t, "invariants.smooth", invariants._smooth))
    patch_function(invariants.fingerprint, wrap_call(t, "invariants.fingerprint", invariants.fingerprint))

    # diagram.identify: the table is an lru_cache; a miss is a build
    table = identify._fingerprint_table
    table_nid = t.intern("identify.table")

    def fingerprint_table():
        misses = table.cache_info().misses
        fps = t.calls["invariants.fingerprint"]
        frame = t.enter(table_nid)
        start = perf_counter()
        try:
            out = table()
        finally:
            t.exit(frame)
        if table.cache_info().misses > misses:
            cnt["identify.table.builds"] += 1
            cnt["identify.table.build_s"] += perf_counter() - start
            cnt["identify.table.entries"] = len(out)
            cnt["identify.table.references"] = t.calls["invariants.fingerprint"] - fps
        return out

    fingerprint_table.cache_clear = table.cache_clear
    patch_function(table, fingerprint_table)

    def after_identify(args, kwargs, lid):
        cnt["identify.query.hits"] += lid.kind != "unknown"

    patch_function(
        identify.identify_link, wrap_call(t, "identify.query", identify.identify_link, after_identify)
    )
    probes = identify._closure_fingerprints
    recover = identify.recover_fraction

    def recover_fraction(*args, **kwargs):
        misses = probes.cache_info().misses
        try:
            return recover(*args, **kwargs)
        finally:
            cnt["identify.recover.probe_misses"] += probes.cache_info().misses - misses

    patch_function(recover, wrap_call(t, "identify.recover", recover_fraction))

    # diagram.surgery + diagram.build
    patch_function(surgery.close_with, wrap_call(t, "surgery.close", surgery.close_with))
    patch_function(surgery.cap, wrap_call(t, "surgery.cap", surgery.cap))
    patch_function(surgery.remove_string, wrap_call(t, "surgery.remove_string", surgery.remove_string))
    patch_function(
        build.rational_tangle_diagram,
        wrap_call(t, "build.rational", build.rational_tangle_diagram),
    )

    # diagram.pdcode
    def after_parse(args, kwargs, out):
        cnt["pdcode.parse.bytes"] += len(args[0].encode())

    def after_emit(args, kwargs, text):
        cnt["pdcode.emit.bytes"] += len(text.encode())

    patch_function(pdcode.parse_pd, wrap_call(t, "pdcode.parse", pdcode.parse_pd, after_parse))
    patch_function(pdcode.emit_pd, wrap_call(t, "pdcode.emit", pdcode.emit_pd, after_emit))

    # experiments / rational / graphdeduce
    def after_deduce(args, kwargs, out):
        cnt["graphdeduce.steps"] += len(out[1].steps)

    patch_function(
        experiments.verify_solution_tangle,
        wrap_call(t, "experiments.verify", experiments.verify_solution_tangle),
    )
    patch_function(experiments.solve_system, wrap_call(t, "experiments.solve", experiments.solve_system))
    patch_function(graphdeduce.deduce, wrap_call(t, "graphdeduce.deduce", graphdeduce.deduce, after_deduce))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer values by metric name (0 where a layer did not run)."""
    c, s, n = t.counts, t.self_s, t.calls
    return {
        "census.search.shadows": c["census.search.shadows"],
        "census.search.self_s": s["census.search"],
        "census.dedup.calls": n["census.dedup"],
        "census.dedup.rejected": c["census.dedup.rejected"],
        "census.dedup.self_s": s["census.dedup"],
        "census.strings.self_s": s["census.strings"],
        "census.expand.variants": c["census.expand.variants"],
        "census.expand.self_s": s["census.expand"],
        "census.generate.self_s": s["census.generate"],
        "census.weak_string.calls": n["census.weak_string"],
        "census.weak_string.hit_ratio": _ratio(c["census.weak_string.hits"], n["census.weak_string"]),
        "census.weak_string.self_s": s["census.weak_string"],
        "census.classify.self_s": s["census.classify"],
        "census.verdict.split": c["census.verdict.split"],
        "census.verdict.parallel": c["census.verdict.parallel"],
        "census.verdict.reducible": c["census.verdict.reducible"],
        "census.verdict.unresolved": c["census.verdict.unresolved"],
        "core.trace.calls": n["core.trace"],
        "core.trace.self_s": s["core.trace"],
        "core.canonical.calls": n["core.canonical"],
        "core.canonical.self_s": s["core.canonical"],
        "core.validate.calls": n["core.validate"],
        "core.validate.self_s": s["core.validate"],
        "rewrite.simplify.calls": n["rewrite.simplify"],
        "rewrite.simplify.reduced_ratio": _ratio(c["rewrite.simplify.reduced"], n["rewrite.simplify"]),
        "rewrite.simplify.self_s": s["rewrite.simplify"],
        "rewrite.moves.r1": n["rewrite.moves.r1"],
        "rewrite.moves.r2": n["rewrite.moves.r2"],
        "rewrite.moves.untwist": n["rewrite.moves.untwist"],
        "rewrite.moves.pull": n["rewrite.moves.pull"],
        "invariants.state_sum.calls": n["invariants.state_sum"],
        "invariants.state_sum.states": c["invariants.state_sum.states"],
        "invariants.state_sum.self_s": s["invariants.state_sum"],
        "invariants.skein.calls": n["invariants.skein"],
        "invariants.skein.smooths": n["invariants.smooth"],
        "invariants.skein.self_s": s["invariants.skein"] + s["invariants.smooth"],
        "invariants.fingerprint.calls": n["invariants.fingerprint"],
        "invariants.fingerprint.self_s": s["invariants.fingerprint"],
        "identify.table.build_s": c["identify.table.build_s"],
        "identify.table.entries": c["identify.table.entries"],
        "identify.table.references": c["identify.table.references"],
        "identify.query.calls": n["identify.query"],
        "identify.query.hit_ratio": _ratio(c["identify.query.hits"], n["identify.query"]),
        "identify.query.self_s": s["identify.query"],
        "identify.recover.calls": n["identify.recover"],
        "identify.recover.self_s": s["identify.recover"],
        "identify.recover.probe_misses": c["identify.recover.probe_misses"],
        "surgery.close.calls": n["surgery.close"],
        "surgery.close.self_s": s["surgery.close"],
        "surgery.cap.self_s": s["surgery.cap"],
        "surgery.remove_string.self_s": s["surgery.remove_string"],
        "build.rational.calls": n["build.rational"],
        "build.rational.self_s": s["build.rational"],
        "pdcode.parse.calls": n["pdcode.parse"],
        "pdcode.parse.bytes": c["pdcode.parse.bytes"],
        "pdcode.parse.self_s": s["pdcode.parse"],
        "pdcode.emit.calls": n["pdcode.emit"],
        "pdcode.emit.bytes": c["pdcode.emit.bytes"],
        "pdcode.emit.self_s": s["pdcode.emit"],
        "experiments.verify.calls": n["experiments.verify"],
        "experiments.verify.self_s": s["experiments.verify"],
        "experiments.solve.self_s": s["experiments.solve"],
        "graphdeduce.deduce.self_s": s["graphdeduce.deduce"],
        "graphdeduce.steps": c["graphdeduce.steps"],
    }
