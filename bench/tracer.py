"""In-memory span tracer that wraps dlfvault's public functions from outside.

Nothing in the package is edited. `Tracer.install` replaces each listed
function on every dlfvault module that holds it, so both the benchmark's
calls and the package's own calls through module globals pass through a
wrapper. Coarse functions record a span (name, start, end, parent span,
operation id); the fine-grained PrimeField arithmetic methods are only
counted, since a span per field multiplication would swamp the numbers.
Spans stay in memory until the run ends, and self time is computed from
them afterwards.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import Counter
from contextlib import contextmanager
from math import inf
from time import perf_counter

# module -> public functions wrapped with a span, under "<module>.<name>"
FUNCTIONS = {
    "field": ["gen_params", "is_prime", "is_primitive_root", "params_to_file",
              "params_from_file", "binary_field"],
    "polynomial": ["eval_poly", "lagrange_interpolate", "crc16_remainder"],
    "framing": ["frame", "deframe", "segment", "reassemble"],
    "dlog_codec": ["gen_key", "encode_segment", "decode_segment", "encode_whole",
                   "decode_whole"],
    "vault": ["lock", "unlock", "match_points"],
    "identity": ["make_identity_record", "encode_identity", "decode_identity",
                 "identity_to_bytes", "identity_from_bytes", "identity_vault_roundtrip"],
    "attacks": ["attack_report", "exact_success_prob", "monte_carlo_rate", "sweep_csv",
                "brute_force_unlock_attack", "solve_dlog_bsgs"],
}

# (module, class) -> methods wrapped with a span; "__init__" is reported
# under the class name, since constructing the object is the operation
SPAN_METHODS = {
    ("field", "PrimeField"): ["__init__"],
    ("vault", "Vault"): ["to_bytes", "from_bytes"],
    ("dlog_codec", "KeyFile"): ["to_bytes", "from_bytes"],
}

# (module, class) -> methods that are only counted
COUNT_METHODS = {
    ("field", "PrimeField"): ["mul", "inv", "pow"],
}

_NAME, _START, _END, _PARENT, _OP = range(5)


class Tracer:
    """Spans and counters for one benchmark process.

    `context` carries ground truth the benchmark knows and the package
    does not, such as which x values of the vault being opened are
    genuine; result hooks read it to count chaff hits.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.context: dict = {}
        self.counted_under: Counter = Counter()   # top-level region -> counted calls in it
        self.enabled = True
        self._stack: list[int] = []
        self._op = -1
        self._ops = 0

    # -- recording -----------------------------------------------------

    def _enter(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self._op])
        self._stack.append(idx)
        return idx

    def _exit(self, idx, start):
        end = perf_counter()
        self._stack.pop()
        span = self.spans[idx]
        span[_START] = start
        span[_END] = end

    @contextmanager
    def region(self, name):
        """A span opened by the benchmark itself; a top-level one starts a
        new operation id, so every span it causes shares that id."""
        top = not self._stack
        if top:
            self._ops += 1
            self._op = self._ops
            counted = self.counted_calls()
        idx = self._enter(name)
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(idx, start)
            if top:
                self._op = -1
                self.counted_under[name] += self.counted_calls() - counted

    @contextmanager
    def paused(self):
        """Run benchmark-side checks without recording them."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def _span_wrapper(self, name, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._enter(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                tracer._exit(idx, start)
            if hook is not None:
                hook(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation --------------------------------------------------

    def install(self, package):
        """Wrap every listed function wherever a dlfvault module holds it.

        Replacement is by identity: each module attribute that is the
        original function object is swapped for the one shared wrapper,
        which covers `from .x import f` re-exports. Names a future
        version no longer has are skipped; their metrics read 0.
        """
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package.__name__
                                         or key.startswith(package.__name__ + "."))]
        swaps = {}
        for mod_name, names in FUNCTIONS.items():
            mod = sys.modules.get(f"{package.__name__}.{mod_name}")
            for fn_name in names:
                fn = getattr(mod, fn_name, None)
                if fn is not None:
                    swaps[id(fn)] = self._span_wrapper(f"{mod_name}.{fn_name}", fn,
                                                       _HOOKS.get(f"{mod_name}.{fn_name}"))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = swaps.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(mod, attr, wrapper)
        for table, span in ((SPAN_METHODS, True), (COUNT_METHODS, False)):
            for (mod_name, cls_name), methods in table.items():
                cls = getattr(sys.modules.get(f"{package.__name__}.{mod_name}"), cls_name, None)
                if cls is None:
                    continue
                for meth in methods:
                    raw = cls.__dict__.get(meth)
                    if raw is None:
                        continue
                    is_classmethod = isinstance(raw, classmethod)
                    fn = raw.__func__ if is_classmethod else raw
                    label = f"{mod_name}.{cls_name}" + ("" if meth == "__init__" else f".{meth}")
                    wrapped = (self._span_wrapper(label, fn, None) if span
                               else self._count_wrapper(label, fn))
                    setattr(cls, meth, classmethod(wrapped) if is_classmethod else wrapped)

    # -- summaries -----------------------------------------------------

    def counted_calls(self):
        """Calls through the count-only wrappers so far."""
        return sum(v for k, v in self.counts.items() if k.endswith(".calls"))

    def spans_under(self, prefix):
        """How many spans run inside a top-level region whose name starts
        with `prefix`, not counting the regions themselves."""
        spans = self.spans
        ops = {s[_OP] for s in spans if s[_PARENT] < 0 and s[_NAME].startswith(prefix)}
        return sum(1 for s in spans if s[_PARENT] >= 0 and s[_OP] in ops)

    def per_function(self):
        """name -> {"calls", "ms" (inclusive), "self_ms"} over every span."""
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span[_PARENT] >= 0:
                child[span[_PARENT]] += span[_END] - span[_START]
        table = {}
        for i, span in enumerate(spans):
            dur = span[_END] - span[_START]
            row = table.setdefault(span[_NAME], {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["ms"] += dur * 1000.0
            row["self_ms"] += (dur - child[i]) * 1000.0
        return table

    def calls_under(self, name, ancestor):
        """How many `name` spans have an `ancestor` span above them."""
        spans = self.spans
        inside = [False] * len(spans)
        total = 0
        for i, span in enumerate(spans):
            parent = span[_PARENT]
            inside[i] = span[_NAME] == ancestor or (parent >= 0 and inside[parent])
            if span[_NAME] == name and parent >= 0 and inside[parent]:
                total += 1
        return total

    def write_spans(self, path):
        """One JSON array per line: name, start ms, end ms, parent, op id;
        times are relative to the first span."""
        origin = self.spans[0][_START] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="ascii") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps([name, (start - origin) * 1000.0,
                                      (end - origin) * 1000.0, parent, op]))
                out.write("\n")


def wrapper_cost_ms():
    """(span wrapper, count wrapper) cost per call in ms: the best of five
    timings of a wrapped no-op, less the bare no-op."""
    def noop():
        return None

    calls = 20000
    tracer = Tracer()
    costs = []
    for wrapped in (tracer._span_wrapper("noop", noop, None), tracer._count_wrapper("noop", noop)):
        best = inf
        for _ in range(5):
            tracer.spans.clear()
            start = perf_counter()
            for _ in range(calls):
                wrapped()
            middle = perf_counter()
            for _ in range(calls):
                noop()
            best = min(best, (2 * middle - start - perf_counter()) * 1000.0 / calls)
        costs.append(best)
    return tuple(costs)


# -- result hooks: counters measured where the work happens ---------------

def _count_candidates(tracer, args, result):
    tracer.counts["vault.candidates"] += len(result)
    genuine = tracer.context.get("genuine_xs")
    if genuine is not None:
        tracer.counts["vault.chaff_hits"] += sum(1 for x, _ in result if x not in genuine)


def _count_decodes(tracer, args, result):
    tracer.counts["vault.decodes"] += 1


def _count_identity_rejects(tracer, args, result):
    if result is None:
        tracer.counts["identity.decode_identity.rejected"] += 1


def _count_attack_subsets(tracer, args, result):
    tracer.counts["attacks.subsets_tried"] += result.subsets_tried


_HOOKS = {
    "vault.match_points": _count_candidates,
    "vault.unlock": _count_decodes,
    "identity.decode_identity": _count_identity_rejects,
    "attacks.brute_force_unlock_attack": _count_attack_subsets,
}
