"""dlfvault benchmark: one process, one thread, one closed-loop client.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the package is imported from `src/` next to this
directory and nowhere else. Each operation starts when the previous one
returns, and its output is checked. The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the gated end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`. The full stamped result, with every named metric,
goes to `bench/out/`, and so do the spans of a traced run.

A traced run first runs the same fixed number of rounds untraced in a
child process, so the tracing overhead is the traced run's numbers
minus that run's.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from importlib import import_module
from math import ceil
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from tracer import Tracer, wrapper_cost_ms  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
# Set-up is also repeated between rounds, its result discarded, so that
# those repeats take about this share of the run (see setups_due). Set-up
# is then timed across the whole run, not only in the window before it
# starts, where the host's drifting speed would decide the median alone.
SETUP_SHARE = 0.1
# share of --seconds the untraced pass of a traced run is sized to fill
TRACE_SHARE = 0.5
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# gated end-to-end metrics, reported by every workload
END_TO_END = {
    "setup_s": "s",
    "request_p50_ref": "ref",
    "peak_rss_mb": "MB",
}

# the named end-to-end metrics of each workload: (name, op kind, statistic)
NAMED = {
    "enroll-verify": [("enroll_p50_ms", "enroll", "p50"), ("enroll_tail_ms", "enroll", "tail"),
                      ("verify_p50_ms", "verify", "p50"), ("verify_tail_ms", "verify", "tail"),
                      ("identity_p50_ms", "identity", "p50")],
    "unlock-chaff-hits": [("verify_p50_ms", "verify", "p50"), ("verify_tail_ms", "verify", "tail"),
                          ("reject_p50_ms", "reject", "p50"), ("reject_tail_ms", "reject", "tail")],
    "attack-analysis": [("bruteforce_subsets_per_s", "bruteforce", "rate"),
                        ("montecarlo_trials_per_s", "report", "rate"),
                        ("dlog_solve_p50_ms", "dlog", "p50")],
    "keygen": [("keygen_p50_s", "keygen", "p50")],
}

PER_LAYER_COUNTS = [
    "field.PrimeField.calls", "field.is_prime.calls", "field.gen_params.calls",
    "field.binary_field.calls", "field.PrimeField.mul.calls", "field.PrimeField.inv.calls",
    "field.PrimeField.pow.calls",
    "polynomial.eval_poly.calls", "polynomial.lagrange_interpolate.calls",
    "polynomial.crc16_remainder.calls",
    "framing.frame.calls", "framing.deframe.calls", "framing.deframe.rejected.BadLength",
    "framing.deframe.rejected.MalformedFrame", "framing.deframe.rejected.SignatureMismatch",
    "dlog_codec.gen_key.calls", "dlog_codec.encode_segment.calls",
    "dlog_codec.encode_whole.calls",
    "vault.lock.calls", "vault.match_points.calls", "vault.Vault.from_bytes.calls",
    "vault.Vault.to_bytes.calls", "vault.candidates", "vault.chaff_hits", "vault.subsets_tried",
    "vault.unlock.failed.NotEnoughMatches", "vault.unlock.failed.DecodeFailed",
    "identity.identity_vault_roundtrip.calls", "identity.decode_identity.rejected",
    "attacks.brute_force_unlock_attack.calls", "attacks.subsets_tried",
    "attacks.monte_carlo_rate.calls", "attacks.solve_dlog_bsgs.calls",
]
# layer times every workload exercises, so none of them reads 0 anywhere
PER_LAYER_TIMES = ["field.PrimeField.self_ms", "field.is_prime.self_ms",
                   "field.params_from_file.ms"]


# Reference kernels: fixed work on builtins only, timed just before and
# just after every request. The host's speed drifts by up to 40% over
# seconds, and a kernel slows along with requests that do the same kind
# of work, so a request's latency in multiples of the kernel times around
# it holds still where its latency in ms does not. No change to
# dlfvault can move a kernel. Each workload names the kernel that
# tracked it best when the benchmark was defined.
_KERNEL_MODULUS = (1 << 1024) - 1093337
_KERNEL_PRIME = (1 << 127) - 1


def _mulmod(a, b, m):
    return a * b % m


def _pow_kernel():
    """One 1024-bit modular power, like Miller-Rabin on a wide field."""
    return pow(3, _KERNEL_MODULUS - 1, _KERNEL_MODULUS)


def _interp_kernel():
    """Interpreted 127-bit multiply-mods with a call per step, like the
    Monte Carlo sampler, BSGS and interpolation on narrow fields."""
    x = 3
    for i in range(3000):
        x = _mulmod(x, x + i, _KERNEL_PRIME)
    return x


KERNELS = {"pow": _pow_kernel, "interp": _interp_kernel}


class Recorder:
    """Times operations, checks their outputs and counts the failures."""

    def __init__(self, lib, tracer, kernel):
        self.lib = lib
        self.tracer = tracer
        self.kernel = kernel
        self.kernel_ms = []                 # reference kernel times, two per request
        self.request_refs = []              # each request in multiples of its kernel times
        self.samples = defaultdict(list)    # op kind -> latencies in ms
        self.units = Counter()              # op kind -> work units (subsets, trials)
        self.requests = []                  # closed-loop request latencies in ms
        self.attempted = 0
        self.failed = 0
        self.known = Counter()              # failures from recorded defects, by label
        self.unexpected = []                # (op kind, what came back) of any other failure
        self._request = None

    @contextmanager
    def request(self):
        """One request of the closed loop: its latency is the sum of its ops."""
        before = self._time_kernel()
        self._request = 0.0
        try:
            yield
        finally:
            after = self._time_kernel()
            self.requests.append(self._request)
            self.request_refs.append(self._request * 2.0 / (before + after))
            self._request = None

    def _time_kernel(self):
        start = perf_counter()
        self.kernel()
        ms = (perf_counter() - start) * 1000.0
        self.kernel_ms.append(ms)
        return ms

    def set_context(self, **ground_truth):
        if self.tracer is not None:
            self.tracer.context = ground_truth

    def op(self, kind, call, check, units=None, known_defect=None):
        """Time `call`, then judge its result, or the exception it raised,
        with `check`. A failure counts as a recorded defect only when
        `known_defect(result)` names one; any other failure is unexpected."""
        tracer = self.tracer
        with tracer.region(f"op.{kind}") if tracer else nullcontext():
            start = perf_counter()
            try:
                result = call()
            except Exception as exc:        # a wrong output, judged by check below
                result = exc
            ms = (perf_counter() - start) * 1000.0
        self.attempted += 1
        self.samples[kind].append(ms)
        if self._request is not None:
            self._request += ms
        with tracer.paused() if tracer else nullcontext():
            try:
                ok = bool(check(result))
            except Exception:
                ok = False
            if units is not None and not isinstance(result, Exception):
                self.units[kind] += units(result)
        if not ok:
            self.failed += 1
            with tracer.paused() if tracer else nullcontext():
                label = known_defect(result) if known_defect else None
            if label:
                self.known[label] += 1
            else:
                self.unexpected.append((kind, repr(result)[:200]))
        return result


def fresh_import():
    """Import dlfvault from src/ anew, dropping any earlier copy, so every
    set-up repetition pays import and module-level caches again."""
    for name in [n for n in sys.modules if n == "dlfvault" or n.startswith("dlfvault.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = import_module("dlfvault")
    origin = Path(lib.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"dlfvault was imported from {origin}, not from {SRC}")
    for sub in ("field", "polynomial", "framing", "dlog_codec", "vault", "identity",
                "attacks", "errors"):
        import_module(f"dlfvault.{sub}")
    return lib


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(values):
    """The highest ladder percentile with at least ten samples beyond it,
    as (value, percentile); None below twenty samples."""
    ordered = sorted(values)
    for q in TAIL_LADDER:
        if len(ordered) - max(1, ceil(q / 100.0 * len(ordered))) >= 10:
            return percentile(ordered, q), q
    return None


def setups_due(workload, rounds):
    """How many set-ups to repeat between the first `rounds` rounds. The
    count depends on the round count alone, so runs of the same rounds
    repeat the same set-ups and their traced counts match exactly."""
    return int(SETUP_SHARE * rounds * workload.nominal_round_s / workload.nominal_setup_s)


def measure(workload, rec, state, seconds, rounds, set_up):
    """Run whole rounds until `rounds` are done, or, without a fixed
    count, until `seconds` have passed; returns the rounds run. Between
    rounds it calls `set_up` as often as `setups_due` says; the measured
    requests keep `state`."""
    gc.collect()
    start = perf_counter()
    done = 0
    while True:
        if done:
            for _ in range(setups_due(workload, done) - setups_due(workload, done - 1)):
                set_up()
        workload.round(state, done, rec)
        done += 1
        if rounds is not None:
            if done >= rounds:
                return done
        elif perf_counter() - start >= seconds:
            return done


def summarize(name, rec, setup_times, busy_ms):
    """Every end-to-end number of one run, keyed by metric name."""
    summary = {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s",
                    "samples": len(setup_times)},
        "ops_per_s": {"value": rec.attempted / (busy_ms / 1000.0), "unit": "1/s"},
        "request_p50_ms": {"value": statistics.median(rec.requests), "unit": "ms",
                           "samples": len(rec.requests)},
        "request_p50_ref": {"value": statistics.median(rec.request_refs),
                            "unit": "ref", "samples": len(rec.request_refs)},
        "kernel_p50_ms": {"value": statistics.median(rec.kernel_ms), "unit": "ms",
                          "samples": len(rec.kernel_ms)},
        "op_fail_ratio": {"value": rec.failed / rec.attempted, "unit": "ratio"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }
    for metric, kind, stat in NAMED[name]:
        values = rec.samples.get(kind, [])
        if not values:
            continue
        unit = "1/s" if stat == "rate" else metric.rsplit("_", 1)[1]
        scale = 0.001 if unit == "s" else 1.0
        if stat == "rate":
            summary[metric] = {"value": rec.units[kind] / (sum(values) / 1000.0), "unit": unit,
                               "samples": len(values)}
        elif stat == "p50":
            summary[metric] = {"value": statistics.median(values) * scale, "unit": unit,
                               "samples": len(values)}
        else:
            found = tail(values)
            if found is not None:
                summary[metric] = {"value": found[0] * scale, "unit": unit,
                                   "percentile": found[1], "samples": len(values)}
    return summary


def per_layer(tracer, traced_ms, untraced_ms):
    """The per-layer metrics of a traced run, from its spans and counters."""
    table = tracer.per_function()
    counts = tracer.counts

    def calls(name):
        return table.get(name, {}).get("calls", 0) + counts.get(name + ".calls", 0)

    subsets = tracer.calls_under("polynomial.lagrange_interpolate", "vault.unlock")
    values = {}
    for metric in PER_LAYER_COUNTS:
        if metric.endswith(".calls"):
            values[metric] = calls(metric[:-len(".calls")])
        elif ".rejected." in metric and metric.startswith("framing."):
            reason = metric.rsplit(".", 1)[1]
            values[metric] = (counts[f"framing.deframe.raised.{reason}"]
                              + counts[f"framing.reassemble.raised.{reason}"])
        elif metric.startswith("vault.unlock.failed."):
            values[metric] = counts["vault.unlock.raised." + metric.rsplit(".", 1)[1]]
        elif metric == "vault.subsets_tried":
            values[metric] = subsets
        else:
            values[metric] = counts[metric]
    values["vault.subset_yield"] = counts["vault.decodes"] / subsets if subsets else 0.0
    for metric in PER_LAYER_TIMES:
        function, stat = metric.rsplit(".", 1)
        values[metric] = table.get(function, {}).get(stat, 0.0)
    values["trace.traced_ms"] = traced_ms
    values["trace.untraced_ms"] = untraced_ms
    return values, table


def trace_accounting(tracer, table, traced_ms, untraced_ms):
    """How far the layer self times account for the untraced op time.

    The traced op time splits into self time of wrapped functions and
    self time of the op spans, which lies outside every wrapped function.
    The overhead, traced minus untraced op time from two processes, is set
    against an independent estimate: the wrapper calls made inside ops
    times the cost of each wrapper, timed on a no-op in this process.
    """
    span_cost, count_cost = wrapper_cost_ms()
    spans = tracer.spans_under("op.")
    counted = sum(n for name, n in tracer.counted_under.items() if name.startswith("op."))
    outside = sum(row["self_ms"] for name, row in table.items() if name.startswith("op."))
    return {"traced_ops_ms": traced_ms, "untraced_ops_ms": untraced_ms,
            "overhead_ms": traced_ms - untraced_ms,
            "wrapper_spans": spans, "wrapper_counted_calls": counted,
            "span_cost_ms": span_cost, "count_cost_ms": count_cost,
            "wrapper_cost_ms": spans * span_cost + counted * count_cost,
            "layer_self_ms": traced_ms - outside, "outside_layers_ms": outside,
            "outside_layers_share": outside / traced_ms}


def layer_unit(metric):
    if metric.endswith("ms"):
        return "ms"
    return "ratio" if metric.endswith("yield") else "count"


def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": nproc, "cpu_model": model, "platform": platform.platform(),
            "git_commit": git_commit()}


def git_commit():
    """HEAD of the checkout when it is a git work tree, read from .git only."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def untraced_child(args, rounds, out):
    """Run the same rounds without tracing in a fresh process; returns
    its stamped result."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--rounds", str(rounds), "--out", str(out)] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=str(ROOT))
    if done.returncode != 0:
        raise RuntimeError(f"untraced pass failed: {done.stderr.strip()[-500:]}")
    return json.loads(out.read_text())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="run exactly this many rounds instead of timing the loop")
    parser.add_argument("--tiny", action="store_true",
                        help="one set-up and the smallest inputs, for the benchmark's tests")
    parser.add_argument("--out", type=Path, default=None,
                        help="where to write the stamped result (default: bench/out/)")
    args = parser.parse_args(argv)

    if not (SRC / "dlfvault" / "__init__.py").is_file():
        print(f"error: no dlfvault package under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    out = args.out or OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    rounds = args.rounds
    child = None
    if args.trace:
        if rounds is None:
            rounds = max(1, round(args.seconds * TRACE_SHARE / workload.nominal_round_s))
        child = untraced_child(args, rounds, out.with_name(out.stem + "-untraced.json"))

    tracer = Tracer() if args.trace else None
    setup_times = []

    def set_up():
        gc.collect()
        start = perf_counter()
        lib = fresh_import()
        if tracer is not None:
            tracer.install(lib)
        with tracer.region("setup") if tracer else nullcontext():
            state = workload.setup(lib)
        setup_times.append(perf_counter() - start)
        return lib, state

    repeats = 1 if args.tiny else SETUP_REPEATS
    for _ in range(repeats):
        lib, state = set_up()
    rec = Recorder(lib, tracer, KERNELS[workload.kernel])
    rounds_run = measure(workload, rec, state, args.seconds, rounds, set_up)
    busy_ms = sum(sum(v) for v in rec.samples.values())
    summary = summarize(args.workload, rec, setup_times, busy_ms)
    correct = not rec.unexpected

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds_run, "tiny": args.tiny, "machine": machine(),
        "attempted": rec.attempted, "failed": rec.failed, "correct": correct,
        "known_failures": dict(rec.known), "unexpected_failures": rec.unexpected[:20],
        "requests": len(rec.requests),
        "op_samples": {kind: len(v) for kind, v in rec.samples.items()},
        "busy_ms": busy_ms, "end_to_end": summary,
    }
    if args.trace:
        layers, table = per_layer(tracer, busy_ms, child["busy_ms"])
        result["per_layer"] = {m: {"value": v, "unit": layer_unit(m)} for m, v in layers.items()}
        result["functions"] = table
        untraced = child["end_to_end"]
        result["tracing_overhead"] = {
            metric: {"traced": entry["value"], "untraced": untraced[metric]["value"],
                     "difference": entry["value"] - untraced[metric]["value"],
                     "unit": entry["unit"]}
            for metric, entry in summary.items() if metric in untraced}
        result["trace_accounting"] = trace_accounting(tracer, table, busy_ms, child["busy_ms"])
        spans_path = out.with_name(out.stem + "-spans.jsonl.gz")
        tracer.write_spans(spans_path)
        result["spans"] = {"count": len(tracer.spans), "file": spans_path.name}
        metrics = result["per_layer"]
    else:
        metrics = {m: {"value": summary[m]["value"], "unit": unit}
                   for m, unit in END_TO_END.items()}
    out.write_text(json.dumps(result, indent=1) + "\n")

    report(result)
    print(json.dumps({"correct": correct, "attempted": rec.attempted, "failed": rec.failed,
                      "metrics": metrics}))
    return 0


def report(result):
    """Human-readable lines ahead of the final JSON line."""
    print(f"# {result['workload']} seed={result['seed']} rounds={result['rounds']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"known={result['known_failures']} correct={result['correct']}")
    for kind, what in result["unexpected_failures"]:
        print(f"# unexpected failure in {kind}: {what}")
    for metric, entry in result["end_to_end"].items():
        extra = "".join(f" {k}={entry[k]}" for k in ("percentile", "samples") if k in entry)
        print(f"# {metric} = {entry['value']!r} {entry['unit']}{extra}")
    if "trace_accounting" in result:
        acc = result["trace_accounting"]
        print(f"# ops took {acc['traced_ops_ms']!r} ms traced and {acc['untraced_ops_ms']!r} ms "
              f"untraced: overhead {acc['overhead_ms']!r} ms, wrappers predict "
              f"{acc['wrapper_cost_ms']!r} ms; {acc['outside_layers_share']!r} of op time is "
              f"outside every wrapped function")
    for metric, entry in result.get("tracing_overhead", {}).items():
        print(f"# overhead {metric}: traced {entry['traced']!r} - untraced "
              f"{entry['untraced']!r} = {entry['difference']!r} {entry['unit']}")
    for name, row in sorted(result.get("functions", {}).items()):
        print(f"# layer {name}: calls={row['calls']} ms={row['ms']!r} self_ms={row['self_ms']!r}")


if __name__ == "__main__":
    sys.exit(main())
