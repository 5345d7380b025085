"""The gsplines benchmark.

    python3 bench/run.py --workload int-basis --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

One process, one thread, one client in a closed loop: each case starts only
after the previous one finished.  A case is the sequence of public calls a
CLI command makes (see ``cases.py``); its inputs come from ``gen.py`` and
depend only on ``--seed``.  The loop cycles over the workload's document
pool until ``--seconds`` of case time have been measured, always finishes
at least one full pass, and stops only at the end of a round.  Outputs are
checked by oracles between cases, outside the timed region.

Times are CPU time of the benchmark process (``time.process_time``),
scaled to a reference host speed.  The run is one thread doing pure
computation on in-memory documents, so CPU time is the wall time minus the
time the host kept the process off the CPU.  The host's speed still drifts
(on a shared 2-core host, one seed's throughput moved by 1.5x within
minutes), so before every case the run also times a reference kernel, a
fixed piece of interpreter work that does not use gsplines.  A case's time
is multiplied by ``REF_UNIT_S`` over the median kernel time of the
``SCALE_WINDOW`` cases on either side of it, so the scale follows the host
within the run; each set-up repeat is scaled by the kernel timed just
before and after it, and layer times by the run's median kernel time.
Times read as on a host where the kernel takes exactly ``REF_UNIT_S``.  A
change to gsplines cannot move the kernel, so it moves the scaled times as
it moves the raw ones.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every case
twice in a row, once plain and once with a span around every layer call,
alternating which goes first; it reports per-layer self time and call counts
from the spans, size counters, and the tracing overhead (traced over plain
time of the same cases, minus one).  Spans are written to ``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` counts
the distinct cases of the pool and ``failed`` those with a failed run, so
both depend on the seed only; the number of timed runs, the sample count of
the percentiles, is printed on standard error with every failed case.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

sys.path.insert(0, BENCH_DIR)

import gen  # noqa: E402  (pure generator; does not import gsplines)
from spans import Tracer, self_times  # noqa: E402

CASE_LIMIT_S = 5.0
SETUP_REPEATS = 5
REF_UNIT_S = 0.001
# A case's time is scaled by the median kernel time of the cases within
# this many places of it, so that the scale follows the host within a run.
SCALE_WINDOW = 15

END_TO_END = (
    ("setup_s", "s"),
    ("cases_per_s", "1/s"),
    ("case_p50_ms", "ms"),
    ("case_p90_ms", "ms"),
    ("correct_share", "ratio"),
    ("peak_rss_mb", "MB"),
)

LAYER_CALLS = (
    "formats.load",
    "formats.render",
    "graphs.reduce_mod",
    "graphs.restrict",
    "graphs.edit",
    "modules.solve_direct",
    "modules.incremental",
    "modules.replay",
    "modules.bruteforce",
    "modules.spline_set",
    "modules.gkm_check",
    "modules.membership",
    "spectrum.report",
    "spectrum.base_change",
    "spectrum.diff",
    "certificates.cover",
    "certificates.certify",
)

COUNTERS = (
    ("modules.basis_max_bits", "count"),
    ("modules.basis_max_degree", "count"),
    ("modules.bruteforce.labelings", "count"),
    ("modules.bruteforce.yield", "ratio"),
    ("modules.spline_set.tuples", "count"),
    ("modules.spline_set.yield", "ratio"),
    ("graphs.restrict.trivialized_edges", "count"),
    ("certificates.cover.decided_share", "ratio"),
)


def per_layer_names():
    """Every per-layer metric with its unit, in output order."""
    out = []
    for name in LAYER_CALLS:
        out.append((f"{name}.busy_s", "s"))
        out.append((f"{name}.calls", "count"))
    out += list(COUNTERS)
    out += [("case.unattributed_s", "s"), ("host.kernel_ms", "ms"),
            ("trace.spans", "count"), ("trace.overhead", "ratio")]
    return out


def _object_kernel():
    """Interpreter work on small objects: tuples, dicts, small Fractions."""
    total = 0
    for rep in range(3):
        rows = [tuple(range(k + rep, k + rep + 8)) for k in range(16)]
        seen = {}
        for i, row in enumerate(rows):
            q = Fraction(i + 1, 7) * Fraction(3, i + 2) + Fraction(rep, 5)
            combo = tuple(a * 3 - b for a, b in zip(row, rows[-1 - i]))
            seen[combo] = q
        total += len(seen)
    return total


def _bigint_kernel():
    """Big-integer arithmetic: a rational sum whose denominator grows to
    about 400 bits, like the coefficients of the integer solvers."""
    acc = Fraction(0)
    for k in range(1, 300):
        acc += Fraction(k, k + 1)
    return acc


# The host's speed drifts, and it does not move all code alike, so each
# workload is scaled by the kernel whose arithmetic is closest to its own.
REFERENCE_KERNELS = {
    "int-basis": _bigint_kernel,
    "poly-basis": _object_kernel,
    "verify-mod": _object_kernel,
    "certify-spectrum": _object_kernel,
}


class CaseTimeout(Exception):
    pass


class _Alarm:
    """Per-case time limit through SIGALRM; the run is single-threaded."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise CaseTimeout()

    def arm(self):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, CASE_LIMIT_S)

    def disarm(self):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def _import_program():
    """Import gsplines (and the case module bound to it) from scratch."""
    for name in list(sys.modules):
        if name == "gsplines" or name.startswith("gsplines.") or name == "cases":
            del sys.modules[name]
    gsplines = importlib.import_module("gsplines")
    if os.path.dirname(os.path.dirname(os.path.abspath(gsplines.__file__))) != SRC:
        raise RuntimeError(f"imported gsplines from {gsplines.__file__}, not from {SRC}")
    return importlib.import_module("cases")


def _kernel_time(kernel, reps=7):
    """Median time of ``reps`` runs of a reference kernel."""
    times = []
    for _ in range(reps):
        t0 = time.process_time()
        kernel()
        times.append(time.process_time() - t0)
    return statistics.median(times)


def setup(workload, docs):
    """Median over several repeats of: fresh import + loading every
    document, each repeat scaled by the kernel timed just before and after
    it."""
    kernel = REFERENCE_KERNELS[workload]
    times = []
    for _ in range(SETUP_REPEATS):
        before = _kernel_time(kernel)
        t0 = time.process_time()
        cases = _import_program()
        cases.load_all(workload, docs)
        dt = time.process_time() - t0
        after = _kernel_time(kernel)
        times.append(dt * REF_UNIT_S / ((before + after) / 2))
    return statistics.median(times), cases


def groebner_truths(docs):
    """Cover truth for documents whose status is not known by construction."""
    pending = [d for d in docs if d.get("groebner")]
    if not pending:
        return {}
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "groebner_oracle.py")],
        input=json.dumps([d["groebner"] for d in pending]),
        capture_output=True, text=True, timeout=150, check=True,
    )
    return {d["id"]: s for d, s in zip(pending, json.loads(proc.stdout))}


class Loop:
    """Runs cases in a closed loop and keeps what the metrics need."""

    def __init__(self, workload, docs, truths, cases, mutate=None):
        self.workload = workload
        self.docs = docs
        self.truths = truths
        self.cases = cases
        self.mutate = mutate
        self.alarm = _Alarm()
        self.durations = []
        self.kernel = REFERENCE_KERNELS[workload]
        self.round_length = min(gen.round_length(workload), len(docs))
        self.kernel_times = []
        self.correct = 0
        self.failures = []  # (case index, doc id, kind, reason)
        self.failed_docs = set()  # pool positions with a failed run
        self.pass_counters = {}

    def run_case(self, i, tracer, count=False):
        """One case and its oracle; ``count`` adds its size counters."""
        doc = self.docs[i % len(self.docs)]
        fn = self.cases.CASES[self.workload]
        out = err = None
        k0 = time.process_time()
        self.kernel()
        self.kernel_times.append(time.process_time() - k0)
        tracer.begin_case(i)
        t0 = time.process_time()
        try:
            self.alarm.arm()
            try:
                out = fn(tracer, doc)
            finally:
                self.alarm.disarm()
        except CaseTimeout:
            err = ("timeout", f"over the {CASE_LIMIT_S:g} s case limit")
        except Exception as exc:  # any program error fails this case only
            err = ("exception", f"{type(exc).__name__}: {exc}")
        dt = time.process_time() - t0
        tracer.end_case()
        self.durations.append(dt)
        if err is None:
            if self.mutate is not None:
                out = self.mutate(doc, out)
            verdict = self.cases.check(self.workload, doc, out, self.truths.get(doc["id"], doc.get("truth")))
            if verdict.ok:
                self.correct += 1
            else:
                err = (verdict.kind, verdict.reason)
            if count:
                self._count(out)
        if err is not None:
            self.failures.append((i, doc["id"], err[0], err[1]))
            self.failed_docs.add(i % len(self.docs))
        return dt

    def _count(self, out):
        for key, value in self.cases.counters(self.workload, out).items():
            how, name = key.split(":", 1)
            old = self.pass_counters.get(name, 0)
            self.pass_counters[name] = max(old, value) if how == "max" else old + value

    def _more(self, i, spent, seconds):
        """Whether case ``i`` runs: until ``seconds`` of case time and at
        least one full pass, and always to the end of a round, so that every
        slot's share of the cases is the same however fast the host is."""
        return spent < seconds or i < len(self.docs) or i % self.round_length

    def run_for(self, seconds):
        """Cases while ``_more``; the first pass gives the size counters."""
        plain = Tracer(False)
        i, spent = 0, 0.0
        while self._more(i, spent, seconds):
            spent += self.run_case(i, plain, count=i < len(self.docs))
            i += 1

    def run_paired(self, seconds, tracer):
        """Like ``run_for``, but every case runs plain and traced back to
        back, so both see the same host; returns (plain, traced) time."""
        plain = Tracer(False)
        i, untraced, traced = 0, 0.0, 0.0
        while self._more(i, untraced + traced, seconds):
            if i % 2:
                traced += self.run_case(i, tracer)
                untraced += self.run_case(i, plain, count=i < len(self.docs))
            else:
                untraced += self.run_case(i, plain, count=i < len(self.docs))
                traced += self.run_case(i, tracer)
            i += 1
        return untraced, traced

    def host_scale(self):
        """Factor from this run's CPU time to reference-host time."""
        return REF_UNIT_S / statistics.median(self.kernel_times)

    def scaled_durations(self):
        """Every case time at reference-host speed, each scaled by the
        kernel times measured around it."""
        k, w = self.kernel_times, SCALE_WINDOW
        return [
            t * REF_UNIT_S / statistics.median(k[max(0, i - w):i + w + 1])
            for i, t in enumerate(self.durations)
        ]

    def size_counters(self):
        c = self.pass_counters
        labelings = c.get("modules.bruteforce.labelings", 0)
        tuples = c.get("modules.spline_set.tuples", 0)
        checks = c.get("certificates.cover.checks", 0)
        return {
            "modules.basis_max_bits": c.get("modules.basis_max_bits", 0),
            "modules.basis_max_degree": c.get("modules.basis_max_degree", 0),
            "modules.bruteforce.labelings": labelings,
            "modules.bruteforce.yield": c.get("modules.bruteforce.splines", 0) / labelings if labelings else 0.0,
            "modules.spline_set.tuples": tuples,
            "modules.spline_set.yield": c.get("modules.spline_set.distinct", 0) / tuples if tuples else 0.0,
            "graphs.restrict.trivialized_edges": c.get("graphs.restrict.trivialized_edges", 0),
            "certificates.cover.decided_share": c.get("certificates.cover.decided", 0) / checks if checks else 0.0,
        }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run(workload, seed, seconds, trace, mutate=None, rounds=None):
    """One benchmark run; returns the result object.

    ``mutate(doc, outputs)`` may alter a case's outputs before the oracles
    see them and ``rounds`` may shrink the pool; both are for self-tests.
    """
    docs = gen.generate(workload, seed, rounds)
    truths = groebner_truths(docs)
    setup_s, cases = setup(workload, docs)
    loop = Loop(workload, docs, truths, cases, mutate)
    if not trace:
        loop.run_for(seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        d = loop.scaled_durations()
        metrics = {
            "setup_s": setup_s,
            "cases_per_s": loop.correct / sum(d),
            "case_p50_ms": statistics.median(d) * 1e3,
            "case_p90_ms": statistics.quantiles(d, n=10)[8] * 1e3,
            "correct_share": 1.0 - len(loop.failed_docs) / len(docs),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    else:
        tracer = Tracer(True)
        untraced, traced = loop.run_paired(seconds, tracer)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl"))
        selfs = self_times(tracer.spans)
        scale = loop.host_scale()
        metrics = {}
        for name in LAYER_CALLS:
            busy, calls = selfs.get(name, (0.0, 0))
            metrics[f"{name}.busy_s"] = busy * scale
            metrics[f"{name}.calls"] = calls
        metrics.update(loop.size_counters())
        metrics["case.unattributed_s"] = selfs.get("case", (0.0, 0))[0] * scale
        metrics["host.kernel_ms"] = REF_UNIT_S / scale * 1e3
        metrics["trace.spans"] = len(tracer.spans)
        metrics["trace.overhead"] = traced / untraced - 1.0
        units = dict(per_layer_names())
    # A case is one document of the pool.  Every document runs at least
    # once, and a document fails when any of its runs fails, so ``attempted``
    # and ``failed`` depend on the seed only, not on how many repeats the
    # host's speed allowed.
    return {
        "correct": all(kind == cases.COVER_MULTIVARIATE for _, _, kind, _ in loop.failures),
        "attempted": len(docs),
        "failed": len(loop.failed_docs),
        "timed_runs": len(loop.durations),
        "metrics": {k: _metric(v, units[k]) for k, v in metrics.items()},
        "_failures": loop.failures,
    }


def report(workload, result, out=sys.stderr):
    """Human-readable summary: every metric by name with its unit."""
    n = result["attempted"]
    print(f"workload {workload}: {n} cases attempted, {result['failed']} failed"
          f" (fail rate {result['failed'] / n:.4f}), {result['timed_runs']} timed case runs"
          f" (sample count), correct={result['correct']}", file=out)
    for name, m in result["metrics"].items():
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}", file=out)
    print("  waiting: no layer has a queue or retries, so waiting time does not"
          " exist and is not reported", file=out)
    for i, doc_id, kind, reason in result["_failures"]:
        print(f"  failed case {i} {doc_id}: {kind}: {reason}", file=out)


def run_all(seed, seconds, trace):
    """Each workload in its own process, one after another."""
    rows = []
    for workload in gen.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=True,
        )
        sys.stderr.write(proc.stderr)
        samples = re.search(r"(\d+) timed case runs", proc.stderr).group(1)
        rows.append((workload, samples, json.loads(proc.stdout.strip().splitlines()[-1])))
    for workload, samples, res in rows:
        print(f"{workload}: attempted {res['attempted']} cases, failed {res['failed']},"
              f" correct {res['correct']}, {samples} timed case runs (sample count)")
        for name, m in res["metrics"].items():
            print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if not os.path.isfile(os.path.join(SRC, "gsplines", "__init__.py")):
        print(f"error: no gsplines sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, result)
    del result["_failures"], result["timed_runs"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
