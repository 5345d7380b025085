"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

They check that the oracles catch wrong answers, that inputs and size
counters are deterministic, and that one command prints every metric that
``BENCHMARK.json`` names, with its unit.  The last test runs every workload
once with tracing off and once with it on, which takes a minute or two.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _bump_last_entry(module):
    """The same module with the last entry of its last row changed by one."""
    rows = list(module.rows)
    last = list(rows[-1])
    last[-1] = last[-1] + 1
    rows[-1] = tuple(last)
    return dataclasses.replace(module, rows=tuple(rows))


class OraclesCatchWrongAnswers(unittest.TestCase):
    def test_clean_run_has_no_failure(self):
        res = run.run("int-basis", 1, 0.0, False, rounds=1)
        self.assertEqual(res["failed"], 0, res["_failures"])
        self.assertTrue(res["correct"])

    def test_tampered_direct_basis_fails(self):
        def tamper(doc, out):
            out["direct"] = _bump_last_entry(out["direct"])
            return out

        res = run.run("int-basis", 1, 0.0, False, mutate=tamper, rounds=1)
        self.assertEqual(res["failed"], res["attempted"])
        self.assertFalse(res["correct"])

    def test_consistently_tampered_bases_fail(self):
        # Direct, incremental and replay cannot catch a change made to all
        # of them; the hand-written congruence check must.
        def tamper(doc, out):
            out["direct"] = _bump_last_entry(out["direct"])
            out["incremental"] = out["direct"]
            out["replayed"] = []
            return out

        res = run.run("poly-basis", 1, 0.0, False, mutate=tamper, rounds=1)
        self.assertEqual(res["failed"], res["attempted"])
        self.assertFalse(res["correct"])

    def test_planted_wrong_cover_verdict_fails(self):
        flipped = []

        def tamper(doc, out):
            ring = json.loads(doc["graph"])["ring"]
            if ring["kind"] == "Int" and doc["truth"] is not None:
                wrong = "FailsToCover" if doc["truth"] == "Covers" else "Covers"
                out["cover"] = dataclasses.replace(out["cover"], status=wrong)
                flipped.append(doc["id"])
            return out

        res = run.run("certify-spectrum", 1, 0.0, False, mutate=tamper, rounds=1)
        failed_ids = {doc_id for _, doc_id, _, _ in res["_failures"]}
        self.assertTrue(flipped)
        self.assertTrue(set(flipped) <= failed_ids)
        self.assertFalse(res["correct"])

    def test_hexpoly_fixture_counts_as_failed(self):
        res = run.run("certify-spectrum", 1, 0.0, False, rounds=1)
        kinds = {doc_id: kind for _, doc_id, kind, _ in res["_failures"]}
        self.assertEqual(kinds.get("certify-spectrum/0/hexpoly-fixture"), "cover-misreport-multivariate")
        self.assertTrue(res["correct"])


class FailedCountsDependOnTheSeedOnly(unittest.TestCase):
    def test_same_counts_for_every_seed_and_run_length(self):
        counts = {
            (seed, seconds): (res["attempted"], res["failed"])
            for seed, seconds in ((1, 0.0), (2, 0.0), (1, 2.0))
            for res in [run.run("certify-spectrum", seed, seconds, False, rounds=1)]
        }
        self.assertEqual(len(set(counts.values())), 1, counts)
        attempted, failed = counts[(1, 0.0)]
        self.assertEqual(attempted, gen.round_length("certify-spectrum"))
        self.assertGreaterEqual(failed, 2)  # the hexpoly fixture and the planted chain


class Determinism(unittest.TestCase):
    def test_same_seed_same_documents(self):
        for workload in gen.WORKLOADS:
            self.assertEqual(gen.fingerprint(gen.generate(workload, 7)),
                             gen.fingerprint(gen.generate(workload, 7)))
            self.assertNotEqual(gen.fingerprint(gen.generate(workload, 7)),
                                gen.fingerprint(gen.generate(workload, 8)))

    def test_documents_do_not_depend_on_the_process(self):
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import gen; "
                "print(gen.fingerprint(gen.generate('certify-spectrum', 7)))")
        env = dict(os.environ, PYTHONHASHSEED="random")
        out = subprocess.run([sys.executable, "-c", code, BENCH_DIR], env=env,
                             capture_output=True, text=True, check=True).stdout.strip()
        self.assertEqual(out, gen.fingerprint(gen.generate("certify-spectrum", 7)))

    def test_size_counters_repeat_exactly(self):
        for workload in gen.WORKLOADS:
            a = run.run(workload, 3, 0.0, True, rounds=1)["metrics"]
            b = run.run(workload, 3, 0.0, True, rounds=1)["metrics"]
            for name, _ in run.COUNTERS:
                self.assertEqual(a[name]["value"], b[name]["value"], (workload, name))


class OneCommandPrintsEveryMetric(unittest.TestCase):
    def _run_all(self, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", "all",
             "--seed", "1", "--seconds", "0", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        return proc.stdout

    def test_end_to_end_and_per_layer(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = self._run_all(trace)
            for workload in gen.WORKLOADS:
                self.assertIn(f"{workload}: attempted", out)
            lines = out.splitlines()
            for metric in SPEC[key]:
                hits = [ln.split() for ln in lines if ln.split()[:1] == [metric["name"]]]
                self.assertEqual(len(hits), len(gen.WORKLOADS), metric["name"])
                self.assertTrue(all(h[-1] == metric["unit"] for h in hits), metric["name"])

    def test_without_sources_exits_nonzero_and_prints_no_result(self):
        bare = os.path.join(BENCH_DIR, "out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "int-basis", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
