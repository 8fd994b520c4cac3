#!/usr/bin/env python3
"""Smoke tests of the benchmark: every workload, short, in both modes.

    python3 perfbench/test_smoke.py        # from the repository root

Each test runs `perfbench/run.py --smoke`, which measures one cycle of
sessions (one fleet call per phase), and checks that:
- the result line carries exactly the metrics BENCHMARK.json names, with
  their units, and no operation failed;
- the summary line carries every metric the workload defines;
- a traced run repeated with the same seed reproduces the deterministic
  counters exactly (wire transactions, PostScript fuel, retired steps,
  checkpoints, fleet outcomes).
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))

CLASSES = ["connect", "stop", "inspect"]
COMMON = ["setup_s", "failed_ratio", "peak_rss_mb", "sessions_per_s", "cmds_per_s",
          "session_p50_ms", "session_p90_ms"]
# End-to-end metrics each workload reports in its summary line.
E2E = {
    "interactive": COMMON + [f"{c}_p{q}_ms" for c in CLASSES for q in (50, 90)],
    "long_run": COMMON + [f"{c}_p{q}_ms" for c in CLASSES + ["reverse"] for q in (50, 90)]
    + ["exec_msteps_per_s"],
    "daemon": COMMON + [f"{c}_p{q}_ms" for c in CLASSES for q in (50, 90)],
    "fleet": COMMON,
}
SOLO_LAYER = (["cc.compile_ms", "ps.fuel.connect", "ps.fuel.stop", "ps.fuel.inspect",
               "ps.alloc.connect", "dbg.amem_hit_ratio", "wire.retransmits",
               "wire.quiet_polls.connect", "wire.quiet_polls.stop", "nub.idle_polls",
               "nub.idle_ms.stop", "nub.serve_ms", "machine.steps.stop",
               "machine.bare_msteps_per_s", "bench.trace_overhead_pct"]
              + [f"{m}.{c}" for m in ("dbg.self_ms", "wire.txns", "wire.bytes", "wire.wait_ms")
                 for c in CLASSES])
# Per-layer metrics each workload reports in its traced summary line.
LAYER = {
    "interactive": SOLO_LAYER + ["expr.eval_p50_ms"],
    "long_run": SOLO_LAYER + ["dbg.self_ms.reverse", "wire.txns.reverse", "wire.wait_ms.reverse",
                              "machine.steps.reverse", "ckpt.taken", "ckpt.restores",
                              "ckpt.raw_bytes", "ckpt.packed_bytes", "ckpt.capture_ms"],
    "daemon": ["net.ping_p50_ms", "daemon.cache_hits", "daemon.cache_misses", "net.requests",
               "net.bytes_in", "net.bytes_out", "net.shed", "net.quarantined",
               "cc.compile_ms", "machine.bare_msteps_per_s", "bench.trace_overhead_pct"]
    + [f"wire.{m}.{c}" for m in ("txns", "bytes") for c in CLASSES],
    "fleet": ["fleet.session_wall_p50_ms", "fleet.session_wall_p90_ms", "fleet.retries",
              "fleet.journal_inconsistent", "cc.compile_ms", "machine.bare_msteps_per_s",
              "bench.trace_overhead_pct"]
    + [f"fleet.wall_s.{o}" for o in ("clean", "script-error", "panic-quarantined",
                                     "wire-lost", "wedged")],
}
GATED = ("wire.txns.", "ps.fuel.", "machine.steps.", "fleet.outcome.")
GATED_EXACT = ("ckpt.taken",)


def run(workload, trace, seed=7):
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert p.returncode == 0, p.stderr[-3000:]
    lines = p.stdout.strip().splitlines()
    assert lines[-2].startswith("summary "), lines[-2]
    return json.loads(lines[-2][len("summary "):]), json.loads(lines[-1]), p.stderr


class Smoke(unittest.TestCase):
    def check_result(self, result, stderr, names):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], stderr[-3000:])
        self.assertEqual(result["failed"], 0, stderr[-3000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(
            {k: v["unit"] for k, v in result["metrics"].items()},
            {m["name"]: m["unit"] for m in SPEC[names]})
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def workload(self, w):
        summary, result, err = run(w, 0)
        self.check_result(result, err, "end_to_end")
        for m in SPEC["end_to_end"]:
            self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])
        missing = [m for m in E2E[w] if m not in summary["metrics"]]
        self.assertEqual(missing, [], f"{w}: summary lacks {missing}")
        self.assertEqual(summary["metrics"]["failed_ratio"]["value"], 0)

        traced = []
        for _ in range(2):
            summary, result, err = run(w, 1)
            self.check_result(result, err, "per_layer")
            missing = [m for m in LAYER[w] if m not in summary["metrics"]]
            self.assertEqual(missing, [], f"{w}: traced summary lacks {missing}")
            traced.append(summary["metrics"])
        gated = {k: v["value"] for k, v in traced[0].items()
                 if k.startswith(GATED) or k in GATED_EXACT}
        again = {k: traced[1][k]["value"] for k in gated}
        self.assertEqual(gated, again, f"{w}: deterministic counters moved between runs")
        return traced[0]

    def test_interactive(self):
        m = self.workload("interactive")
        # One cycle is five sessions; every attach waits out one quiet poll.
        self.assertGreaterEqual(m["wire.quiet_polls.connect"]["value"], 5)

    def test_long_run(self):
        m = self.workload("long_run")
        self.assertGreater(m["nub.idle_polls"]["value"], 0)
        self.assertGreater(m["ckpt.taken"]["value"], 0)

    def test_daemon(self):
        m = self.workload("daemon")
        self.assertGreater(m["daemon.cache_misses"]["value"], 0)

    def test_fleet(self):
        # The binary's smoke mode refuses a fleet missing any outcome class.
        m = self.workload("fleet")
        for o in ("clean", "script-error", "panic-quarantined", "wire-lost", "wedged"):
            self.assertGreater(m[f"fleet.outcome.{o}"]["value"], 0, o)


if __name__ == "__main__":
    unittest.main()
